//! A deliberately tiny HTTP/1.1 GET surface on the shared listener, for
//! scrapers and humans: `/metrics` (Prometheus text exposition), `/healthz`,
//! and `/trace` (Chrome `chrome://tracing` JSON).
//!
//! This is not a web server. One request per connection
//! (`Connection: close`), GET only, no keep-alive, bounded header read. The
//! point is that the same port answering binary queries also answers
//! `curl http://host:port/metrics` — one process, one address, full
//! observability.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;

use fg_metrics::family;

use crate::server::ServerCore;

/// Cap on request line + headers; a scraper needs far less.
const MAX_HEAD: usize = 8 * 1024;

/// Serve one sniffed-as-HTTP connection. `prefix` holds the 4 bytes the
/// sniffer already consumed (the start of the method). The configured
/// `read_deadline` bounds the header read — the HTTP dialect gets the same
/// slow-loris guard as the binary one, and a reap counts in
/// `fg_server_connections_timed_out_total`.
pub(crate) fn run_http_connection(core: &ServerCore, stream: TcpStream, prefix: &[u8]) {
    core.stats.http_requests.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_read_timeout(core.config.read_deadline);
    let mut head = prefix.to_vec();
    match read_head(&stream, &mut head) {
        HeadRead::Complete => {}
        HeadRead::TimedOut => {
            core.stats.connections_timed_out.fetch_add(1, Ordering::Relaxed);
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        HeadRead::Failed => {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
    }
    let response = respond(core, &head);
    let mut writer = &stream;
    let _ = writer.write_all(&response);
    let _ = writer.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

/// Outcome of reading one request head.
enum HeadRead {
    /// The blank line ending the headers arrived within the deadline.
    Complete,
    /// The peer stalled past the configured `read_deadline`.
    TimedOut,
    /// Closed, reset, or oversized head.
    Failed,
}

/// Read until the blank line ending the headers (or the cap / a timeout).
fn read_head(mut stream: &TcpStream, head: &mut Vec<u8>) -> HeadRead {
    let mut buf = [0u8; 1024];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && !head.windows(2).any(|w| w == b"\n\n") {
        if head.len() > MAX_HEAD {
            return HeadRead::Failed;
        }
        match stream.read(&mut buf) {
            Ok(0) => return HeadRead::Failed,
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return HeadRead::TimedOut;
            }
            Err(_) => return HeadRead::Failed,
        }
    }
    HeadRead::Complete
}

fn respond(core: &ServerCore, head: &[u8]) -> Vec<u8> {
    let request_line = match std::str::from_utf8(head).ok().and_then(|text| text.lines().next()) {
        Some(line) => line,
        None => return render(400, "text/plain; charset=utf-8", "bad request\n"),
    };
    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(method), Some(path)) => (method, path),
        _ => return render(400, "text/plain; charset=utf-8", "bad request\n"),
    };
    if method != "GET" {
        return render(405, "text/plain; charset=utf-8", "method not allowed; GET only\n");
    }
    // Ignore any query string: scrapers sometimes append cache-busters.
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/healthz" => {
            let status =
                if core.stopping() || core.service.is_draining() { "draining" } else { "ok" };
            render(200, "text/plain; charset=utf-8", &format!("{status}\n"))
        }
        "/metrics" => render(200, "text/plain; version=0.0.4", &metrics_body(core)),
        "/trace" => match core.service.chrome_trace() {
            Some(json) => render(200, "application/json", &json),
            None => render(
                404,
                "text/plain; charset=utf-8",
                "tracing not enabled; start the service with start_traced\n",
            ),
        },
        _ => render(
            404,
            "text/plain; charset=utf-8",
            "unknown path; try /metrics, /healthz, /trace\n",
        ),
    }
}

/// The `/metrics` body: the service's exposition, then this server's own
/// `fg_server_*` wire counters.
pub(crate) fn metrics_body(core: &ServerCore) -> String {
    let mut body = core.service.exposition();
    family::expose(&mut body, &core.stats.families());
    body
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Internal Server Error",
    }
}

fn render(code: u16, content_type: &str, body: &str) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.1 {code} {status}\r\nContent-Type: {content_type}\r\nContent-Length: {len}\r\nConnection: close\r\n\r\n",
        status = status_text(code),
        len = body.len(),
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}
