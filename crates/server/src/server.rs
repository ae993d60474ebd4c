//! The front door itself: a threaded TCP listener multiplexing two dialects
//! on one port.
//!
//! Each accepted socket is *sniffed*: a peer that opens with the 4-byte
//! [`MAGIC`] speaks the binary query protocol and
//! gets a reader/writer thread pair ([`crate::conn`]); anything else is
//! treated as an HTTP/1.1 scraper and answered by [`crate::http`]. One
//! listener therefore serves queries, `/metrics`, `/healthz`, and `/trace`.
//!
//! Shutdown is a drain, not a guillotine:
//!
//! 1. stop accepting new connections,
//! 2. [`ForkGraphService::begin_drain`] — new submits are shed with a typed
//!    `ShuttingDown` error while everything already admitted keeps running,
//! 3. half-close (`Shutdown::Read`) every open connection so readers wind
//!    down while writers flush each outstanding correlation ID,
//! 4. join connection threads, then shut the service itself down.
//!
//! Every correlation admitted before step 2 is *answered* — resolved or
//! rejected — before the socket closes.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use fg_metrics::Family;
use fg_service::{ForkGraphService, ServiceHandle};
use parking_lot::Mutex;

use crate::framing::{write_frame, MAX_FRAME_LEN};
use crate::protocol::{encode_response, Response, CONNECTION_CORRELATION, MAGIC};

/// Accept-loop poll interval while checking the stop flag.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Tuning for [`ForkGraphServer`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to bind. Port `0` picks an ephemeral port — read it back via
    /// [`ForkGraphServer::local_addr`].
    pub addr: String,
    /// Per-frame body cap (both directions). Oversized request frames are
    /// discarded and answered with a typed error; a result whose encoding
    /// exceeds the cap is answered with
    /// [`WireErrorCode::UnsupportedResult`](crate::WireErrorCode::UnsupportedResult)
    /// for its correlation. Either way the connection survives.
    pub max_frame_len: usize,
    /// Backoff hint carried by retry-after frames when admission control
    /// sheds a query.
    pub retry_after_ms: u32,
    /// Cap on concurrently served connections. A peer accepted beyond it is
    /// answered with a single retry-after frame (correlation `0`) and
    /// closed, instead of being handed an unbounded thread — an accept
    /// flood degrades into flow control, not thread exhaustion.
    pub max_connections: usize,
    /// Cap on one connection's admitted-but-unanswered queries. Over-limit
    /// requests get a retry-after frame carrying the observed in-flight
    /// depth; the connection survives. Keeps a single pipelining client
    /// from parking the whole service queue behind its socket.
    pub max_inflight_per_conn: usize,
    /// How long a binary connection may sit **between** frames before it is
    /// reaped. `None` disables the guard (a quiet peer holds its slot
    /// forever). Idle reaps close the socket but count as tidy closes —
    /// nothing was half-sent, so the peer can simply reconnect.
    pub idle_timeout: Option<Duration>,
    /// How long a peer gets to finish a frame it has **started** (binary
    /// dialect) or its request head (HTTP dialect). A stall past this
    /// deadline is the slow-loris shape (drip one byte, park a server thread
    /// indefinitely); the connection is reaped and counted in
    /// `fg_server_connections_timed_out_total`. `None` disables the guard.
    /// The dialect sniff itself is bounded by
    /// [`sniff_timeout`](Self::sniff_timeout), derived from this and
    /// [`idle_timeout`](Self::idle_timeout).
    pub read_deadline: Option<Duration>,
}

impl ServerConfig {
    /// How long a freshly accepted socket may take to reveal its dialect
    /// (the 4-byte sniff) before the server hangs up on it: the tighter of
    /// [`idle_timeout`](Self::idle_timeout) (the peer has sent nothing yet)
    /// and [`read_deadline`](Self::read_deadline) (a partial sniff is a
    /// started read). `None` — wait forever — only when both guards are
    /// disabled.
    pub fn sniff_timeout(&self) -> Option<Duration> {
        match (self.idle_timeout, self.read_deadline) {
            (Some(idle), Some(read)) => Some(idle.min(read)),
            (idle, read) => idle.or(read),
        }
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_frame_len: MAX_FRAME_LEN,
            retry_after_ms: 25,
            max_connections: 256,
            max_inflight_per_conn: 128,
            idle_timeout: Some(Duration::from_secs(60)),
            read_deadline: Some(Duration::from_secs(10)),
        }
    }
}

/// Wire-level counters, exposed as `fg_server_*` families on `/metrics`.
#[derive(Default)]
pub(crate) struct ServerStats {
    pub(crate) connections_accepted: AtomicU64,
    pub(crate) connections_rejected: AtomicU64,
    pub(crate) frames_in: AtomicU64,
    pub(crate) frames_out: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
    pub(crate) retry_afters: AtomicU64,
    pub(crate) http_requests: AtomicU64,
    pub(crate) connections_timed_out: AtomicU64,
}

impl ServerStats {
    /// One metric family per field, in field order.
    pub(crate) fn families(&self) -> Vec<Family> {
        let counter = |name, help, value: &AtomicU64| {
            Family::counter(name, help, value.load(Ordering::Relaxed))
        };
        vec![
            counter(
                "fg_server_connections_accepted_total",
                "Connections accepted by the front door listener",
                &self.connections_accepted,
            ),
            counter(
                "fg_server_connections_rejected_total",
                "Connections shed at accept time by the concurrency cap",
                &self.connections_rejected,
            ),
            counter(
                "fg_server_frames_in_total",
                "Binary request frames read off the wire",
                &self.frames_in,
            ),
            counter(
                "fg_server_frames_out_total",
                "Binary response frames written to the wire",
                &self.frames_out,
            ),
            counter(
                "fg_server_protocol_errors_total",
                "Malformed frames answered with a typed error",
                &self.protocol_errors,
            ),
            counter(
                "fg_server_retry_after_total",
                "Queries shed with a retry-after frame under saturation",
                &self.retry_afters,
            ),
            counter(
                "fg_server_http_requests_total",
                "HTTP requests served on the shared listener",
                &self.http_requests,
            ),
            counter(
                "fg_server_connections_timed_out_total",
                "Connections reaped by the idle timeout or mid-frame read deadline",
                &self.connections_timed_out,
            ),
        ]
    }
}

/// State shared by the accept loop and every connection thread.
pub(crate) struct ServerCore {
    pub(crate) service: ForkGraphService,
    pub(crate) handle: ServiceHandle,
    pub(crate) config: ServerConfig,
    pub(crate) stats: ServerStats,
    stop: AtomicBool,
    /// Concurrently served connections, for the accept-time cap. Incremented
    /// before a connection thread spawns, decremented on its teardown.
    live_conns: AtomicUsize,
    /// Monotonic connection IDs, keying `conns` entries for teardown removal.
    next_conn_id: AtomicU64,
    /// Read-half clones of every live connection, for the shutdown
    /// half-close. A connection removes its own entry on teardown; remaining
    /// entries are best-effort and dead sockets are ignored.
    conns: Mutex<Vec<(u64, TcpStream)>>,
    /// Reader-thread handles (each reader joins its own writer). Finished
    /// handles are pruned whenever a new connection spawns, so a long-lived
    /// server's list tracks live connections, not its accept history.
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl ServerCore {
    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// A running front door. Dropping it (or calling [`shutdown`]) drains
/// connections and stops the underlying service.
///
/// [`shutdown`]: ForkGraphServer::shutdown
pub struct ForkGraphServer {
    core: Option<Arc<ServerCore>>,
    accept_thread: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl ForkGraphServer {
    /// Bind `config.addr` and start serving `service` over it. The server
    /// takes ownership of the service so shutdown can drain and stop it.
    pub fn start(service: ForkGraphService, config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(config.addr.as_str())?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let handle = service.handle();
        let core = Arc::new(ServerCore {
            service,
            handle,
            config,
            stats: ServerStats::default(),
            stop: AtomicBool::new(false),
            live_conns: AtomicUsize::new(0),
            next_conn_id: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
            conn_threads: Mutex::new(Vec::new()),
        });

        let accept_core = Arc::clone(&core);
        let accept_thread = std::thread::Builder::new()
            .name("fg-server-accept".into())
            .spawn(move || accept_loop(accept_core, listener))?;

        Ok(ForkGraphServer { core: Some(core), accept_thread: Some(accept_thread), local_addr })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A cloneable in-process submission handle to the served service —
    /// handy for oracles that must bypass the wire.
    pub fn handle(&self) -> ServiceHandle {
        self.core.as_ref().expect("server running").handle.clone()
    }

    /// Point-in-time service metrics (same snapshot `/metrics` exposes).
    pub fn metrics(&self) -> fg_metrics::ServiceSnapshot {
        self.core.as_ref().expect("server running").handle.metrics()
    }

    /// Stop admitting new queries while letting everything in flight finish.
    /// Idempotent; [`shutdown`](Self::shutdown) calls it implicitly.
    pub fn begin_drain(&self) {
        self.core.as_ref().expect("server running").service.begin_drain();
    }

    /// Drain and stop: refuse new work, answer every outstanding
    /// correlation ID, close connections, and shut the service down.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let Some(core) = self.core.take() else { return };

        // 1. No new connections.
        core.stop.store(true, Ordering::Release);
        if let Some(accept) = self.accept_thread.take() {
            let _ = accept.join();
        }

        // 2. No new queries; in-flight tickets keep resolving.
        core.service.begin_drain();

        // 3. Half-close every connection: readers see EOF and wind down;
        //    writers drain their in-flight tickets first.
        for (_, conn) in core.conns.lock().iter() {
            let _ = conn.shutdown(Shutdown::Read);
        }

        // 4. Join connection threads, then stop the service.
        let threads: Vec<_> = core.conn_threads.lock().drain(..).collect();
        for thread in threads {
            let _ = thread.join();
        }

        // If a straggler thread still holds the Arc, the service's own Drop
        // will stop it when the last clone dies.
        if let Ok(core) = Arc::try_unwrap(core) {
            core.service.shutdown();
        }
    }
}

impl Drop for ForkGraphServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(core: Arc<ServerCore>, listener: TcpListener) {
    while !core.stopping() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let live = core.live_conns.load(Ordering::Acquire);
                if live >= core.config.max_connections {
                    // Over-cap: one retry-after frame, no thread. The flood
                    // costs the server a short write, not a stack.
                    core.stats.connections_rejected.fetch_add(1, Ordering::Relaxed);
                    reject_connection(&core, stream, live);
                    continue;
                }
                core.stats.connections_accepted.fetch_add(1, Ordering::Relaxed);
                spawn_connection(&core, stream);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            // Transient accept failures (per-connection resets); keep serving.
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Answer an over-cap peer with a connection-level retry-after and hang up.
/// Bounded: a peer that won't take the frame is abandoned, never waited on.
fn reject_connection(core: &ServerCore, stream: TcpStream, live: usize) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let frame = encode_response(&Response::RetryAfter {
        correlation: CONNECTION_CORRELATION,
        retry_after_ms: core.config.retry_after_ms,
        queue_depth: crate::conn::clamp_u32(live),
        capacity: crate::conn::clamp_u32(core.config.max_connections),
    });
    let mut writer = &stream;
    let _ = write_frame(&mut writer, &frame);
    let _ = writer.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

/// Undoes a connection's accept-time bookkeeping when its thread ends, on
/// every exit path (sniff timeout, clean close, panic).
struct ConnGuard {
    core: Arc<ServerCore>,
    id: u64,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.core.conns.lock().retain(|(id, _)| *id != self.id);
        self.core.live_conns.fetch_sub(1, Ordering::AcqRel);
    }
}

fn spawn_connection(core: &Arc<ServerCore>, stream: TcpStream) {
    // Back to blocking I/O for the connection itself (the listener's
    // non-blocking flag is inherited on some platforms).
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let conn_id = core.next_conn_id.fetch_add(1, Ordering::Relaxed);
    if let Ok(clone) = stream.try_clone() {
        core.conns.lock().push((conn_id, clone));
    }
    core.live_conns.fetch_add(1, Ordering::AcqRel);
    let conn_core = Arc::clone(core);
    let spawned = std::thread::Builder::new().name("fg-server-conn".into()).spawn(move || {
        let _guard = ConnGuard { core: Arc::clone(&conn_core), id: conn_id };
        let _ = stream.set_read_timeout(conn_core.config.sniff_timeout());
        let mut first = [0u8; 4];
        let mut filled = 0;
        // Read exactly 4 bytes to classify the dialect. HTTP request lines
        // are always longer than 4 bytes, so this never stalls a scraper.
        while filled < first.len() {
            match (&stream).read(&mut first[filled..]) {
                Ok(0) => return,
                Ok(n) => filled += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    // Sniff deadline: the peer never revealed its dialect.
                    conn_core.stats.connections_timed_out.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Err(_) => return, // reset
            }
        }
        let _ = stream.set_read_timeout(None);
        if first == MAGIC {
            crate::conn::run_binary_connection(conn_core, stream);
        } else {
            crate::http::run_http_connection(&conn_core, stream, &first);
        }
    });
    match spawned {
        Ok(handle) => {
            let mut threads = core.conn_threads.lock();
            // Prune handles whose connections already wound down (finished
            // threads need no join; dropping detaches them post-mortem).
            threads.retain(|thread| !thread.is_finished());
            threads.push(handle);
        }
        Err(_) => {
            // The thread never ran, so its guard never will: undo here.
            core.conns.lock().retain(|(id, _)| *id != conn_id);
            core.live_conns.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

#[cfg(test)]
mod tests {
    use fg_metrics::{family, PoolSnapshot, ServiceSnapshot};
    use fg_trace::TraceStats;

    use super::*;

    /// Every field of the service, pool, trace sink and server figures
    /// reaches `/metrics` as exactly one sample, under a name no other
    /// family uses. Each field holds a distinct value; a field with no
    /// family, or with two, changes how often its value is sampled.
    #[test]
    fn every_field_reaches_metrics_exactly_once() {
        let service = ServiceSnapshot {
            submitted: 1,
            admitted: 2,
            rejected: 3,
            cache_hits: 4,
            cache_misses: 5,
            batches_dispatched: 6,
            queries_batched: 7,
            max_batch_occupancy: 8,
            max_batch_workers: 9,
            mixed_runs: 10,
            mutations_applied: 11,
            cache_invalidations: 12,
            incremental_runs: 13,
            epochs_advanced: 14,
            partitions_rematerialized: 15,
            partitions_shared: 16,
            snapshots_reclaimed: 17,
            oldest_pinned_epoch_lag: 18,
            queue_depth: 19,
            max_queue_depth: 20,
            latency_p50: Duration::from_secs(21),
            latency_p99: Duration::from_secs(22),
            latency_samples: 23,
        };
        let pool = PoolSnapshot {
            threads_spawned: 24,
            dispatches: 25,
            parks: 26,
            unparks: 27,
            mailboxes_reused: 28,
            mailboxes_rebuilt: 29,
        };
        let trace = TraceStats { threads: 30, retained: 31, dropped: 32, lane_capacity: 33 };
        let server = ServerStats {
            connections_accepted: AtomicU64::new(34),
            connections_rejected: AtomicU64::new(35),
            frames_in: AtomicU64::new(36),
            frames_out: AtomicU64::new(37),
            protocol_errors: AtomicU64::new(38),
            retry_afters: AtomicU64::new(39),
            http_requests: AtomicU64::new(40),
            connections_timed_out: AtomicU64::new(41),
        };
        let mut body = String::new();
        for families in [service.families(), pool.families(), trace.families(), server.families()] {
            family::expose(&mut body, &families);
        }
        let samples: Vec<(&str, &str)> = body
            .lines()
            .filter(|line| !line.starts_with('#'))
            .map(|line| line.split_once(' ').expect("name and value"))
            .collect();
        assert_eq!(samples.len(), 41, "{body}");
        for value in 1..=41 {
            let carriers = samples.iter().filter(|(_, v)| *v == value.to_string()).count();
            assert_eq!(carriers, 1, "value {value} is sampled {carriers} times in:\n{body}");
        }
        let mut names: Vec<&str> = samples.iter().map(|(name, _)| *name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), samples.len(), "a family name is used twice in:\n{body}");
    }

    #[test]
    fn sniff_timeout_is_the_tighter_of_the_two_guards() {
        let mut config = ServerConfig {
            idle_timeout: Some(Duration::from_secs(60)),
            read_deadline: Some(Duration::from_secs(10)),
            ..ServerConfig::default()
        };
        assert_eq!(config.sniff_timeout(), Some(Duration::from_secs(10)));

        config.read_deadline = None;
        assert_eq!(config.sniff_timeout(), Some(Duration::from_secs(60)));

        config.idle_timeout = None;
        config.read_deadline = Some(Duration::from_secs(3));
        assert_eq!(config.sniff_timeout(), Some(Duration::from_secs(3)));

        config.read_deadline = None;
        assert_eq!(config.sniff_timeout(), None);
    }
}
