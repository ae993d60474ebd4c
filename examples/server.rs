//! `server` — the network front door, end to end over loopback TCP.
//!
//! Two modes:
//!
//! * **Demo** (default): start a traced service + [`ForkGraphServer`] on an
//!   ephemeral loopback port, drive it with four concurrent pipelining
//!   [`WireClient`] connections (mixed SSSP/BFS), verify every wire response
//!   against a direct one-worker engine oracle, scrape `/metrics` and `/healthz` over
//!   plain HTTP on the *same* port, dump the Chrome trace, and shut down
//!   gracefully. Exits non-zero on any mismatch — CI runs this.
//!
//! * **Listen** (`--listen [host:port]`, default `127.0.0.1:7071`): serve the
//!   deterministic `fg_bench::wire::workload` graph until killed, for
//!   external load generators (`repro --wire-smoke --addr host:port`) and
//!   manual poking:
//!
//! ```text
//! cargo run --release --example server                      # self-checking demo
//! cargo run --release --example server -- --listen          # long-running server
//! curl http://127.0.0.1:7071/metrics                        # same port, HTTP dialect
//! ```

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use forkgraph::prelude::*;
use forkgraph::trace::TraceSink;

const CLIENTS: usize = 4;
const QUERIES_PER_CLIENT: u32 = 16;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = args.iter().position(|a| a == "--listen") {
        let addr = args.get(pos + 1).cloned().unwrap_or_else(|| "127.0.0.1:7071".to_string());
        listen(&addr);
    } else {
        demo();
    }
}

/// Long-running mode: serve the smoke workload (traced, so `/trace` works
/// against the live server) until killed.
fn listen(addr: &str) {
    let server = fg_bench::wire::start_smoke_server(fg_bench::wire::Scale::FULL, addr)
        .unwrap_or_else(|e| panic!("cannot bind {addr}: {e}"));
    println!("serving smoke workload on {}", server.local_addr());
    println!("  binary protocol : connect + magic FGW1 (see fg_server::WireClient)");
    println!(
        "  observability   : curl http://{}/metrics (and /healthz, /trace)",
        server.local_addr()
    );
    // Daemon mode, killed externally (CI kills the whole process).
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// Self-checking demo: four pipelining clients, oracle-verified, plus the
/// HTTP surface, then a graceful shutdown.
fn demo() {
    let graph = forkgraph::graph::gen::rmat(12, 8, 42).with_random_weights(8, 42);
    let partitioned = Arc::new(PartitionedGraph::build(
        &graph,
        PartitionConfig::with_partitions(PartitionMethod::Multilevel, 12),
    ));
    println!(
        "graph: {} vertices, {} edges, {} partitions",
        graph.num_vertices(),
        graph.num_edges(),
        partitioned.num_partitions()
    );

    let sink = TraceSink::new();
    let service = ForkGraphService::start_traced(
        Arc::clone(&partitioned),
        EngineConfig::default().with_threads(4),
        ServiceConfig { batch_window: Duration::from_millis(3), ..ServiceConfig::default() },
        Arc::clone(&sink),
    );
    let server = ForkGraphServer::start(service, ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr();
    println!("listening on {addr} (binary protocol + HTTP on one port)\n");

    // The one-worker engine oracle every wire response is checked against.
    let oracle = ForkGraphEngine::new(&partitioned, EngineConfig::default());
    let n = graph.num_vertices() as u32;

    // --- Four concurrent pipelining connections. --------------------------
    let verified: usize = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let oracle = &oracle;
                scope.spawn(move || {
                    let mut client = WireClient::connect(addr).expect("connect");
                    let mut sent: Vec<Request> = Vec::new();
                    for i in 0..QUERIES_PER_CLIENT {
                        let source = (c as u32 * 131 + i * 17) % n;
                        let correlation = i + 1;
                        let request = if i % 2 == 0 {
                            Request::new(correlation, "sssp", source)
                        } else {
                            Request::new(correlation, "bfs", source)
                        };
                        client.send_request(&request).expect("send");
                        sent.push(request);
                    }
                    client.flush().expect("flush");

                    // Responses arrive in completion order; match them up by
                    // correlation ID and verify against the oracle.
                    let mut responses: HashMap<u32, Response> = HashMap::new();
                    while responses.len() < sent.len() {
                        let response = client.recv().expect("recv");
                        responses.insert(response.correlation(), response);
                    }
                    let mut checked = 0;
                    for request in sent {
                        let response = responses.remove(&request.correlation).unwrap();
                        let payload = match response {
                            Response::Result { payload, .. } => payload,
                            other => panic!("query {request:?} failed: {other:?}"),
                        };
                        let matches = match request.kernel.as_str() {
                            "sssp" => {
                                payload
                                    == WirePayload::U64s(
                                        oracle.run_sssp(&[request.source]).per_query[0].clone(),
                                    )
                            }
                            _ => {
                                payload
                                    == WirePayload::U32s(
                                        oracle.run_bfs(&[request.source]).per_query[0].clone(),
                                    )
                            }
                        };
                        assert!(matches, "wire result for {request:?} diverged from the oracle");
                        checked += 1;
                    }
                    checked
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    println!(
        "verified {verified}/{} wire responses against the serial oracle",
        CLIENTS * QUERIES_PER_CLIENT as usize
    );
    assert_eq!(verified, CLIENTS * QUERIES_PER_CLIENT as usize);

    // --- The HTTP dialect on the same port. -------------------------------
    let health = http_get(addr, "/healthz");
    assert!(health.contains("ok"), "healthz: {health}");
    let metrics = http_get(addr, "/metrics");
    for family in ["fg_service_admitted_total", "fg_server_frames_out_total"] {
        assert!(metrics.contains(family), "missing {family}");
    }
    let interesting: Vec<&str> = metrics
        .lines()
        .filter(|l| {
            !l.starts_with('#')
                && (l.starts_with("fg_service_admitted")
                    || l.starts_with("fg_service_batches")
                    || l.starts_with("fg_server_"))
        })
        .collect();
    println!("\n/metrics (excerpt):");
    for line in interesting {
        println!("  {line}");
    }

    let trace = http_get(addr, "/trace");
    let events = forkgraph::trace::chrome::parse(&trace).expect("valid Chrome trace");
    println!("\n/trace: {} events (load it in chrome://tracing)", events.len());

    // --- Graceful shutdown drains connections and the service. ------------
    server.shutdown();
    println!("\nserver drained and shut down cleanly");
}

/// Minimal HTTP GET returning the response body.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect http");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: fg\r\nConnection: close\r\n\r\n").expect("write");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    raw.split("\r\n\r\n").nth(1).unwrap_or("").to_string()
}
