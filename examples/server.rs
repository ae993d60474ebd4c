//! `server` — the network front door, end to end over loopback TCP, and the
//! repository's serving check: CI runs it with every other example.
//!
//! Two modes, one server (the same graph, service and configuration):
//!
//! * **Demo** (default): start a traced service + [`ForkGraphServer`] on an
//!   ephemeral loopback port, drive it with four concurrent pipelining
//!   [`WireClient`] connections (mixed SSSP/BFS), verify every wire response
//!   against a direct one-worker engine oracle, check the HTTP surface on
//!   the *same* port — `/healthz`; `/metrics` (status line,
//!   `Content-Length`, no `NaN`, every service, pool, trace and server
//!   family, and a non-zero `fg_pool_dispatches_total`: the wire load ran
//!   on the worker pool); `/trace` (parseable Chrome JSON with spans) — and shut down
//!   gracefully. Exits non-zero on any mismatch.
//!
//! * **Listen** (`--listen [host:port]`, default `127.0.0.1:7071`): serve
//!   until killed, for manual poking:
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

use forkgraph::metrics::{PoolSnapshot, ServiceSnapshot};
use forkgraph::prelude::*;
use forkgraph::trace::{TraceSink, TraceStats};

const CLIENTS: usize = 4;
const QUERIES_PER_CLIENT: u32 = 16;

/// The front door's own `/metrics` families; the service, pool and trace
/// families come from their snapshots' `families()`.
const SERVER_FAMILIES: [&str; 8] = [
    "fg_server_connections_accepted_total",
    "fg_server_connections_rejected_total",
    "fg_server_frames_in_total",
    "fg_server_frames_out_total",
    "fg_server_protocol_errors_total",
    "fg_server_retry_after_total",
    "fg_server_http_requests_total",
    "fg_server_connections_timed_out_total",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = args.iter().position(|a| a == "--listen") {
        let addr = args.get(pos + 1).cloned().unwrap_or_else(|| "127.0.0.1:7071".to_string());
        listen(&addr);
    } else {
        demo();
    }
}

/// Build the demo graph and serve it, traced (so `/trace` works), on `addr`.
fn start(addr: &str) -> (Arc<PartitionedGraph>, ForkGraphServer) {
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
    let service = ForkGraphService::start_traced(
        Arc::clone(&partitioned),
        EngineConfig::default().with_threads(4),
        ServiceConfig { batch_window: Duration::from_millis(3), ..ServiceConfig::default() },
        TraceSink::new(),
    );
    let server = ForkGraphServer::start(
        service,
        ServerConfig { addr: addr.to_string(), ..ServerConfig::default() },
    )
    .unwrap_or_else(|e| panic!("cannot bind {addr}: {e}"));
    println!("listening on {} (binary protocol + HTTP on one port)\n", server.local_addr());
    (partitioned, server)
}

/// Long-running mode: serve until killed.
fn listen(addr: &str) {
    let (_, server) = start(addr);
    println!("  binary protocol : connect + magic FGW1 (see fg_server::WireClient)");
    println!(
        "  observability   : curl http://{}/metrics (and /healthz, /trace)",
        server.local_addr()
    );
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// Self-checking demo: four pipelining clients, oracle-verified, plus the
/// HTTP surface, then a graceful shutdown.
fn demo() {
    let (partitioned, server) = start("127.0.0.1:0");
    let addr = server.local_addr();

    // The one-worker engine oracle every wire response is checked against.
    let oracle = ForkGraphEngine::new(&partitioned, EngineConfig::default());
    let n = partitioned.graph().num_vertices() as u32;

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
        "verified {verified}/{} wire responses against the one-worker engine oracle",
        CLIENTS * QUERIES_PER_CLIENT as usize
    );
    assert_eq!(verified, CLIENTS * QUERIES_PER_CLIENT as usize);

    // --- The HTTP dialect on the same port. -------------------------------
    let health = http_get(addr, "/healthz");
    assert!(health.contains("ok"), "healthz: {health}");

    let metrics = http_get(addr, "/metrics");
    assert!(!metrics.contains("NaN"), "/metrics contains NaN:\n{metrics}");
    println!("\n/metrics (excerpt):");
    let sample = |family: &str| -> f64 {
        let value = metrics
            .lines()
            .find_map(|l| l.strip_prefix(family)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("/metrics is missing family {family}"));
        println!("  {family} {value}");
        value.parse().expect("numeric sample")
    };
    let snapshot_families = [
        ServiceSnapshot::default().families(),
        PoolSnapshot::default().families(),
        TraceStats::default().families(),
    ];
    for family in snapshot_families.iter().flatten().map(|family| family.name) {
        sample(family);
    }
    for family in SERVER_FAMILIES {
        sample(family);
    }
    assert!(sample("fg_pool_dispatches_total") > 0.0, "the wire load never ran on the worker pool");

    let trace = http_get(addr, "/trace");
    let events = forkgraph::trace::chrome::parse(&trace).expect("valid Chrome trace");
    let spans = events.iter().filter(|e| e.ph == "B").count();
    assert!(spans > 0, "/trace holds no spans ({} events)", events.len());
    println!("\n/trace: {} events, {spans} spans (load it in chrome://tracing)", events.len());

    // --- Graceful shutdown drains connections and the service. ------------
    server.shutdown();
    println!("\nserver drained and shut down cleanly");
}

/// Minimal HTTP GET: asserts a `200 OK` whose `Content-Length` matches the
/// body, and returns the body.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect http");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: fg\r\nConnection: close\r\n\r\n").expect("write");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    let (head, body) = raw.split_once("\r\n\r\n").unwrap_or_else(|| panic!("{path}: no body"));
    assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{path}: {head}");
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|value| value.parse().ok())
        .unwrap_or_else(|| panic!("{path}: no Content-Length in {head}"));
    assert_eq!(length, body.len(), "{path}: Content-Length disagrees with the body");
    body.to_string()
}
