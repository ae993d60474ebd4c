//! The HTTP/1.1 GET surface on the shared listener: `/healthz`, `/metrics`
//! (Prometheus text exposition with both `fg_service_*` and `fg_server_*`
//! families, never NaN), and `/trace` (Chrome trace JSON that
//! `fg_trace::chrome::parse` accepts). Also pins the dialect sniffing: HTTP
//! and binary clients coexist on one port.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use fg_graph::gen;
use fg_graph::mutation::VersionedGraph;
use fg_graph::partition::{PartitionConfig, PartitionMethod};
use fg_graph::partitioned::PartitionedGraph;
use fg_server::{ForkGraphServer, Request, Response, ServerConfig, WireClient, WirePayload};
use fg_service::{EdgeMutation, ForkGraphService, ServiceConfig};
use fg_trace::TraceSink;
use forkgraph_core::{EngineConfig, ForkGraphEngine};

fn small_graph() -> Arc<PartitionedGraph> {
    let graph = gen::rmat(8, 8, 11).with_random_weights(9, 11);
    Arc::new(PartitionedGraph::build(
        &graph,
        PartitionConfig::with_partitions(PartitionMethod::Multilevel, 4),
    ))
}

fn traced_server() -> ForkGraphServer {
    let service = ForkGraphService::start_traced(
        small_graph(),
        EngineConfig::default(),
        ServiceConfig { batch_window: Duration::from_millis(2), ..ServiceConfig::default() },
        TraceSink::new(),
    );
    ForkGraphServer::start(service, ServerConfig::default()).expect("bind loopback")
}

/// A deliberately bare HTTP/1.0-style GET: returns (status_code, body).
fn http_request(addr: std::net::SocketAddr, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse::<u16>().ok())
        .unwrap_or_else(|| panic!("unparseable response: {raw:?}"));
    let body = raw.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    (status, body)
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    http_request(addr, &format!("GET {path} HTTP/1.1\r\nHost: fg\r\nConnection: close\r\n\r\n"))
}

#[test]
fn healthz_reports_ok_then_draining() {
    let server = traced_server();
    let addr = server.local_addr();
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(body.trim(), "ok");

    server.begin_drain();
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200, "a draining server still answers health probes");
    assert_eq!(body.trim(), "draining");
    server.shutdown();
}

#[test]
fn metrics_expose_service_and_server_families_without_nan() {
    let server = traced_server();
    let addr = server.local_addr();

    // Push some traffic through both dialects so the counters move.
    let mut client = WireClient::connect(addr).expect("connect wire");
    for i in 0..4 {
        match client.call(&Request::new(i + 1, "sssp", i), |_| {}).expect("call") {
            Response::Result { payload: WirePayload::U64s(_), .. } => {}
            other => panic!("expected sssp result, got {other:?}"),
        }
    }

    let (status, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    for family in [
        "fg_service_submitted_total",
        "fg_service_admitted_total",
        "fg_server_connections_accepted_total",
        "fg_server_frames_in_total",
        "fg_server_frames_out_total",
        "fg_server_http_requests_total",
    ] {
        assert!(body.contains(family), "missing family {family} in:\n{body}");
    }
    assert!(!body.contains("NaN"), "exposition must never contain NaN:\n{body}");
    // One line format for every family, the server's own included: each
    // sample line follows its own TYPE line.
    let lines: Vec<&str> = body.lines().collect();
    for (i, line) in lines.iter().enumerate().filter(|(_, l)| !l.starts_with('#')) {
        let name = line.split(' ').next().unwrap();
        let previous = if i > 0 { lines[i - 1] } else { "" };
        assert!(
            previous.starts_with(&format!("# TYPE {name} ")),
            "sample {line:?} does not follow its TYPE line (got {previous:?})"
        );
    }
    // The wire counters reflect the traffic we just generated.
    let frames_in = sample(&body, "fg_server_frames_in_total");
    assert!(frames_in >= 4, "four requests crossed the wire, got {frames_in}");
    server.shutdown();
}

/// The value of the counter `name` in an exposition body.
fn sample(body: &str, name: &str) -> u64 {
    body.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|value| value.parse().ok())
        .unwrap_or_else(|| panic!("no {name} sample in:\n{body}"))
}

/// A delete over the wire, then a re-query of the key it made stale: the
/// re-query resumes from the stale cached answer, and `/metrics` says so.
#[test]
fn metrics_count_a_repaired_delete_as_an_incremental_run() {
    let server = traced_server();
    let addr = server.local_addr();
    let mut client = WireClient::connect(addr).expect("connect wire");
    let sssp_from_0 = |client: &mut WireClient, correlation| match client
        .call(&Request::new(correlation, "sssp", 0), |_| {})
        .expect("call")
    {
        Response::Result { payload: WirePayload::U64s(dist), .. } => dist,
        other => panic!("expected sssp result, got {other:?}"),
    };
    let before = sssp_from_0(&mut client, 1);
    // An out-edge on a shortest path, so the delete has a cone to repair.
    let graph = small_graph();
    let (v, _) = graph.graph().out_edges(0).find(|&(v, w)| before[v as usize] == w as u64).unwrap();
    match client.mutate(EdgeMutation::Delete { u: 0, v }, |_| {}).expect("mutate") {
        Response::Result { payload: WirePayload::Version(_), .. } => {}
        other => panic!("expected a version ack, got {other:?}"),
    }
    let after = sssp_from_0(&mut client, 3);
    let store = VersionedGraph::new(graph);
    store.delete_edge(0, v).unwrap();
    let mutated = store.advance().unwrap().graph;
    let engine = ForkGraphEngine::new(&mutated, EngineConfig::default());
    assert_eq!(after, engine.run_sssp(&[0]).per_query[0], "the resumed answer is exact");

    let (status, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert_eq!(sample(&body, "fg_service_mutations_applied_total"), 1, "{body}");
    assert!(sample(&body, "fg_service_cache_invalidations_total") >= 1, "{body}");
    assert!(sample(&body, "fg_service_incremental_runs_total") >= 1, "{body}");
    server.shutdown();
}

#[test]
fn trace_endpoint_serves_parseable_chrome_json() {
    let server = traced_server();
    let addr = server.local_addr();
    let mut client = WireClient::connect(addr).expect("connect wire");
    client.call(&Request::new(1, "bfs", 0), |_| {}).expect("warm the trace");

    let (status, body) = http_get(addr, "/trace");
    assert_eq!(status, 200);
    let events = fg_trace::chrome::parse(&body).expect("valid Chrome trace JSON");
    assert!(!events.is_empty(), "a served query leaves trace events");
    server.shutdown();
}

#[test]
fn trace_endpoint_is_404_without_tracing() {
    let service =
        ForkGraphService::start(small_graph(), EngineConfig::default(), ServiceConfig::default());
    let server = ForkGraphServer::start(service, ServerConfig::default()).expect("bind");
    let (status, body) = http_get(server.local_addr(), "/trace");
    assert_eq!(status, 404);
    assert!(body.contains("start_traced"), "the 404 says how to enable tracing");
    server.shutdown();
}

#[test]
fn unknown_paths_and_methods_get_typed_statuses() {
    let server = traced_server();
    let addr = server.local_addr();
    let (status, _) = http_get(addr, "/nope");
    assert_eq!(status, 404);
    let (status, _) =
        http_request(addr, "POST /metrics HTTP/1.1\r\nHost: fg\r\nConnection: close\r\n\r\n");
    assert_eq!(status, 405);
    // Query strings are tolerated on known paths.
    let (status, _) = http_get(addr, "/metrics?cachebust=1");
    assert_eq!(status, 200);
    server.shutdown();
}
