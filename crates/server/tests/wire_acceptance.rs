//! End-to-end acceptance of the network front door, over real loopback
//! sockets:
//!
//! 1. N concurrent connections, each **pipelining** a mix of SSSP, BFS, and
//!    a custom registered kernel, get results **byte-identical** to a direct
//!    one-worker engine oracle — the wire adds no semantics.
//! 2. Saturation produces retry-after frames and the connection survives to
//!    resubmit successfully.
//! 3. Graceful shutdown answers every admitted correlation ID before the
//!    sockets close.
//! 4. Garbage, oversized, and reserved-correlation frames produce typed
//!    error frames without desynchronising or killing the connection.
//! 5. A result whose frame would exceed the server's cap is answered with a
//!    typed error for its correlation, and the connection keeps serving.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fg_graph::gen;
use fg_graph::partition::{PartitionConfig, PartitionMethod};
use fg_graph::partitioned::PartitionedGraph;
use fg_graph::{AdjacencyView, CsrGraph, Dist, VertexId, INF_DIST};
use fg_server::protocol::encode_request;
use fg_server::{
    ForkGraphServer, Request, Response, ServerConfig, WireClient, WireErrorCode, WirePayload,
};
use fg_service::{ForkGraphService, InstantiatedKernel, ParamError, QueryParams, ServiceConfig};
use forkgraph_core::kernel::FppKernel;
use forkgraph_core::operation::Priority;
use forkgraph_core::{erase, EngineConfig, ForkGraphEngine};

fn graphs(seed: u64) -> (CsrGraph, Arc<PartitionedGraph>) {
    let g = gen::erdos_renyi(300, 2200, seed).with_random_weights(8, seed);
    let pg = Arc::new(PartitionedGraph::build(
        &g,
        PartitionConfig::with_partitions(PartitionMethod::Multilevel, 6),
    ));
    (g, pg)
}

// --- A custom kernel registered only in this test: capped-hop distances. ---

/// Weighted shortest distance using at most `k` hops (min-lattice DP ⇒ one
/// fixpoint regardless of schedule, so results are byte-stable).
struct HopCapKernel {
    k: u32,
}

impl FppKernel for HopCapKernel {
    type Value = (Dist, u32);
    type State = Vec<Dist>;

    fn name(&self) -> &'static str {
        "hopcap-test"
    }

    fn init_state(&self, graph: &CsrGraph, _source: VertexId) -> Self::State {
        vec![INF_DIST; graph.num_vertices() * (self.k as usize + 1)]
    }

    fn source_op(&self, _source: VertexId) -> (Self::Value, Priority) {
        ((0, 0), 0)
    }

    fn process(
        &self,
        graph: &AdjacencyView<'_>,
        state: &mut Self::State,
        vertex: VertexId,
        (dist, hops): Self::Value,
        _priority: Priority,
        emit: &mut dyn FnMut(VertexId, Self::Value, Priority),
    ) -> u64 {
        let stride = self.k as usize + 1;
        let base = vertex as usize * stride;
        if dist >= state[base + hops as usize] {
            return 0;
        }
        for h in hops as usize..stride {
            if dist < state[base + h] {
                state[base + h] = dist;
            }
        }
        if hops == self.k {
            return 0;
        }
        let mut edges = 0u64;
        for (t, w) in graph.out_edges(vertex) {
            edges += 1;
            let nd = dist + w as Dist;
            if nd < state[t as usize * stride + hops as usize + 1] {
                emit(t, (nd, hops + 1), nd);
            }
        }
        edges
    }
}

fn hopcap_factory(params: &QueryParams) -> Result<InstantiatedKernel, ParamError> {
    params.ensure_known(&["k"])?;
    let k = params.u64_or("k", 3)?;
    if k == 0 || k > 64 {
        return Err(ParamError::new(format!("parameter \"k\" must be in 1..=64, got {k}")));
    }
    Ok(InstantiatedKernel::new(
        erase(HopCapKernel { k: k as u32 }),
        QueryParams::new().with("k", k),
    ))
}

/// Serial oracle for the custom kernel: k rounds of Bellman–Ford, then the
/// full DP table the kernel serves (distance per vertex per hop budget).
fn hopcap_oracle(graph: &CsrGraph, source: VertexId, k: u32) -> Vec<Dist> {
    let n = graph.num_vertices();
    let stride = k as usize + 1;
    let mut table = vec![INF_DIST; n * stride];
    table[source as usize * stride] = 0;
    for h in 1..stride {
        for v in 0..n {
            table[v * stride + h] = table[v * stride + h - 1];
        }
        for v in 0..n as u32 {
            let from = table[v as usize * stride + h - 1];
            if from == INF_DIST {
                continue;
            }
            for (t, w) in graph.out_edges(v) {
                let nd = from + w as Dist;
                if nd < table[t as usize * stride + h] {
                    table[t as usize * stride + h] = nd;
                }
            }
        }
    }
    table
}

fn start_server(service: ForkGraphService, config: ServerConfig) -> ForkGraphServer {
    ForkGraphServer::start(service, config).expect("bind loopback")
}

#[test]
fn pipelined_mixed_queries_are_byte_identical_to_the_one_worker_oracle() {
    let (g, pg) = graphs(331);
    let service = ForkGraphService::start(
        Arc::clone(&pg),
        EngineConfig::default().with_threads(4),
        ServiceConfig {
            batch_window: Duration::from_millis(10),
            cache_capacity: 256,
            ..ServiceConfig::default()
        },
    );
    service.handle().register_kernel("hopcap", hopcap_factory).unwrap();
    let server = start_server(service, ServerConfig::default());
    let addr = server.local_addr();

    // The one-worker in-process oracle.
    let direct = ForkGraphEngine::new(&pg, EngineConfig::default());
    let k = 4u64;

    const CLIENTS: usize = 5; // issue floor is N >= 4
    const QUERIES_PER_CLIENT: u32 = 12;
    let collected: Vec<Vec<(Request, Response)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = WireClient::connect(addr).expect("connect");
                    // Pipeline everything first: a mixed burst of built-ins
                    // and the custom kernel from client-specific sources.
                    let mut sent: Vec<Request> = Vec::new();
                    for i in 0..QUERIES_PER_CLIENT {
                        let source = (c as u32 * 97 + i * 31) % 300;
                        let correlation = i + 1;
                        let request = match i % 3 {
                            0 => Request::new(correlation, "sssp", source),
                            1 => Request::new(correlation, "bfs", source),
                            _ => Request::new(correlation, "hopcap", source).param("k", k),
                        };
                        client.send_request(&request).expect("send");
                        sent.push(request);
                    }
                    client.flush().expect("flush");
                    // Collect responses in *whatever* order they arrive.
                    let mut responses: HashMap<u32, Response> = HashMap::new();
                    while responses.len() < sent.len() {
                        let response = client.recv().expect("recv");
                        let correlation = response.correlation();
                        assert!(
                            responses.insert(correlation, response).is_none(),
                            "duplicate response for correlation {correlation}"
                        );
                    }
                    sent.into_iter()
                        .map(|request| {
                            let response = responses.remove(&request.correlation).unwrap();
                            (request, response)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    let mut checked = 0usize;
    for per_client in collected {
        for (request, response) in per_client {
            let payload = match response {
                Response::Result { correlation, payload } => {
                    assert_eq!(correlation, request.correlation);
                    payload
                }
                other => panic!("expected a result for {request:?}, got {other:?}"),
            };
            match request.kernel.as_str() {
                "sssp" => {
                    let oracle = &direct.run_sssp(&[request.source]).per_query[0];
                    assert_eq!(
                        payload,
                        WirePayload::U64s(oracle.clone()),
                        "sssp {}",
                        request.source
                    );
                }
                "bfs" => {
                    let oracle = &direct.run_bfs(&[request.source]).per_query[0];
                    assert_eq!(
                        payload,
                        WirePayload::U32s(oracle.clone()),
                        "bfs {}",
                        request.source
                    );
                }
                "hopcap" => {
                    let oracle = hopcap_oracle(&g, request.source, k as u32);
                    assert_eq!(payload, WirePayload::U64s(oracle), "hopcap {}", request.source);
                }
                other => unreachable!("unexpected kernel {other}"),
            }
            checked += 1;
        }
    }
    assert_eq!(checked, CLIENTS * QUERIES_PER_CLIENT as usize);
    server.shutdown();
}

#[test]
fn saturation_sends_retry_after_and_the_connection_survives() {
    let (_, pg) = graphs(333);
    // A tiny queue and a long window: the pipelined burst must overflow
    // admission control while the first batch is still forming.
    let service = ForkGraphService::start(
        pg,
        EngineConfig::default(),
        ServiceConfig {
            batch_window: Duration::from_millis(300),
            max_batch_size: 4,
            max_queue_depth: 4,
            cache_capacity: 0,
        },
    );
    let server = start_server(service, ServerConfig::default());
    let mut client = WireClient::connect(server.local_addr()).expect("connect");

    const BURST: u32 = 32;
    for i in 0..BURST {
        client.send("sssp", i % 300).expect("send");
    }
    client.flush().expect("flush");

    let mut results = 0u32;
    let mut retries: Vec<(u32, u32)> = Vec::new(); // (correlation, retry_after_ms)
    for _ in 0..BURST {
        match client.recv().expect("recv") {
            Response::Result { .. } => results += 1,
            Response::RetryAfter { correlation, retry_after_ms, queue_depth, capacity } => {
                assert!(retry_after_ms > 0, "retry hint must be positive");
                assert_eq!(capacity, 4, "capacity echoes the service config");
                assert!(queue_depth >= capacity, "shed at or beyond capacity");
                retries.push((correlation, retry_after_ms));
            }
            other => panic!("saturated burst should yield results/retries, got {other:?}"),
        }
    }
    assert!(results >= 1, "some queries must still be admitted");
    assert!(!retries.is_empty(), "a 32-deep burst into a 4-deep queue must shed");

    // The shed queries retry successfully on the *same* connection once the
    // burst has drained — saturation never cost us the socket.
    for (correlation, _) in &retries {
        let request = Request::new(correlation + BURST, "sssp", *correlation % 300);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match client.call(&request, |_| {}).expect("retry call") {
                Response::Result { .. } => break,
                Response::RetryAfter { retry_after_ms, .. } => {
                    assert!(Instant::now() < deadline, "saturation never cleared");
                    std::thread::sleep(Duration::from_millis(retry_after_ms as u64));
                }
                other => panic!("retry should succeed or backoff, got {other:?}"),
            }
        }
    }
    server.shutdown();
}

#[test]
fn shutdown_answers_every_admitted_correlation() {
    let (_, pg) = graphs(335);
    let service = ForkGraphService::start(
        pg,
        EngineConfig::default(),
        // A long window so the burst is still pending when shutdown starts:
        // the drain (not luck) is what answers the tickets.
        ServiceConfig {
            batch_window: Duration::from_millis(200),
            cache_capacity: 0,
            ..ServiceConfig::default()
        },
    );
    let server = start_server(service, ServerConfig::default());

    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    const PIPELINED: u32 = 10;
    for i in 0..PIPELINED {
        client.send("bfs", (i * 13) % 300).expect("send");
    }
    client.flush().expect("flush");

    // Wait until the server has *admitted* the whole burst (shutting the
    // read half may discard unread bytes, so admission must come first for
    // the answered-correlations guarantee to be testable deterministically).
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.metrics().submitted < PIPELINED as u64 {
        assert!(Instant::now() < deadline, "burst never reached the service");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Shut down concurrently while responses are still outstanding.
    let shutdown = std::thread::spawn(move || server.shutdown());

    let mut answered = std::collections::HashSet::new();
    // recv() errors once the server closes after draining.
    while let Ok(response) = client.recv() {
        assert!(answered.insert(response.correlation()));
        if let Response::Error { code, .. } = response {
            // A drain-time rejection is an acceptable answer; silence is not.
            assert_eq!(code, WireErrorCode::ShuttingDown);
        }
    }
    assert_eq!(
        answered.len(),
        PIPELINED as usize,
        "every admitted correlation must be resolved or rejected before close"
    );
    shutdown.join().unwrap();
}

#[test]
fn malformed_frames_get_typed_errors_and_never_desync_the_stream() {
    let (_, pg) = graphs(337);
    let service = ForkGraphService::start(pg, EngineConfig::default(), ServiceConfig::default());
    let server =
        start_server(service, ServerConfig { max_frame_len: 4096, ..ServerConfig::default() });
    let mut client = WireClient::connect(server.local_addr()).expect("connect");

    // 1. Pure garbage body: typed connection-level protocol error.
    client.send_raw_frame(&[0xDE, 0xAD, 0xBE, 0xEF]).expect("send garbage");
    client.flush().expect("flush");
    match client.recv().expect("recv") {
        Response::Error { correlation: 0, code: WireErrorCode::Protocol, .. } => {}
        other => panic!("garbage should yield a connection-level protocol error, got {other:?}"),
    }

    // 2. Oversized frame: discarded server-side, answered, stream intact.
    client.send_raw_frame(&vec![0u8; 8192]).expect("send oversized");
    client.flush().expect("flush");
    match client.recv().expect("recv") {
        Response::Error { correlation: 0, code: WireErrorCode::Protocol, message } => {
            assert!(message.contains("8192"), "error names the declared length: {message}");
        }
        other => panic!("oversized frame should yield a protocol error, got {other:?}"),
    }

    // 3. Reserved correlation 0: rejected without touching the service.
    let reserved = Request::new(0, "sssp", 1);
    client.send_request(&reserved).expect("send reserved");
    client.flush().expect("flush");
    match client.recv().expect("recv") {
        Response::Error { correlation: 0, code: WireErrorCode::Protocol, .. } => {}
        other => panic!("correlation 0 must be rejected, got {other:?}"),
    }

    // 4. Service-level rejections stay per-correlation and typed.
    match client.call(&Request::new(70, "no-such-kernel", 0), |_| {}).expect("call") {
        Response::Error { correlation: 70, code: WireErrorCode::UnknownKernel, .. } => {}
        other => panic!("unknown kernel should be typed, got {other:?}"),
    }
    match client.call(&Request::new(71, "sssp", 5_000_000), |_| {}).expect("call") {
        Response::Error { correlation: 71, code: WireErrorCode::InvalidSource, .. } => {}
        other => panic!("out-of-range source should be typed, got {other:?}"),
    }

    // 5. After all that abuse the connection still answers real queries.
    match client.call(&Request::new(72, "sssp", 0), |_| {}).expect("call") {
        Response::Result { correlation: 72, payload: WirePayload::U64s(dist) } => {
            assert_eq!(dist[0], 0, "source distance is zero");
        }
        other => panic!("healthy query after abuse should succeed, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn retired_param_tags_get_a_typed_error_and_the_connection_stays_open() {
    let (_, pg) = graphs(341);
    let service = ForkGraphService::start(pg, EngineConfig::default(), ServiceConfig::default());
    let server = start_server(service, ServerConfig::default());
    let mut client = WireClient::connect(server.local_addr()).expect("connect");

    // Param tags 0 and 4 are unassigned: the frame is malformed, not the
    // query, so the answer is connection-level.
    for tag in [0u8, 4] {
        let mut body = encode_request(&Request::new(80, "sssp", 0).param("x", 1u64));
        let at = body.len() - 9; // the tag byte in front of the u64
        body[at] = tag;
        client.send_raw_frame(&body).expect("send");
        client.flush().expect("flush");
        match client.recv().expect("recv") {
            Response::Error { correlation: 0, code: WireErrorCode::Protocol, message } => {
                assert!(message.contains("unknown parameter tag"), "tag {tag}: {message}");
            }
            other => panic!("param tag {tag} should be a protocol error, got {other:?}"),
        }
    }
    match client.call(&Request::new(81, "sssp", 0), |_| {}).expect("call") {
        Response::Result { correlation: 81, payload: WirePayload::U64s(dist) } => {
            assert_eq!(dist[0], 0, "source distance is zero");
        }
        other => panic!("the connection should still answer, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn results_over_the_frame_cap_get_a_typed_error_and_the_connection_survives() {
    // 300 vertices: an SSSP answer is 300 u64s (about 2.4 KB), a BFS answer
    // 300 u32s (about 1.2 KB); the cap sits between them.
    let (_, pg) = graphs(347);
    let service = ForkGraphService::start(pg, EngineConfig::default(), ServiceConfig::default());
    let server =
        start_server(service, ServerConfig { max_frame_len: 2048, ..ServerConfig::default() });
    let mut client = WireClient::connect(server.local_addr()).expect("connect");

    match client.call(&Request::new(1, "sssp", 0), |_| {}).expect("call") {
        Response::Error { correlation: 1, code: WireErrorCode::UnsupportedResult, message } => {
            assert!(message.contains("2048"), "the error names the cap: {message}");
        }
        other => panic!("an SSSP answer over the cap should be a typed error, got {other:?}"),
    }
    match client.call(&Request::new(2, "bfs", 0), |_| {}).expect("call") {
        Response::Result { correlation: 2, payload: WirePayload::U32s(levels) } => {
            assert_eq!(levels.len(), 300);
            assert_eq!(levels[0], 0, "source level is zero");
        }
        other => panic!("a BFS answer under the cap should arrive, got {other:?}"),
    }
    server.shutdown();
}
