//! On one pipelined connection a cache hit overtakes a cold run: the wire
//! answers in completion order, not submission order.

mod common;

use std::sync::Arc;
use std::time::Duration;

use forkgraph::graph::gen;
use forkgraph::prelude::*;

#[test]
fn a_cache_hit_overtakes_a_cold_run_on_one_connection() {
    let graph = gen::rmat(8, 8, 5).with_random_weights(8, 5);
    let pg = Arc::new(PartitionedGraph::build(
        &graph,
        PartitionConfig::with_partitions(PartitionMethod::Chunked, 4),
    ));
    let service = ForkGraphService::start(
        pg,
        EngineConfig::default(),
        ServiceConfig { batch_window: Duration::from_millis(1), ..ServiceConfig::default() },
    );
    let gate = common::register_gated_bfs(&service.handle());

    // Warm one SSSP key in-process, so the wire query for it is a cache hit.
    let warm = 3;
    service.handle().submit_query(Query::kernel("sssp").source(warm)).unwrap().wait().unwrap();
    let server = ForkGraphServer::start(service, ServerConfig::default()).expect("bind loopback");

    // The gated cold query first, then the warm key, on one connection.
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    client.send_request(&Request::new(1, "gated_bfs", 0)).unwrap();
    client.send_request(&Request::new(2, "sssp", warm)).unwrap();
    client.flush().unwrap();

    let first = client.recv().unwrap();
    assert!(!gate.is_open(), "the warm key was answered only after the gated run: {first:?}");
    match first {
        Response::Result { correlation: 2, payload: WirePayload::U64s(dist) } => {
            assert_eq!(dist, dijkstra(&graph, warm).dist);
        }
        other => panic!("expected the warm sssp answer first, got {other:?}"),
    }

    gate.open();
    match client.recv().unwrap() {
        Response::Result { correlation: 1, payload: WirePayload::U32s(levels) } => {
            assert_eq!(levels, forkgraph::seq::bfs::bfs(&graph, 0).level);
        }
        other => panic!("expected the gated bfs answer, got {other:?}"),
    }
    server.shutdown();
}
