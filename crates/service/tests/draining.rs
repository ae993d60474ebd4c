//! Pins the service's drain state: `begin_drain` must reject *new* submits
//! with a typed [`ServiceError::ShuttingDown`] while every already-admitted
//! ticket still resolves — the contract the network front door's graceful
//! shutdown is built on (stop admitting first, flush connections, then
//! `shutdown`).

use std::sync::Arc;
use std::time::Duration;

use fg_graph::partition::{PartitionConfig, PartitionMethod};
use fg_graph::partitioned::PartitionedGraph;
use fg_graph::{gen, Dist};
use fg_service::{ForkGraphService, Query, ServiceConfig, ServiceError};
use forkgraph_core::EngineConfig;

fn small_graph() -> Arc<PartitionedGraph> {
    let graph = gen::rmat(8, 8, 7).with_random_weights(9, 7);
    Arc::new(PartitionedGraph::build(
        &graph,
        PartitionConfig::with_partitions(PartitionMethod::Multilevel, 4),
    ))
}

#[test]
fn drain_rejects_new_submits_but_resolves_admitted_tickets() {
    let graph = small_graph();
    // A long batch window so tickets submitted now are still pending when
    // drain flips — the drain must not reject them retroactively.
    let config = ServiceConfig {
        batch_window: Duration::from_millis(100),
        cache_capacity: 0,
        ..ServiceConfig::default()
    };
    let service = ForkGraphService::start(graph, EngineConfig::default(), config);
    let handle = service.handle();

    assert!(!service.is_draining());
    let admitted: Vec<_> = (0..8)
        .map(|v| handle.submit_query(Query::kernel("sssp").source(v)).expect("admitted pre-drain"))
        .collect();

    service.begin_drain();
    assert!(service.is_draining());
    assert!(handle.is_draining());

    // New work is shed with the typed drain error, not Saturated and not a
    // hang.
    match handle.submit_query(Query::kernel("sssp").source(1)) {
        Err(ServiceError::ShuttingDown) => {}
        other => panic!("draining submit should fail ShuttingDown, got {other:?}"),
    }

    // Everything admitted before the drain still resolves successfully.
    for (v, ticket) in admitted.iter().enumerate() {
        let result = ticket
            .wait_timeout(Duration::from_secs(10))
            .expect("admitted ticket resolves during drain")
            .expect("admitted ticket resolves Ok");
        let distances = result.try_state::<Vec<Dist>>().expect("sssp result");
        assert_eq!(distances[v], 0, "source distance is zero");
    }

    // Drain is idempotent, and shutdown after a drain is clean.
    service.begin_drain();
    service.shutdown();
}

#[test]
fn drain_with_empty_queue_does_not_wedge_shutdown() {
    let service =
        ForkGraphService::start(small_graph(), EngineConfig::default(), ServiceConfig::default());
    // Nothing queued: begin_drain must leave the batcher in a state where
    // shutdown still joins promptly (the drain notification wakes it).
    service.begin_drain();
    service.shutdown();
}

#[test]
fn cache_hits_are_still_served_while_draining() {
    let graph = small_graph();
    let config = ServiceConfig { cache_capacity: 64, ..ServiceConfig::default() };
    let service = ForkGraphService::start(graph, EngineConfig::default(), config);
    let handle = service.handle();

    let query = || Query::kernel("bfs").source(3);
    let warm = handle.submit_query(query()).unwrap().wait().expect("warmup query");
    service.begin_drain();
    // The cached result costs no engine work; serving it while connections
    // wind down is deliberate (documented on `begin_drain`).
    let hit = handle.submit_query(query()).expect("cache hit during drain").wait().unwrap();
    assert!(Arc::ptr_eq(&warm, &hit), "drain-time answer is the cached result");
    // A cold query is still rejected.
    match handle.submit_query(Query::kernel("bfs").source(4)) {
        Err(ServiceError::ShuttingDown) => {}
        other => panic!("cold draining submit should fail ShuttingDown, got {other:?}"),
    }
    service.shutdown();
}
