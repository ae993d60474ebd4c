//! The service counts each query where it handles it, under the queue lock:
//! a waiter woken by its ticket already finds itself counted, a repeat is a
//! cache hit, a repeat after a mutation is a stale lookup, and the
//! batch-record ring stops growing at 1 024 entries.

use std::sync::Arc;
use std::time::Duration;

use forkgraph::core::EngineConfig;
use forkgraph::graph::gen;
use forkgraph::prelude::*;
use forkgraph::service::{EdgeMutation, ServiceConfig, ServiceHandle};

/// Submit one query and wait for it.
fn answer(handle: &ServiceHandle, source: VertexId) {
    handle.submit_query(Query::kernel("sssp").source(source)).unwrap().wait().unwrap();
}

#[test]
fn every_query_is_counted_before_its_ticket_resolves() {
    let graph = gen::rmat(11, 1, 7).with_random_weights(8, 7);
    let pg = Arc::new(PartitionedGraph::build(
        &graph,
        PartitionConfig::with_partitions(PartitionMethod::Multilevel, 4),
    ));
    let service = ForkGraphService::start(
        pg,
        EngineConfig::default(),
        ServiceConfig { batch_window: Duration::ZERO, cache_capacity: 2048, ..Default::default() },
    );
    let handle = service.handle();

    answer(&handle, 0);
    let m = service.metrics();
    assert_eq!((m.admitted, m.cache_misses, m.cache_hits), (1, 1, 0), "{m:?}");
    assert_eq!((m.batches_dispatched, m.queries_batched, m.latency_samples), (1, 1, 1), "{m:?}");

    answer(&handle, 0);
    let m = service.metrics();
    assert_eq!((m.admitted, m.cache_hits, m.latency_samples), (1, 1, 2), "{m:?}");

    // A new edge makes the cached answer stale.
    handle.mutate(EdgeMutation::Insert { u: 0, v: 1, w: 1 }).unwrap();
    answer(&handle, 0);
    let m = service.metrics();
    assert_eq!((m.admitted, m.cache_hits, m.cache_invalidations), (2, 1, 1), "{m:?}");
    assert_eq!((m.batches_dispatched, m.latency_samples), (2, 3), "{m:?}");

    // Distinct sources miss the cache: one query per batch.
    for source in 1..=1030 {
        let before = service.metrics();
        answer(&handle, source);
        let after = service.metrics();
        assert_eq!(after.admitted, before.admitted + 1, "{after:?}");
        assert_eq!(after.batches_dispatched, before.batches_dispatched + 1, "{after:?}");
        assert_eq!(after.queries_batched, before.queries_batched + 1, "{after:?}");
        assert_eq!(after.latency_samples, before.latency_samples + 1, "{after:?}");
    }
    let m = service.metrics();
    assert_eq!(m.submitted, m.admitted + m.rejected + m.cache_hits, "{m:?}");
    assert_eq!(m.submitted, 1033, "{m:?}");
    assert_eq!((m.queue_depth, m.max_queue_depth), (0, 1), "{m:?}");
    assert_eq!(m.max_batch_occupancy, 1, "{m:?}");

    let records = service.batch_records();
    assert_eq!(m.batches_dispatched, 1032);
    assert_eq!(records.len(), 1024, "the ring keeps the last 1 024 batches");
    assert!(records.iter().all(|r| r.batch_size == 1 && r.kernels_in_run == 1), "{records:?}");
    service.shutdown();
}
