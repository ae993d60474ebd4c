//! Stress test: concurrent fg-service submitters over the **inter-partition
//! parallel engine**.
//!
//! Proves two things the one-worker property test cannot:
//!
//! 1. **Batching equivalence survives parallel execution** — with the batcher
//!    serving every micro-batch through a multi-worker
//!    `ForkGraphEngine` (`EngineConfig::num_threads > 1`), every answer is
//!    still byte-identical to a direct one-worker single-query run (SSSP/BFS are
//!    schedule-invariant, so consolidation *and* parallel execution must both
//!    be invisible to clients).
//! 2. **Shutdown never deadlocks** — services are shut down while submitters
//!    are still racing, both via explicit `shutdown()` flushes and via `drop`,
//!    and every ticket resolves (a result or a typed error, never a hang).

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use fg_graph::partition::{PartitionConfig, PartitionMethod};
use fg_graph::partitioned::PartitionedGraph;
use fg_graph::{gen, Dist, VertexId};
use fg_service::{ForkGraphService, Query, ServiceConfig, ServiceError};
use forkgraph_core::{EngineConfig, ForkGraphEngine};

fn parallel_graph(seed: u64, parts: usize) -> Arc<PartitionedGraph> {
    let graph = gen::rmat(9, 6, seed).with_random_weights(8, seed);
    Arc::new(PartitionedGraph::build(
        &graph,
        PartitionConfig::with_partitions(PartitionMethod::Multilevel, parts),
    ))
}

#[test]
fn concurrent_submitters_over_parallel_engine_match_direct_one_worker_runs() {
    let pg = parallel_graph(41, 16);
    let n = pg.graph().num_vertices() as u32;
    let service = ForkGraphService::start(
        Arc::clone(&pg),
        EngineConfig::default().with_threads(4),
        ServiceConfig {
            batch_window: Duration::from_millis(1),
            max_batch_size: 32,
            max_queue_depth: 4096,
            cache_capacity: 0, // every query must traverse the parallel engine
        },
    );

    const SUBMITTERS: usize = 6;
    const QUERIES: usize = 12;
    let answers: Vec<(Query, fg_service::QueryResult)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SUBMITTERS)
            .map(|s| {
                let handle = service.handle();
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(0xACE + s as u64);
                    let mut got = Vec::new();
                    for _ in 0..QUERIES {
                        let source: VertexId = rng.gen_range(0..n);
                        let kernel = if rng.gen_bool(0.5) { "sssp" } else { "bfs" };
                        let query = Query::kernel(kernel).source(source);
                        let result = handle.submit_query(query.clone()).unwrap().wait().unwrap();
                        got.push((query, (*result).clone()));
                    }
                    got
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });

    let metrics = service.metrics();
    service.shutdown();
    assert_eq!(metrics.submitted, (SUBMITTERS * QUERIES) as u64);
    assert!(
        metrics.max_batch_occupancy > 1,
        "stress load should consolidate concurrent queries into shared batches"
    );

    // Oracle: a one-worker engine, one query at a time.
    let engine = ForkGraphEngine::new(&pg, EngineConfig::default());
    for (query, result) in answers {
        let source = query.source_vertex().unwrap();
        match query.kernel_name() {
            "sssp" => {
                let distances = result.try_state::<Vec<Dist>>().unwrap();
                assert_eq!(distances, &engine.run_sssp(&[source]).per_query[0]);
            }
            "bfs" => {
                let levels = result.try_state::<Vec<u32>>().unwrap();
                assert_eq!(levels, &engine.run_bfs(&[source]).per_query[0]);
            }
            other => unreachable!("only sssp/bfs are generated, got {other}"),
        }
    }
}

#[test]
fn shutdown_under_racing_submitters_never_deadlocks_or_drops_tickets() {
    for round in 0..4u64 {
        let pg = parallel_graph(97 + round, 12);
        let n = pg.graph().num_vertices() as u32;
        let service = ForkGraphService::start(
            Arc::clone(&pg),
            EngineConfig::default().with_threads(4),
            ServiceConfig {
                batch_window: Duration::from_millis(2),
                max_batch_size: 16,
                max_queue_depth: 256,
                cache_capacity: 64,
            },
        );

        std::thread::scope(|scope| {
            let submitters: Vec<_> = (0..4)
                .map(|s| {
                    let handle = service.handle();
                    scope.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(round * 100 + s);
                        let mut resolved = 0usize;
                        loop {
                            let source: VertexId = rng.gen_range(0..n);
                            match handle.submit_query(Query::kernel("bfs").source(source)) {
                                Ok(ticket) => {
                                    // Every ticket must resolve even when the
                                    // service shuts down mid-flight.
                                    match ticket.wait() {
                                        Ok(_) => resolved += 1,
                                        Err(ServiceError::ShuttingDown) => break,
                                        Err(e) => panic!("unexpected error: {e}"),
                                    }
                                }
                                Err(ServiceError::ShuttingDown) => break,
                                Err(ServiceError::Saturated { .. }) => {
                                    std::thread::yield_now();
                                }
                                Err(e) => panic!("unexpected submit error: {e}"),
                            }
                        }
                        resolved
                    })
                })
                .collect();

            // Let the submitters race the batcher, then pull the plug.
            std::thread::sleep(Duration::from_millis(20));
            service.shutdown();
            let resolved: usize = submitters.into_iter().map(|h| h.join().unwrap()).sum();
            assert!(resolved > 0, "round {round}: no query resolved before shutdown");
        });
    }
}

#[test]
fn dropping_a_parallel_service_with_queued_work_joins_cleanly() {
    let pg = parallel_graph(7, 8);
    let n = pg.graph().num_vertices() as u32;
    let service = ForkGraphService::start(
        Arc::clone(&pg),
        EngineConfig::default().with_threads(3),
        ServiceConfig::default(),
    );
    let handle = service.handle();
    let tickets: Vec<_> = (0..24)
        .map(|i| handle.submit_query(Query::kernel("sssp").source(i % n)).unwrap())
        .collect();
    // Drop with work still queued: Drop flushes admitted queries, so every
    // ticket resolves to a result or ShuttingDown — nothing hangs.
    drop(service);
    let mut ok = 0usize;
    for ticket in tickets {
        match ticket.wait() {
            Ok(_) => ok += 1,
            Err(ServiceError::ShuttingDown) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(ok > 0, "drop-flush should answer already-admitted queries");
}
