//! Property test: service-batched execution is result-identical to direct
//! single-query `ForkGraphEngine::run` calls for SSSP and BFS, for any
//! interleaving of submissions.
//!
//! Each trial builds a random graph, starts a service with a randomized
//! configuration (window, batch cap, cache on/off), and fires a random mix of
//! SSSP/BFS queries from a random number of concurrent submitter threads with
//! random inter-submission delays — so batch formation genuinely varies
//! between trials (single-query batches, full consolidations, mixed-kind
//! queues, cache hits). Every answer must equal the direct engine run.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use fg_graph::partition::{PartitionConfig, PartitionMethod};
use fg_graph::partitioned::PartitionedGraph;
use fg_graph::{gen, Dist, VertexId};
use fg_service::{ForkGraphService, Query, QueryResult, ServiceConfig};
use forkgraph_core::{EngineConfig, ForkGraphEngine};

const TRIALS: u64 = 8;

#[test]
fn service_results_equal_direct_engine_runs_under_random_interleavings() {
    for trial in 0..TRIALS {
        let mut rng = SmallRng::seed_from_u64(0x5E11CE + trial);

        let n = rng.gen_range(50usize..300);
        let m = rng.gen_range(n..4 * n);
        let graph = gen::erdos_renyi(n, m, trial + 1).with_random_weights(8, trial + 1);
        let parts = rng.gen_range(1usize..8);
        let pg = Arc::new(PartitionedGraph::build(
            &graph,
            PartitionConfig::with_partitions(PartitionMethod::Multilevel, parts),
        ));

        let config = ServiceConfig {
            batch_window: Duration::from_millis(rng.gen_range(0u64..8)),
            max_batch_size: rng.gen_range(1usize..32),
            max_queue_depth: 4096, // property is about correctness, not shedding
            cache_capacity: if rng.gen_bool(0.5) { 256 } else { 0 },
        };
        let service = ForkGraphService::start(Arc::clone(&pg), EngineConfig::default(), config);

        let num_submitters = rng.gen_range(1usize..5);
        let queries_per_submitter = rng.gen_range(1usize..8);
        // Pre-generate each submitter's schedule so the RNG stays on this thread.
        let schedules: Vec<Vec<(Query, u64)>> = (0..num_submitters)
            .map(|_| {
                (0..queries_per_submitter)
                    .map(|_| {
                        let source: VertexId = rng.gen_range(0u32..n as u32);
                        let kernel = if rng.gen_bool(0.5) { "sssp" } else { "bfs" };
                        let query = Query::kernel(kernel).source(source);
                        (query, rng.gen_range(0u64..3)) // delay before submit, ms
                    })
                    .collect()
            })
            .collect();

        let outcomes: Vec<(Query, Arc<QueryResult>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = schedules
                .into_iter()
                .map(|schedule| {
                    let handle = service.handle();
                    scope.spawn(move || {
                        let mut got = Vec::new();
                        for (query, delay_ms) in schedule {
                            if delay_ms > 0 {
                                std::thread::sleep(Duration::from_millis(delay_ms));
                            }
                            let result =
                                handle.submit_query(query.clone()).unwrap().wait().unwrap();
                            got.push((query, result));
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });

        let metrics = service.metrics();
        service.shutdown();

        let engine = ForkGraphEngine::new(&pg, EngineConfig::default());
        for (query, result) in outcomes {
            let source = query.source_vertex().unwrap();
            match query.kernel_name() {
                "sssp" => {
                    let direct = engine.run_sssp(&[source]);
                    assert_eq!(
                        result.try_state::<Vec<Dist>>().unwrap(),
                        &direct.per_query[0],
                        "trial {trial}: sssp from {source} diverged (metrics: {metrics:?})"
                    );
                }
                "bfs" => {
                    let direct = engine.run_bfs(&[source]);
                    assert_eq!(
                        result.try_state::<Vec<u32>>().unwrap(),
                        &direct.per_query[0],
                        "trial {trial}: bfs from {source} diverged (metrics: {metrics:?})"
                    );
                }
                other => unreachable!("only sssp/bfs are generated, got {other}"),
            }
        }

        // Sanity: everything submitted was answered one way or the other.
        let total = (num_submitters * queries_per_submitter) as u64;
        assert_eq!(metrics.submitted, total, "trial {trial}");
        assert_eq!(metrics.admitted + metrics.cache_hits, total, "trial {trial}");
    }
}
