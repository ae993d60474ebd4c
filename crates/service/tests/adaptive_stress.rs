//! Stress tests for adaptive per-batch worker sizing and pool lifecycle.
//!
//! Bursty submitters — 1-query and 64-query cohorts interleaved — drive a
//! service whose engine cap is 8 workers. Three properties:
//!
//! 1. **Correctness under burstiness**: every answer matches a direct
//!    one-worker single-query engine run.
//! 2. **The sizing policy is actually applied**: every dispatched batch's
//!    recorded worker count equals
//!    [`fg_service::adaptive::effective_workers`] for its size, singleton
//!    batches ran on one worker, and large batches fanned out.
//! 3. **Shutdown with in-flight dispatched runs** neither deadlocks nor
//!    leaks pool threads — the process thread count returns to its
//!    pre-service baseline (Linux-only assertion).

use std::sync::Arc;
use std::time::Duration;

use fg_graph::gen;
use fg_graph::partition::{PartitionConfig, PartitionMethod};
use fg_graph::partitioned::PartitionedGraph;
use fg_graph::{Dist, VertexId};
use fg_service::adaptive::effective_workers;
use fg_service::{ForkGraphService, Query, ServiceConfig, ServiceError};
use forkgraph_core::{EngineConfig, ForkGraphEngine};

const WORKER_CAP: usize = 8;
const PARTITIONS: usize = 16;

fn serving_graph(seed: u64) -> Arc<PartitionedGraph> {
    let graph = gen::rmat(9, 6, seed).with_random_weights(8, seed);
    Arc::new(PartitionedGraph::build(
        &graph,
        PartitionConfig::with_partitions(PartitionMethod::Multilevel, PARTITIONS),
    ))
}

/// Threads of this process, from `/proc/self/status` (Linux).
#[cfg(target_os = "linux")]
fn os_thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line in /proc/self/status")
}

#[test]
fn bursty_cohorts_get_correct_results_and_policy_sized_batches() {
    let pg = serving_graph(311);
    let n = pg.graph().num_vertices() as u32;
    let service = ForkGraphService::start(
        Arc::clone(&pg),
        // The cap (not the per-batch count) is what we configure.
        EngineConfig::default().with_threads(WORKER_CAP),
        ServiceConfig {
            batch_window: Duration::from_millis(2),
            max_batch_size: 64,
            max_queue_depth: 4096,
            // Every query must reach the engine. Singleton BFS queries may
            // ride an SSSP burst's batch: sizing is per total batch size,
            // and the built-in kernels all weigh 1.0.
            cache_capacity: 0,
        },
    );

    // Interleaved bursty load: "singleton" submitters send one BFS and wait
    // (1-query batches, unless one rides a burst's batch), "burst"
    // submitters enqueue 64 SSSP tickets at once (forcing large same-key
    // cohorts).
    const ROUNDS: usize = 4;
    const BURST: usize = 64;
    let answers: Vec<(VertexId, fg_service::QueryResult)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for s in 0..2usize {
            let handle = service.handle();
            handles.push(scope.spawn(move || {
                let mut got = Vec::new();
                for round in 0..ROUNDS {
                    let source = ((s * 131 + round * 17) as u32 + 1) % n;
                    let query = Query::kernel("bfs").source(source);
                    let result = handle.submit_query(query).unwrap().wait().unwrap();
                    got.push((source, (*result).clone()));
                    std::thread::sleep(Duration::from_millis(4));
                }
                got
            }));
        }
        for s in 0..2usize {
            let handle = service.handle();
            handles.push(scope.spawn(move || {
                let mut got = Vec::new();
                for round in 0..ROUNDS {
                    let sources: Vec<VertexId> = (0..BURST)
                        .map(|i| ((s * 7919 + round * 613 + i * 37) as u32) % n)
                        .collect();
                    let tickets: Vec<_> = sources
                        .iter()
                        .map(|&source| {
                            let query = Query::kernel("sssp").source(source);
                            handle.submit_query(query).expect("queue is deep enough")
                        })
                        .collect();
                    for (source, ticket) in sources.into_iter().zip(tickets) {
                        got.push((source, (*ticket.wait().unwrap()).clone()));
                    }
                }
                got
            }));
        }
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    // A quiet tail: with no burst left to ride, a lone BFS is a 1-query
    // batch.
    let mut answers = answers;
    for source in [5, 77] {
        let query = Query::kernel("bfs").source(source);
        let result = service.handle().submit_query(query).unwrap().wait().unwrap();
        answers.push((source, (*result).clone()));
    }

    let records = service.batch_records();
    let pool_metrics = service.pool_metrics().expect("parallel service has a pool");
    service.shutdown();

    // 1. Correctness: every answer equals a direct one-worker engine run.
    let engine = ForkGraphEngine::new(&pg, EngineConfig::default());
    for &(source, ref result) in &answers {
        match result.kernel_name() {
            "sssp" => {
                let distances = result.try_state::<Vec<Dist>>().unwrap();
                assert_eq!(distances, &engine.run_sssp(&[source]).per_query[0]);
            }
            "bfs" => {
                let levels = result.try_state::<Vec<u32>>().unwrap();
                assert_eq!(levels, &engine.run_bfs(&[source]).per_query[0]);
            }
            other => unreachable!("only sssp/bfs are submitted, got {other}"),
        }
    }

    // 2. Every dispatched batch was sized exactly by the policy function.
    assert!(!records.is_empty());
    for record in &records {
        assert_eq!(
            record.workers as usize,
            effective_workers(record.batch_size as usize, PARTITIONS, WORKER_CAP),
            "batch of {} queries sized off-policy: {record:?}",
            record.batch_size
        );
    }
    // Burstiness actually produced both regimes: one-worker singletons and
    // fanned-out large cohorts (a 64-query batch must use the full cap).
    assert!(
        records.iter().any(|r| r.batch_size <= 2 && r.workers == 1),
        "no small batch ran on one worker: {records:?}"
    );
    assert!(
        records.iter().any(|r| r.batch_size >= 16 && r.workers as usize == WORKER_CAP),
        "no large batch used the full worker cap: {records:?}"
    );
    // And the parallel batches actually went through the persistent pool.
    assert!(pool_metrics.dispatches > 0, "no batch dispatched onto the pool: {pool_metrics:?}");
    assert_eq!(pool_metrics.threads_spawned, WORKER_CAP as u64);
}

#[test]
fn shutdown_with_inflight_dispatched_runs_neither_deadlocks_nor_leaks_threads() {
    #[cfg(target_os = "linux")]
    let baseline_threads = os_thread_count();

    for round in 0..3u64 {
        let pg = serving_graph(1000 + round);
        let n = pg.graph().num_vertices() as u32;
        let service = ForkGraphService::start(
            Arc::clone(&pg),
            EngineConfig::default().with_threads(WORKER_CAP),
            ServiceConfig {
                batch_window: Duration::from_millis(1),
                max_batch_size: 64,
                max_queue_depth: 4096,
                cache_capacity: 0,
            },
        );
        let handle = service.handle();
        // Enqueue a deep backlog of large cohorts, then shut down while the
        // batcher has a dispatched run in flight on the pool.
        let tickets: Vec<_> = (0..256u32)
            .map(|i| handle.submit_query(Query::kernel("sssp").source((i * 193) % n)).unwrap())
            .collect();
        std::thread::sleep(Duration::from_millis(3));
        service.shutdown();
        // Every admitted ticket resolves: flushed result or typed shutdown
        // error — never a hang.
        let mut resolved = 0usize;
        for ticket in tickets {
            match ticket.wait() {
                Ok(_) => resolved += 1,
                Err(ServiceError::ShuttingDown) => {}
                Err(e) => panic!("round {round}: unexpected error {e}"),
            }
        }
        assert!(resolved > 0, "round {round}: shutdown flushed nothing");
    }

    // 3. No leaked pool/batcher threads: the process returns to its
    //    pre-service thread count. (Joined threads leave /proc immediately;
    //    the retry loop only covers scheduler lag.)
    #[cfg(target_os = "linux")]
    {
        let mut now = os_thread_count();
        for _ in 0..50 {
            if now <= baseline_threads {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
            now = os_thread_count();
        }
        assert!(
            now <= baseline_threads,
            "thread count did not return to baseline: {now} > {baseline_threads}"
        );
    }
}
