//! End-to-end tests of the serving layer: consolidation of concurrent
//! submitters, admission-control backpressure, result caching, mixed-kind
//! batching, and shutdown flushing.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use fg_graph::partition::{PartitionConfig, PartitionMethod};
use fg_graph::partitioned::PartitionedGraph;
use fg_graph::{gen, Dist, VertexId};
use fg_seq::ppr::PprConfig;
use fg_service::{
    ForkGraphService, Query, QueryResult, ServiceConfig, ServiceError, ServiceHandle,
};
use forkgraph_core::kernels::PprState;
use forkgraph_core::{EngineConfig, ForkGraphEngine};

fn shared_graph(seed: u64) -> Arc<PartitionedGraph> {
    let g = gen::erdos_renyi(400, 3200, seed).with_random_weights(8, seed);
    Arc::new(PartitionedGraph::build(
        &g,
        PartitionConfig::with_partitions(PartitionMethod::Multilevel, 6),
    ))
}

fn start_default(pg: &Arc<PartitionedGraph>) -> ForkGraphService {
    ForkGraphService::start(Arc::clone(pg), EngineConfig::default(), ServiceConfig::default())
}

fn run(handle: &ServiceHandle, kernel: &str, source: VertexId) -> Arc<QueryResult> {
    handle.submit_query(Query::kernel(kernel).source(source)).unwrap().wait().unwrap()
}

/// Acceptance check: ≥2 concurrent submitters execute in a single
/// consolidated engine run (batch occupancy > 1) and each gets the result a
/// direct one-query engine run would produce.
#[test]
fn concurrent_submitters_share_one_engine_run() {
    let pg = shared_graph(71);
    let service = ForkGraphService::start(
        Arc::clone(&pg),
        EngineConfig::default(),
        ServiceConfig {
            // A generous window so both submitters land in the same batch
            // regardless of scheduling jitter; caching off so both queries
            // demonstrably reach the engine.
            batch_window: Duration::from_millis(200),
            cache_capacity: 0,
            ..ServiceConfig::default()
        },
    );

    let sources: Vec<VertexId> = vec![3, 111, 222, 333];
    let barrier = Arc::new(Barrier::new(sources.len()));
    let results: Vec<(VertexId, Arc<QueryResult>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .iter()
            .map(|&source| {
                let handle = service.handle();
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let result = run(&handle, "sssp", source);
                    (source, result)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let metrics = service.metrics();
    assert!(
        metrics.max_batch_occupancy > 1,
        "concurrent submissions should consolidate into one run; occupancy {}",
        metrics.max_batch_occupancy
    );
    assert_eq!(metrics.admitted, sources.len() as u64);
    assert!(metrics.latency_samples >= sources.len() as u64);
    assert!(metrics.latency_p99 >= metrics.latency_p50);

    // Per-submitter results match direct single-query engine runs.
    let engine = ForkGraphEngine::new(&pg, EngineConfig::default());
    for (source, result) in results {
        let direct = engine.run_sssp(&[source]);
        let distances = result.try_state::<Vec<Dist>>().unwrap();
        assert_eq!(distances, &direct.per_query[0], "source {source}");
    }
    service.shutdown();
}

/// Acceptance check: a saturated queue sheds with a typed error rather
/// than blocking forever.
#[test]
fn saturated_queue_returns_backpressure_error() {
    let pg = shared_graph(73);
    let service = ForkGraphService::start(
        Arc::clone(&pg),
        EngineConfig::default(),
        ServiceConfig {
            // Long window: the batcher sits in its accumulation phase while
            // we overfill the queue from this thread.
            batch_window: Duration::from_secs(5),
            max_batch_size: 1024,
            max_queue_depth: 3,
            cache_capacity: 0,
        },
    );
    let handle = service.handle();

    let mut tickets = Vec::new();
    let mut rejected = None;
    // The batcher may have already drained some submissions into its forming
    // batch, so saturation is reached after at most queue_depth + batch
    // in-flight admissions; 64 attempts is far beyond that.
    for source in 0..64u32 {
        match handle.submit_query(Query::kernel("sssp").source(source)) {
            Ok(t) => tickets.push(t),
            Err(e) => {
                rejected = Some(e);
                break;
            }
        }
    }
    let err = rejected.expect("queue of depth 3 must saturate within 64 submissions");
    match err {
        ServiceError::Saturated { queue_depth, capacity } => {
            assert_eq!(capacity, 3);
            assert!(queue_depth >= capacity, "rejection implies a full queue");
        }
        other => panic!("expected Saturated, got {other:?}"),
    }
    let metrics = handle.metrics();
    assert!(metrics.rejected >= 1);
    assert!(metrics.max_queue_depth <= 3);

    // Shutdown flushes the admitted backlog; every accepted ticket resolves.
    service.shutdown();
    for t in tickets {
        t.wait().unwrap();
    }
}

#[test]
fn repeated_queries_hit_the_result_cache() {
    let pg = shared_graph(79);
    let service = ForkGraphService::start(
        Arc::clone(&pg),
        EngineConfig::default(),
        ServiceConfig { batch_window: Duration::from_millis(1), ..ServiceConfig::default() },
    );
    let handle = service.handle();

    let first = run(&handle, "sssp", 42);
    let second = run(&handle, "sssp", 42);
    assert_eq!(first.try_state::<Vec<Dist>>().unwrap(), second.try_state::<Vec<Dist>>().unwrap());
    // The second answer is the same shared allocation, straight from cache.
    assert!(Arc::ptr_eq(&first, &second));

    let metrics = handle.metrics();
    assert_eq!(metrics.cache_hits, 1);
    assert_eq!(metrics.cache_misses, 1);
    assert!((metrics.cache_hit_rate() - 0.5).abs() < 1e-12);

    // A different source is a miss, not a false hit.
    let third = run(&handle, "sssp", 43);
    assert!(!Arc::ptr_eq(&first, &third));
    assert_ne!(first.try_state::<Vec<Dist>>().unwrap(), third.try_state::<Vec<Dist>>().unwrap());
    assert_eq!(handle.metrics().cache_misses, 2, "different source reaches the engine");
    service.shutdown();
}

#[test]
fn mixed_kernels_form_separate_cohorts_with_correct_results() {
    let pg = shared_graph(83);
    let service = ForkGraphService::start(
        Arc::clone(&pg),
        EngineConfig::default(),
        ServiceConfig {
            batch_window: Duration::from_millis(50),
            // Every kernel gets its own engine pass, mixed batch or not, so
            // even PPR matches a direct one-worker run byte-for-byte.
            cache_capacity: 0,
            ..ServiceConfig::default()
        },
    );
    let handle = service.handle();

    let ppr_config = PprConfig { epsilon: 1e-5, ..PprConfig::default() };
    let t_sssp = handle.submit_query(Query::kernel("sssp").source(5)).unwrap();
    let t_bfs = handle.submit_query(Query::kernel("bfs").source(6)).unwrap();
    let ppr_query = Query::kernel("ppr").source(7).param("epsilon", ppr_config.epsilon);
    let t_ppr = handle.submit_query(ppr_query).unwrap();
    let sssp = t_sssp.wait().unwrap();
    let bfs = t_bfs.wait().unwrap();
    let ppr = t_ppr.wait().unwrap();

    let engine = ForkGraphEngine::new(&pg, EngineConfig::default());
    assert_eq!(sssp.try_state::<Vec<Dist>>().unwrap(), &engine.run_sssp(&[5]).per_query[0]);
    assert_eq!(bfs.try_state::<Vec<u32>>().unwrap(), &engine.run_bfs(&[6]).per_query[0]);
    let direct_ppr = &engine.run_ppr(&[7], &ppr_config).per_query[0];
    assert_eq!(ppr.try_state::<PprState>().unwrap(), direct_ppr);

    // Three cohorts were dispatched, whichever batches carried them.
    let cohorts: u32 = service.batch_records().iter().map(|r| r.kernels_in_run).sum();
    assert_eq!(cohorts, 3);
    service.shutdown();
}

#[test]
fn out_of_range_sources_are_rejected_and_do_not_wedge_the_service() {
    let pg = shared_graph(101);
    let n = pg.graph().num_vertices();
    let service = start_default(&pg);
    let handle = service.handle();

    // Rejected synchronously with a typed error, never reaching the engine.
    let err = handle.submit_query(Query::kernel("sssp").source(n as VertexId)).unwrap_err();
    assert_eq!(err, ServiceError::InvalidSource { source: n as VertexId, num_vertices: n });
    assert_eq!(
        handle.submit_query(Query::kernel("bfs").source(u32::MAX)).unwrap_err(),
        ServiceError::InvalidSource { source: u32::MAX, num_vertices: n }
    );

    // The service keeps serving valid queries afterwards.
    assert!(run(&handle, "bfs", 0).try_state::<Vec<u32>>().is_ok());
    service.shutdown();
}

#[test]
fn wrong_kernel_accessors_name_the_actual_kernel() {
    let pg = shared_graph(103);
    let service = start_default(&pg);
    let handle = service.handle();

    let result = run(&handle, "bfs", 4);
    assert!(result.downcast_ref::<Vec<Dist>>().is_none());
    // A typed error that says what the result actually is.
    let err = result.try_state::<Vec<Dist>>().unwrap_err();
    assert_eq!(err.kernel, "bfs");
    assert!(err.to_string().contains("bfs"), "{err}");
    // The correctly-typed read of the same result succeeds.
    let levels = result.try_state::<Vec<u32>>().unwrap();
    assert_eq!(levels[4], 0);
    service.shutdown();
}

#[test]
fn unknown_kernels_and_bad_params_fail_at_submit() {
    let pg = shared_graph(107);
    let service = start_default(&pg);
    let handle = service.handle();

    assert_eq!(
        handle.submit_query(Query::kernel("pagerank").source(0)).unwrap_err(),
        ServiceError::UnknownKernel { name: "pagerank".to_string() }
    );
    assert_eq!(
        handle.submit_query(Query::kernel("sssp")).unwrap_err(),
        ServiceError::MissingSource { kernel: "sssp".to_string() }
    );
    match handle.submit_query(Query::kernel("ppr").source(0).param("epsilom", 1e-5)).unwrap_err() {
        ServiceError::InvalidParams { kernel, reason } => {
            assert_eq!(kernel, "ppr");
            assert!(reason.contains("epsilom"), "{reason}");
        }
        other => panic!("expected InvalidParams, got {other:?}"),
    }
    // The service keeps serving after rejections.
    assert!(run(&handle, "bfs", 0).try_state::<Vec<u32>>().is_ok());
    service.shutdown();
}

#[test]
fn submissions_after_shutdown_are_refused() {
    let pg = shared_graph(89);
    let service = start_default(&pg);
    let handle = service.handle();
    run(&handle, "bfs", 0);
    service.shutdown();
    let err = handle.submit_query(Query::kernel("bfs").source(1)).unwrap_err();
    assert_eq!(err, ServiceError::ShuttingDown);
}

#[test]
fn wait_timeout_observes_slow_batches_without_losing_results() {
    let pg = shared_graph(97);
    let service = ForkGraphService::start(
        Arc::clone(&pg),
        EngineConfig::default(),
        ServiceConfig { batch_window: Duration::from_millis(150), ..ServiceConfig::default() },
    );
    let handle = service.handle();
    let ticket = handle.submit_query(Query::kernel("bfs").source(9)).unwrap();
    // The batch window is still open: a tiny timeout expires first.
    assert!(ticket.wait_timeout(Duration::from_millis(1)).is_none());
    let result = ticket.wait().unwrap();
    assert!(result.try_state::<Vec<u32>>().is_ok());
    service.shutdown();
}
