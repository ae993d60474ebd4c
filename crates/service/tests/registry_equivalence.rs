//! Acceptance tests of the open-kernel redesign:
//!
//! 1. The four built-in kernels produce **byte-identical** results through
//!    the registry path (erased dispatch, `Query` builder, canonical
//!    parameters) versus the direct engine path, on one worker and on
//!    the worker pool. (PPR is the documented exception on the *pool*:
//!    lazy forward-push is non-confluent even on one worker across
//!    schedules, so there the contract is mass conservation + epsilon-scaled
//!    L1 closeness, exactly as in `parallel_equivalence.rs`.)
//! 2. A kernel defined **only in this test file** — not in any workspace
//!    `src/` — runs end-to-end through service micro-batching, the shared
//!    persistent `WorkerPool`, and the LRU result cache, with results equal
//!    to a direct one-worker oracle.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use fg_graph::partition::{PartitionConfig, PartitionMethod};
use fg_graph::partitioned::PartitionedGraph;
use fg_graph::{gen, AdjacencyView, CsrGraph, Dist, VertexId, INF_DIST};
use fg_seq::ppr::PprConfig;
use fg_seq::random_walk::RandomWalkConfig;
use fg_service::{
    ForkGraphService, InstantiatedKernel, ParamError, Query, QueryParams, QueryResult,
    ServiceConfig, ServiceError, ServiceHandle,
};
use forkgraph_core::kernel::FppKernel;
use forkgraph_core::kernels::{PprState, RwState};
use forkgraph_core::operation::Priority;
use forkgraph_core::{erase, EngineConfig, ForkGraphEngine};

fn shared_graph(seed: u64, partitions: usize) -> (CsrGraph, Arc<PartitionedGraph>) {
    let g = gen::erdos_renyi(300, 2200, seed).with_random_weights(8, seed);
    let pg = Arc::new(PartitionedGraph::build(
        &g,
        PartitionConfig::with_partitions(PartitionMethod::Multilevel, partitions),
    ));
    (g, pg)
}

fn run(handle: &ServiceHandle, query: Query) -> Result<Arc<QueryResult>, ServiceError> {
    handle.submit_query(query)?.wait()
}

/// Service-vs-direct equivalence of all four built-ins with `threads` engine
/// workers (1 = the calling thread, more = the pool).
fn builtin_equivalence_under(threads: usize) {
    let mode = format!("{threads} thread(s)");
    let (_, pg) = shared_graph(211, 6);
    let engine_config = EngineConfig::default().with_threads(threads);
    let service = ForkGraphService::start(
        Arc::clone(&pg),
        engine_config,
        ServiceConfig {
            batch_window: Duration::from_millis(20),
            cache_capacity: 256,
            ..ServiceConfig::default()
        },
    );
    let handle = service.handle();
    let direct = ForkGraphEngine::new(&pg, EngineConfig::default()); // one-worker oracle
    let ppr_config = PprConfig { epsilon: 1e-5, ..PprConfig::default() };
    let rw_config = RandomWalkConfig { num_walks: 8, walk_length: 12, restart_prob: 0.0, seed: 5 };

    for source in [0u32, 17, 191] {
        // SSSP: byte-identical to the direct engine result (monotone kernel
        // ⇒ schedule-independent).
        let sssp = run(&handle, Query::kernel("sssp").source(source)).unwrap();
        assert_eq!(
            sssp.try_state::<Vec<Dist>>().unwrap(),
            &direct.run_sssp(&[source]).per_query[0],
            "{mode:?} sssp {source}"
        );

        // BFS.
        let bfs = run(&handle, Query::kernel("bfs").source(source)).unwrap();
        assert_eq!(
            bfs.try_state::<Vec<u32>>().unwrap(),
            &direct.run_bfs(&[source]).per_query[0],
            "{mode:?} bfs {source}"
        );

        // Random walks: deterministic seeds and purely additive visit
        // counts make the kernel confluent, so results are byte-identical
        // in every mode.
        let walk = Query::kernel("random_walk")
            .source(source)
            .param("num_walks", rw_config.num_walks)
            .param("walk_length", rw_config.walk_length)
            .param("restart_prob", rw_config.restart_prob)
            .param("seed", rw_config.seed);
        let rw = run(&handle, walk).unwrap();
        assert_eq!(
            rw.try_state::<RwState>().unwrap(),
            &direct.run_random_walks(&[source], &rw_config).per_query[0],
            "{mode:?} random_walk {source}"
        );

        // PPR: byte-identical only on one worker (one deterministic
        // schedule on both sides); on the pool the kernel itself is
        // non-confluent, so assert the ACL contract. Omitting the defaults
        // and spelling them out key identically: the second submission is
        // the first one's cache entry.
        let omitted = Query::kernel("ppr").source(source).param("epsilon", ppr_config.epsilon);
        let ppr = run(&handle, omitted).unwrap();
        let spelled_out = Query::kernel("ppr")
            .source(source)
            .param("alpha", ppr_config.alpha)
            .param("epsilon", ppr_config.epsilon)
            .param("max_pushes", ppr_config.max_pushes);
        assert!(
            Arc::ptr_eq(&ppr, &run(&handle, spelled_out).unwrap()),
            "{mode:?}: defaults omitted and spelled out must share one cache entry"
        );
        let ppr_state = ppr.try_state::<PprState>().unwrap();
        let oracle_ppr = &direct.run_ppr(&[source], &ppr_config).per_query[0];
        assert!((ppr_state.total_mass() - 1.0).abs() < 1e-9, "{mode:?} ppr {source}");
        if threads == 1 {
            assert_eq!(ppr_state, oracle_ppr, "{mode:?} ppr {source}");
        } else {
            let l1: f64 = ppr_state
                .estimate
                .iter()
                .zip(oracle_ppr.estimate.iter())
                .map(|(a, b)| (a - b).abs())
                .sum();
            assert!(l1 < 0.05, "{mode:?} ppr {source}: l1 {l1}");
        }
    }
    service.shutdown();
}

#[test]
fn builtins_are_equivalent_through_the_registry_on_one_worker() {
    builtin_equivalence_under(1);
}

#[test]
fn builtins_are_equivalent_through_the_registry_pool() {
    builtin_equivalence_under(4);
}

#[test]
fn erased_builtins_match_direct_engine_runs_byte_for_byte() {
    // Engine-level half of the acceptance check: the erased entry point
    // (`run_dyn`) over each built-in equals the pre-redesign generic call on
    // the same engine — same schedule, so this holds for PPR too.
    let (_, pg) = shared_graph(223, 5);
    let engine = ForkGraphEngine::new(&pg, EngineConfig::default());
    let sources = [1u32, 40, 222];
    let ppr_config = PprConfig { epsilon: 1e-5, ..PprConfig::default() };
    let rw_config = RandomWalkConfig::default();

    let dyn_sssp = engine.run_dyn(&*erase(forkgraph_core::kernels::SsspKernel), &sources);
    for (erased, direct) in dyn_sssp.per_query.iter().zip(&engine.run_sssp(&sources).per_query) {
        assert_eq!(erased.downcast_ref::<Vec<Dist>>().unwrap(), direct);
    }
    let dyn_bfs = engine.run_dyn(&*erase(forkgraph_core::kernels::BfsKernel), &sources);
    for (erased, direct) in dyn_bfs.per_query.iter().zip(&engine.run_bfs(&sources).per_query) {
        assert_eq!(erased.downcast_ref::<Vec<u32>>().unwrap(), direct);
    }
    let dyn_ppr =
        engine.run_dyn(&*erase(forkgraph_core::kernels::PprKernel::new(ppr_config)), &sources);
    for (erased, direct) in
        dyn_ppr.per_query.iter().zip(&engine.run_ppr(&sources, &ppr_config).per_query)
    {
        assert_eq!(erased.downcast_ref::<PprState>().unwrap(), direct);
    }
    let dyn_rw = engine
        .run_dyn(&*erase(forkgraph_core::kernels::RandomWalkKernel::new(rw_config)), &sources);
    for (erased, direct) in
        dyn_rw.per_query.iter().zip(&engine.run_random_walks(&sources, &rw_config).per_query)
    {
        assert_eq!(erased.downcast_ref::<RwState>().unwrap(), direct);
    }
}

// ---------------------------------------------------------------------------
// A custom kernel defined ONLY here: weighted k-hop shortest distances.
// ---------------------------------------------------------------------------

/// `state[v * (k+1) + h]` = best weighted distance to `v` over paths of at
/// most `h` edges. Min-relaxations on a finite lattice ⇒ one fixpoint
/// regardless of schedule, so a crew's results are byte-identical to one
/// worker's.
struct KHopKernel {
    k: u32,
}

impl FppKernel for KHopKernel {
    type Value = (Dist, u32);
    type State = Vec<Dist>;

    fn name(&self) -> &'static str {
        "khop-test"
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
            return 0; // dominated: already reached within `hops` at ≤ dist
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

/// Serial oracle: k rounds of Bellman-Ford.
fn khop_oracle(graph: &CsrGraph, source: VertexId, k: u32) -> Vec<Dist> {
    let n = graph.num_vertices();
    let mut best = vec![INF_DIST; n];
    best[source as usize] = 0;
    for _ in 0..k {
        let previous = best.clone();
        for v in 0..n as u32 {
            if previous[v as usize] == INF_DIST {
                continue;
            }
            for (t, w) in graph.out_edges(v) {
                let nd = previous[v as usize] + w as Dist;
                if nd < best[t as usize] {
                    best[t as usize] = nd;
                }
            }
        }
    }
    best
}

fn khop_factory(params: &QueryParams) -> Result<InstantiatedKernel, ParamError> {
    params.ensure_known(&["k"])?;
    let k = params.u64_or("k", 3)?;
    if k == 0 || k > 64 {
        return Err(ParamError::new(format!("parameter \"k\" must be in 1..=64, got {k}")));
    }
    Ok(InstantiatedKernel::new(erase(KHopKernel { k: k as u32 }), QueryParams::new().with("k", k)))
}

#[test]
fn custom_kernel_runs_through_batching_pool_and_cache() {
    let (g, pg) = shared_graph(227, 6);
    let engine_config = EngineConfig::default().with_threads(4);
    let service = ForkGraphService::start(
        Arc::clone(&pg),
        engine_config,
        ServiceConfig {
            // Generous window so the concurrent burst lands in few batches.
            batch_window: Duration::from_millis(150),
            cache_capacity: 128,
            ..ServiceConfig::default()
        },
    );
    let handle = service.handle();
    let kernel_id = handle.register_kernel("khop", khop_factory).unwrap();
    assert!(handle.registry().contains("khop"));

    // A concurrent burst of queries with one shared k: they must
    // consolidate into micro-batches and run on the pool.
    let k = 4u64;
    let sources: Vec<VertexId> = (0..16).map(|i| (i * 37) % g.num_vertices() as u32).collect();
    let barrier = Arc::new(Barrier::new(sources.len()));
    let answers: Vec<(VertexId, Arc<QueryResult>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = sources
            .iter()
            .map(|&source| {
                let handle = handle.clone();
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let query = Query::kernel("khop").source(source).param("k", k);
                    (source, run(&handle, query).unwrap())
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    // Results equal the direct one-worker oracle (k-hop DP), demuxed per source.
    let stride = k as usize + 1;
    for (source, result) in &answers {
        let state = result.try_state::<Vec<Dist>>().unwrap();
        let oracle = khop_oracle(&g, *source, k as u32);
        let served: Vec<Dist> =
            (0..g.num_vertices()).map(|v| state[v * stride + k as usize]).collect();
        assert_eq!(served, oracle, "source {source}");
    }

    // The burst consolidated (micro-batching worked for a kernel the
    // service crates have never heard of)…
    let metrics = handle.metrics();
    assert!(
        metrics.max_batch_occupancy > 1,
        "custom-kernel queries consolidated; occupancy {}",
        metrics.max_batch_occupancy
    );
    // …ran on the shared persistent pool with an adaptively sized crew…
    let pool = service.pool_metrics().expect("a parallel service has a pool");
    assert!(pool.dispatches >= 1, "custom kernel batches dispatched onto the WorkerPool");
    let records = service.batch_records();
    assert!(
        records.iter().any(|r| r.kernel_id == kernel_id.as_u64() && r.workers > 1),
        "some custom-kernel batch ran parallel: {records:?}"
    );
    // …and populated the result cache: a repeat is served pointer-shared.
    let source = sources[0];
    let first = answers.iter().find(|(s, _)| *s == source).unwrap();
    let again = run(&handle, Query::kernel("khop").source(source).param("k", k)).unwrap();
    assert!(handle.metrics().cache_hits >= 1, "repeat hit the LRU cache");
    assert!(Arc::ptr_eq(&again, &first.1), "cache hit shares the original result allocation");

    // Different k forms a different cohort/cache entry (no false sharing).
    let other = run(&handle, Query::kernel("khop").source(source).param("k", 1u64)).unwrap();
    let other_state = other.try_state::<Vec<Dist>>().unwrap();
    let oracle1 = khop_oracle(&g, source, 1);
    let served1: Vec<Dist> = (0..g.num_vertices()).map(|v| other_state[v * 2 + 1]).collect();
    assert_eq!(served1, oracle1);
    service.shutdown();
}

#[test]
fn custom_kernel_is_byte_identical_on_one_worker_and_the_pool() {
    let (_, pg) = shared_graph(229, 8);
    let kernel = erase(KHopKernel { k: 3 });
    let sources = [2u32, 90, 250];
    let one_worker = ForkGraphEngine::new(&pg, EngineConfig::default()).run_dyn(&*kernel, &sources);
    let crew = ForkGraphEngine::new(&pg, EngineConfig::default().with_threads(4))
        .run_dyn(&*kernel, &sources);
    for (a, b) in one_worker.per_query.iter().zip(&crew.per_query) {
        assert_eq!(a.downcast_ref::<Vec<Dist>>().unwrap(), b.downcast_ref::<Vec<Dist>>().unwrap());
    }
}
