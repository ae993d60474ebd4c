//! Pool-reuse property tests: no state leaks across *consecutive* runs on
//! one persistent [`WorkerPool`], and steady-state runs spawn no threads.
//!
//! Single-run equivalence (`parallel_equivalence.rs`) cannot catch state
//! that one run leaves behind for the next — in a pool thread, in the
//! dispatch handshake, or after a panicking run. These tests drive N
//! consecutive runs through ONE pool — mixing kernels, scheduling policies,
//! worker counts (including growing past the pool's initial capacity),
//! graphs, and partition counts between runs — and require every run to be
//! byte-identical to a run on a fresh pool and to a one-worker run (for the
//! schedule-invariant kernels; PPR is checked against its mass contract).
//!
//! Also asserts the pool's core lifecycle guarantee: steady-state runs
//! spawn **zero** new threads.
//!
//! Hand-rolled seeded harness (no proptest in the build environment); a
//! failure prints the case/run number, which reproduces the trial exactly.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use fg_graph::partition::{PartitionConfig, PartitionMethod};
use fg_graph::partitioned::PartitionedGraph;
use fg_graph::{AdjacencyView, CsrGraph, Dist, GraphBuilder, VertexId};
use forkgraph_core::kernels::SsspKernel;
use forkgraph_core::{
    EngineConfig, ForkGraphEngine, FppKernel, Priority, SchedulingPolicy, WorkerPool,
};

const CASES: u64 = 3;
const RUNS_PER_POOL: usize = 10;
const WORKER_COUNTS: [usize; 3] = [2, 4, 8];

fn arb_graph(rng: &mut SmallRng) -> CsrGraph {
    let n = rng.gen_range(60usize..200);
    let num_edges = rng.gen_range(2 * n..5 * n);
    let mut b = GraphBuilder::new(n);
    for _ in 0..num_edges {
        let u = rng.gen_range(0u32..n as u32);
        let v = rng.gen_range(0u32..n as u32);
        let w = rng.gen_range(1u32..16);
        b.add_edge(u, v, w);
    }
    b.build()
}

fn arb_partitioned(rng: &mut SmallRng, graph: &CsrGraph) -> PartitionedGraph {
    let parts = rng.gen_range(4usize..14);
    let method = [PartitionMethod::Multilevel, PartitionMethod::Chunked, PartitionMethod::Hash]
        [rng.gen_range(0usize..3)];
    PartitionedGraph::build(graph, PartitionConfig::with_partitions(method, parts))
}

fn arb_sources(rng: &mut SmallRng, graph: &CsrGraph, max: usize) -> Vec<u32> {
    let n = graph.num_vertices() as u32;
    (0..rng.gen_range(2usize..=max)).map(|_| rng.gen_range(0..n)).collect()
}

/// N consecutive mixed-kernel runs through one pool are byte-identical to
/// fresh-pool and one-worker execution, across all four scheduling policies.
#[test]
fn consecutive_pooled_runs_match_a_fresh_pool_and_one_worker() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x9001 + case);
        // One pool for the whole case, deliberately starting *below* the
        // largest worker count so mid-sequence growth is exercised too.
        let pool = Arc::new(WorkerPool::new(2));
        // Two graphs the runs alternate between, so consecutive runs differ
        // in partition count too.
        let graph_a = arb_graph(&mut rng);
        let pg_a = arb_partitioned(&mut rng, &graph_a);
        let graph_b = arb_graph(&mut rng);
        let pg_b = arb_partitioned(&mut rng, &graph_b);

        for run in 0..RUNS_PER_POOL {
            let (graph, pg) = if run % 2 == 0 { (&graph_a, &pg_a) } else { (&graph_b, &pg_b) };
            let sources = arb_sources(&mut rng, graph, 6);
            let policy = SchedulingPolicy::all()[rng.gen_range(0usize..4)];
            let workers = WORKER_COUNTS[rng.gen_range(0usize..WORKER_COUNTS.len())];
            let config = EngineConfig::default().with_scheduling(policy).with_threads(workers);

            let one_worker = ForkGraphEngine::new(pg, config.with_threads(1));
            // Its own lazily created pool: no earlier run on it.
            let unshared = ForkGraphEngine::new(pg, config);
            let pooled = ForkGraphEngine::with_pool(pg, config, Arc::clone(&pool));

            if run % 2 == 0 {
                let expected = one_worker.run_sssp(&sources);
                let fresh = unshared.run_sssp(&sources);
                let reused = pooled.run_sssp(&sources);
                assert_eq!(
                    expected.per_query, reused.per_query,
                    "case {case} run {run} policy {policy:?} workers {workers}: pool vs one worker"
                );
                assert_eq!(
                    fresh.per_query, reused.per_query,
                    "case {case} run {run} policy {policy:?} workers {workers}: pool vs fresh pool"
                );
            } else {
                let expected = one_worker.run_bfs(&sources);
                let fresh = unshared.run_bfs(&sources);
                let reused = pooled.run_bfs(&sources);
                assert_eq!(
                    expected.per_query, reused.per_query,
                    "case {case} run {run} policy {policy:?} workers {workers}: pool vs one worker"
                );
                assert_eq!(
                    fresh.per_query, reused.per_query,
                    "case {case} run {run} policy {policy:?} workers {workers}: pool vs fresh pool"
                );
            }
        }

        let metrics = pool.metrics();
        assert_eq!(metrics.dispatches, RUNS_PER_POOL as u64, "case {case}");
        assert!(
            metrics.threads_spawned <= 8,
            "case {case}: pool grew past the largest requested crew: {metrics:?}"
        );
    }
}

/// PPR across consecutive pooled runs: not bitwise (lazy forward-push is
/// non-confluent even on one worker — see `parallel_equivalence.rs`), but every
/// run must preserve exact mass and stay within the epsilon-scaled bound of
/// the one-worker result — including the later runs on the same pool,
/// where residual operations a previous run left behind would surface.
#[test]
fn consecutive_pooled_ppr_runs_preserve_the_approximation_contract() {
    use fg_seq::ppr::PprConfig;

    let ppr = PprConfig { epsilon: 1e-4, ..Default::default() };
    let mut rng = SmallRng::seed_from_u64(0x99_88);
    let n = 80usize;
    let mut b = GraphBuilder::new(n);
    for _ in 0..3 * n {
        b.add_edge(rng.gen_range(0u32..n as u32), rng.gen_range(0u32..n as u32), 1);
    }
    let graph = b.build();
    let pg = PartitionedGraph::build(
        &graph,
        PartitionConfig::with_partitions(PartitionMethod::Multilevel, 6),
    );
    let pool = Arc::new(WorkerPool::new(4));

    for run in 0..6 {
        let seeds = arb_sources(&mut rng, &graph, 3);
        let one_worker = ForkGraphEngine::new(&pg, EngineConfig::default()).run_ppr(&seeds, &ppr);
        let engine = ForkGraphEngine::with_pool(
            &pg,
            EngineConfig::default().with_threads(4),
            Arc::clone(&pool),
        );
        let pooled = engine.run_ppr(&seeds, &ppr);
        let budget: f64 = (0..graph.num_vertices())
            .map(|v| ppr.epsilon * graph.out_degree(v as u32).max(1) as f64)
            .sum::<f64>()
            * 2.0;
        for (q, (a, b)) in one_worker.per_query.iter().zip(pooled.per_query.iter()).enumerate() {
            assert!(
                (b.total_mass() - 1.0).abs() < 1e-9,
                "run {run} query {q}: mass {}",
                b.total_mass()
            );
            let l1: f64 =
                a.estimate.iter().zip(b.estimate.iter()).map(|(x, y)| (x - y).abs()).sum();
            assert!(l1 <= budget, "run {run} query {q}: l1 {l1} > budget {budget}");
        }
    }
}

/// The acceptance bar: once warm, engine runs spawn **zero** new threads,
/// for every scheduling policy, even as the per-run worker count moves up
/// and down beneath the pool's capacity.
#[test]
fn steady_state_runs_spawn_zero_new_threads() {
    let mut rng = SmallRng::seed_from_u64(0xC01D);
    let graph = arb_graph(&mut rng);
    let pg = arb_partitioned(&mut rng, &graph);
    let sources = arb_sources(&mut rng, &graph, 5);
    let pool = Arc::new(WorkerPool::new(8));

    // Warm-up: one run at the largest crew the sequence will use.
    ForkGraphEngine::with_pool(&pg, EngineConfig::default().with_threads(8), Arc::clone(&pool))
        .run_sssp(&sources);
    let warm = pool.metrics();
    assert_eq!(warm.threads_spawned, 8);

    for round in 0..4u64 {
        for policy in SchedulingPolicy::all() {
            for workers in WORKER_COUNTS {
                let engine = ForkGraphEngine::with_pool(
                    &pg,
                    EngineConfig::default().with_scheduling(policy).with_threads(workers),
                    Arc::clone(&pool),
                );
                engine.run_sssp(&sources);
                engine.run_sssp(&sources);
            }
        }
        let now = pool.metrics();
        assert_eq!(
            now.threads_spawned, warm.threads_spawned,
            "round {round}: steady-state runs must not spawn threads: {now:?}"
        );
    }
    let done = pool.metrics();
    assert_eq!(done.dispatches, warm.dispatches + 4 * 4 * 3 * 2);
}

/// An engine that lazily creates its own pool keeps it across runs — the
/// second and later runs of one engine handle dispatch onto the same crew.
#[test]
fn engine_owned_pool_persists_across_runs() {
    let mut rng = SmallRng::seed_from_u64(0xE16);
    let graph = arb_graph(&mut rng);
    let pg = arb_partitioned(&mut rng, &graph);
    let sources = arb_sources(&mut rng, &graph, 4);
    let engine = ForkGraphEngine::new(&pg, EngineConfig::default().with_threads(4));
    assert!(engine.worker_pool().is_none(), "pool is created lazily");
    let first = engine.run_sssp(&sources);
    let spawned = engine.worker_pool().expect("created on first run").metrics().threads_spawned;
    for _ in 0..5 {
        let again = engine.run_sssp(&sources);
        assert_eq!(first.per_query, again.per_query);
    }
    let pool = engine.worker_pool().expect("still attached");
    assert_eq!(pool.metrics().threads_spawned, spawned, "repeat runs spawned threads");
    assert_eq!(pool.metrics().dispatches, 6);
}

/// SSSP that can be armed to panic in the middle of a visit: the armed
/// `process` call relaxes its vertex — staging operations for other
/// partitions in its worker's routing scratch — and then unwinds before the
/// visit can send them.
struct FaultySssp {
    /// `process` calls left before the panic; negative = disarmed.
    fuse: std::sync::atomic::AtomicI64,
}

impl FppKernel for FaultySssp {
    type Value = ();
    type State = Vec<Dist>;

    fn name(&self) -> &'static str {
        "faulty-sssp"
    }

    fn init_state(&self, graph: &CsrGraph, source: VertexId) -> Self::State {
        SsspKernel.init_state(graph, source)
    }

    fn source_op(&self, source: VertexId) -> (Self::Value, Priority) {
        SsspKernel.source_op(source)
    }

    fn process(
        &self,
        graph: &AdjacencyView<'_>,
        state: &mut Self::State,
        vertex: VertexId,
        value: Self::Value,
        priority: Priority,
        emit: &mut dyn FnMut(VertexId, Self::Value, Priority),
    ) -> u64 {
        use std::sync::atomic::Ordering;
        let edges = SsspKernel.process(graph, state, vertex, value, priority, emit);
        if edges > 0 && self.fuse.fetch_sub(1, Ordering::SeqCst) == 0 {
            panic!("faulty kernel: injected panic mid-visit");
        }
        edges
    }
}

/// A kernel panic fails its run but must not poison the pool: the panicking
/// worker thread survives the unwind, and the next runs through the same
/// pool — same operation value type, other sources,
/// fewer queries — must neither see those operations nor trip over them.
#[test]
fn a_kernel_panic_mid_visit_leaks_nothing_into_the_next_run() {
    use std::sync::atomic::{AtomicI64, Ordering};

    let mut rng = SmallRng::seed_from_u64(0xBAD_5EED);
    let graph = arb_graph(&mut rng);
    let pg = PartitionedGraph::build(
        &graph,
        PartitionConfig::with_partitions(PartitionMethod::Multilevel, 8),
    );
    let n = graph.num_vertices() as u32;
    let kernel = FaultySssp { fuse: AtomicI64::new(-1) };
    let config = EngineConfig::default().with_threads(2);

    for fuse in [0i64, 3, 11, 40] {
        let pool = Arc::new(WorkerPool::new(2));
        let engine = ForkGraphEngine::with_pool(&pg, config, Arc::clone(&pool));
        let failing: Vec<u32> = (0..6).map(|_| rng.gen_range(0..n)).collect();
        kernel.fuse.store(fuse, Ordering::SeqCst);
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.run(&kernel, &failing);
        }));
        assert!(failed.is_err(), "fuse {fuse}: the armed run must fail");
        assert!(kernel.fuse.load(Ordering::SeqCst) < 0, "fuse {fuse}: the panic fired");

        // Disarmed now (the fuse only counts further down). Several clean
        // runs, so that whichever worker panicked gets to route operations.
        for run in 0..4 {
            let sources: Vec<u32> = (0..2).map(|_| rng.gen_range(0..n)).collect();
            let clean = engine.run(&kernel, &sources);
            for (q, &source) in sources.iter().enumerate() {
                assert_eq!(
                    clean.per_query[q],
                    fg_seq::dijkstra::dijkstra(&graph, source).dist,
                    "fuse {fuse} run {run} query {q}: result after a failed run"
                );
            }
            let work = clean.work();
            assert_eq!(
                work.operations_processed, work.operations_buffered,
                "fuse {fuse} run {run}: every operation of this run, and only those"
            );
        }
    }
}
