//! Resident frontiers: the per-(partition, query) lanes and the relax-time
//! dominance contract, held to the sequential oracle through every way a
//! run can be configured.
//!
//! * SSSP and BFS must be **byte-identical** to `fg-seq`, and PPR within the
//!   contract of `parallel_equivalence.rs`, across
//!   {`YieldPolicy::None`, a one-edge budget, default} ×
//!   all four `SchedulingPolicy`s × `consolidate` on/off ×
//!   {one worker, the pool with 2 and 3 workers} × {raw, compressed} ×
//!   {`run`, `run_dyn`, `run_incremental`}. The one-edge budget
//!   (`EdgeBudgetAuto { factor: 0.0 }`) is the adversarial corner: every
//!   SSSP or BFS lane yields after its first operation with edges, so nearly
//!   every operation spends time resident between visits. PPR cannot prune,
//!   so it never yields, and its three yield cells run alike.
//! * Allocations per run must not grow with the number of yields: a yield
//!   stops, it does not rebuild anything.
//!
//! Hand-rolled seeded harness (no proptest in the build environment); a
//! failure prints the configuration, which reproduces the trial exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use fg_graph::mutation::EdgeDelta;
use fg_graph::partition::{PartitionConfig, PartitionMethod};
use fg_graph::partitioned::PartitionedGraph;
use fg_graph::{CsrGraph, Dist, Edge, GraphBuilder, StorageConfig, VertexId};
use fg_seq::ppr::PprConfig;
use forkgraph_core::kernels::{BfsKernel, PprKernel, PprState, SsspKernel};
use forkgraph_core::{
    erase, EngineConfig, ForkGraphEngine, SchedulingPolicy, WorkerPool, YieldPolicy,
};

/// Counts this thread's allocations (`alloc` and `realloc` calls). Per
/// thread, so that the other tests of this binary, which run beside the
/// allocation test on their own threads, cannot disturb its count.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the allocator is also called while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: defers to `System` for every operation and only counts on the side
// (a `Cell` in a `const`-initialised thread-local: no allocation, no
// destructor, no re-entry into the allocator).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_on_this_thread() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A budget of one edge per visit: `factor · |E_P| / |Q|` rounds up to at
/// least one edge.
const ONE_EDGE: YieldPolicy = YieldPolicy::EdgeBudgetAuto { factor: 0.0 };

const YIELD_POLICIES: [YieldPolicy; 3] =
    [YieldPolicy::None, ONE_EDGE, YieldPolicy::EdgeBudgetAuto { factor: 2.0 }];

/// Worker counts: one worker on the calling thread, and the persistent
/// pool at two crew sizes.
const WORKERS: [usize; 3] = [1, 2, 3];

fn arb_edges(rng: &mut SmallRng, n: usize, count: usize) -> Vec<Edge> {
    (0..count)
        .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32), rng.gen_range(1u32..12)))
        .collect()
}

fn graph_of(n: usize, edges: &[Edge]) -> CsrGraph {
    let mut b = GraphBuilder::new(n);
    for &(u, v, w) in edges {
        b.add_edge(u, v, w);
    }
    b.build()
}

fn partitioned(graph: &CsrGraph, storage: StorageConfig) -> PartitionedGraph {
    PartitionedGraph::build(
        graph,
        PartitionConfig::with_partitions(PartitionMethod::Chunked, 7).with_storage(storage),
    )
}

/// One cell of the matrix: a label for failures, the storage mode, and what
/// it takes to build the engine over whichever graph a check runs on.
struct MatrixCell<'a> {
    label: String,
    storage: StorageConfig,
    config: EngineConfig,
    pool: Option<&'a Arc<WorkerPool>>,
}

impl MatrixCell<'_> {
    fn engine<'g>(&self, pg: &'g PartitionedGraph) -> ForkGraphEngine<'g> {
        match self.pool {
            Some(pool) => ForkGraphEngine::with_pool(pg, self.config, Arc::clone(pool)),
            None => ForkGraphEngine::new(pg, self.config),
        }
    }
}

/// Every engine configuration of the matrix. Pool engines share one
/// persistent pool per crew size, so recycled mailboxes and lanes cross
/// configurations, value types and graphs as the sweep goes.
fn for_each_config(mut check: impl FnMut(&MatrixCell<'_>)) {
    let pools = [Arc::new(WorkerPool::new(2)), Arc::new(WorkerPool::new(3))];
    for storage in [StorageConfig::Raw, StorageConfig::Compressed] {
        for yield_policy in YIELD_POLICIES {
            for scheduling in SchedulingPolicy::all() {
                for consolidate in [true, false] {
                    for workers in WORKERS {
                        let config = EngineConfig {
                            scheduling,
                            yield_policy,
                            consolidate,
                            ..EngineConfig::default()
                        }
                        .with_threads(workers);
                        let label = format!(
                            "{storage:?} {yield_policy:?} {} consolidate={consolidate} \
                             workers={workers}",
                            scheduling.name(),
                        );
                        let pool = (workers > 1).then(|| &pools[workers - 2]);
                        check(&MatrixCell { label, storage, config, pool });
                    }
                }
            }
        }
    }
}

#[test]
fn sssp_and_bfs_are_byte_identical_to_fg_seq_across_the_whole_matrix() {
    let mut rng = SmallRng::seed_from_u64(0x1A9E5);
    let n = 140;
    let base_edges = arb_edges(&mut rng, n, 560);
    let delta: Vec<Edge> = arb_edges(&mut rng, n, 10);
    let before = graph_of(n, &base_edges);
    let after = graph_of(n, &[base_edges.clone(), delta.clone()].concat());
    let sources: Vec<VertexId> = vec![0, 17, 63, 101, 139];

    let dijkstra = |g: &CsrGraph, s: &[VertexId]| -> Vec<Vec<Dist>> {
        s.iter().map(|&s| fg_seq::dijkstra::dijkstra(g, s).dist).collect()
    };
    let bfs = |g: &CsrGraph, s: &[VertexId]| -> Vec<Vec<u32>> {
        s.iter().map(|&s| fg_seq::bfs::bfs(g, s).level).collect()
    };
    let (dist_before, dist_after) = (dijkstra(&before, &sources), dijkstra(&after, &sources));
    let (level_before, level_after) = (bfs(&before, &sources), bfs(&after, &sources));
    let erased_sssp = erase(SsspKernel);
    let erased_bfs = erase(BfsKernel);

    let stores = |storage| (partitioned(&before, storage), partitioned(&after, storage));
    let raw = stores(StorageConfig::Raw);
    let compressed = stores(StorageConfig::Compressed);
    assert_eq!(compressed.0.compressed_partitions(), compressed.0.num_partitions());

    for_each_config(|cell| {
        let label = &cell.label;
        let (pg_before, pg_after) = match cell.storage {
            StorageConfig::Raw => (&raw.0, &raw.1),
            _ => (&compressed.0, &compressed.1),
        };
        let engine = cell.engine(pg_before);

        // `run`.
        assert_eq!(engine.run_sssp(&sources).per_query, dist_before, "{label}: run sssp");
        assert_eq!(engine.run_bfs(&sources).per_query, level_before, "{label}: run bfs");

        // `run_dyn`.
        let dyn_sssp = engine.run_dyn(&*erased_sssp, &sources);
        for (state, expected) in dyn_sssp.per_query.iter().zip(&dist_before) {
            assert_eq!(state.downcast_ref::<Vec<Dist>>().unwrap(), expected, "{label}: run_dyn");
        }

        let dyn_bfs = engine.run_dyn(&*erased_bfs, &sources);
        for (state, expected) in dyn_bfs.per_query.iter().zip(&level_before) {
            assert_eq!(state.downcast_ref::<Vec<u32>>().unwrap(), expected, "{label}: run_dyn");
        }

        // `run_incremental`: restart the converged pre-delta states on the
        // post-delta graph from the delta frontier.
        let engine = cell.engine(pg_after);
        let delta = EdgeDelta { seeds: &delta, raised: &[] };
        let sssp = engine.run_incremental(&SsspKernel, &sources, dist_before.clone(), delta);
        assert_eq!(sssp.per_query, dist_after, "{label}: incremental sssp");
        let bfs = engine.run_incremental(&BfsKernel, &sources, level_before.clone(), delta);
        assert_eq!(bfs.per_query, level_after, "{label}: incremental bfs");
        // A quiesced run has executed everything it ever buffered: no lane
        // kept an operation, no yield re-buffered one.
        assert_eq!(
            sssp.work().operations_processed,
            sssp.work().operations_buffered,
            "{label}: incremental sssp left or duplicated operations"
        );
    });
}

#[test]
fn ppr_keeps_its_approximation_contract_across_the_whole_matrix() {
    let mut rng = SmallRng::seed_from_u64(0x99_A5);
    let n = 70;
    let edges: Vec<Edge> =
        arb_edges(&mut rng, n, 210).into_iter().map(|(u, v, _)| (u, v, 1)).collect();
    let graph = graph_of(n, &edges);
    let seeds: Vec<VertexId> = vec![3, 40];
    let ppr = PprConfig { epsilon: 1e-4, ..Default::default() };
    let oracle: Vec<Vec<f64>> =
        seeds.iter().map(|&s| fg_seq::ppr::ppr_push(&graph, s, &ppr).dense(n)).collect();
    let threshold = |v: usize| ppr.epsilon * graph.out_degree(v as u32).max(1) as f64;
    // Quiescent residuals are below epsilon·deg everywhere, so two quiescent
    // push states differ by at most twice the sum of those thresholds.
    let budget: f64 = (0..n).map(threshold).sum::<f64>() * 2.0;
    let erased_ppr = erase(PprKernel::new(ppr));
    let raw = partitioned(&graph, StorageConfig::Raw);
    let compressed = partitioned(&graph, StorageConfig::Compressed);

    let check = |label: &str, api: &str, states: &[&PprState], operations: u64| {
        for (q, (state, expected)) in states.iter().zip(&oracle).enumerate() {
            assert!(
                (state.total_mass() - 1.0).abs() < 1e-9,
                "{label} {api} query {q}: mass {}",
                state.total_mass()
            );
            let l1: f64 = state.estimate.iter().zip(expected).map(|(a, b)| (a - b).abs()).sum();
            assert!(l1 <= budget, "{label} {api} query {q}: l1 {l1} > budget {budget}");
            let active = (0..n).find(|&v| state.residual[v] >= threshold(v));
            assert_eq!(active, None, "{label} {api} query {q}: not quiescent");
        }
        // Combine at emit time: an operation exists only for a threshold
        // crossing (or a seed), and every one popped pushes.
        let pushes: u64 = states.iter().map(|state| state.pushes).sum();
        assert!(
            operations <= pushes + seeds.len() as u64,
            "{label} {api}: {operations} operations for {pushes} pushes"
        );
    };
    for_each_config(|cell| {
        let label = &cell.label;
        let pg = if matches!(cell.storage, StorageConfig::Raw) { &raw } else { &compressed };
        let engine = cell.engine(pg);
        let direct = engine.run_ppr(&seeds, &ppr);
        let states: Vec<&PprState> = direct.per_query.iter().collect();
        check(label, "run", &states, direct.work().operations_processed);
        let erased = engine.run_dyn(&*erased_ppr, &seeds);
        let states: Vec<&PprState> =
            erased.per_query.iter().map(|s| s.downcast_ref::<PprState>().unwrap()).collect();
        check(label, "run_dyn", &states, erased.work().operations_processed);
    });
}

/// A yield stops; it does not drain, re-buffer, re-sort or re-heapify. So a
/// run that yields thousands of times must not allocate much more than the
/// same batch run with no yields at all — lanes grow and give back capacity
/// in proportion to the operations passing through them, which are the same
/// in both runs — and certainly not once per yield.
#[test]
fn allocations_per_run_do_not_grow_with_the_number_of_yields() {
    let graph = fg_graph::gen::rmat(11, 8, 5).with_random_weights(9, 5);
    let pg = PartitionedGraph::build(
        &graph,
        PartitionConfig::with_partitions(PartitionMethod::Chunked, 12),
    );
    let sources: Vec<VertexId> = (0..8).map(|i| i * 251 % graph.num_vertices() as u32).collect();
    let measure = |yield_policy: YieldPolicy| {
        let config = EngineConfig::default().with_yield_policy(yield_policy);
        let engine = ForkGraphEngine::new(&pg, config);
        let before = allocations_on_this_thread();
        let result = engine.run_sssp(&sources);
        let allocations = allocations_on_this_thread() - before;
        (allocations, result)
    };
    let (quiet_allocations, quiet) = measure(YieldPolicy::None);
    let (busy_allocations, busy) = measure(ONE_EDGE);
    assert_eq!(quiet.per_query, busy.per_query);
    assert_eq!(quiet.work().yields, 0);
    let yields = busy.work().yields;
    assert!(yields > 1_000, "a one-edge budget should yield constantly, got {yields}");
    assert!(
        busy.work().partition_visits > 10 * quiet.work().partition_visits,
        "and visit far more often: {} vs {}",
        busy.work().partition_visits,
        quiet.work().partition_visits
    );
    assert!(
        busy_allocations <= 2 * quiet_allocations,
        "{yields} yields took {busy_allocations} allocations against {quiet_allocations} \
         for none: a yield must not allocate"
    );
    assert!(busy_allocations < yields / 2, "{busy_allocations} allocations for {yields} yields");
}
