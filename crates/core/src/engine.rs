//! The ForkGraph engine: Algorithm 2 of the paper.
//!
//! ```text
//! InitBuffers(P, Q)
//! while at least one buffer has operations:
//!     Pc <- ScheduleNextPart()          (inter-partition scheduling, §5.2)
//!     IntraPartProcess(Pc):             (intra-partition processing, §4)
//!         for each query q with a lane in Pc, in ascending query order:
//!             drop q's dead arrivals, sort the rest and merge them into
//!             its resident run
//!             process q's operations sequentially in priority order,
//!             yielding early per the yield policy (§5.1)
//!             send operations to neighbour partitions in batches
//! ```
//!
//! Query-centric consolidation is structural: a partition's buffer keeps one
//! resident lane per query ([`crate::buffer`]), so a visit finds each
//! query's operations already together and a yield leaves them where they
//! are. Every run is one kernel's pass, seeded either at its sources or from
//! an edge delta (`ForkGraphEngine::run_seeded`), and driven by the
//! [`crate::executor`] — on the calling thread with one worker, on the
//! engine's [`WorkerPool`] with more — whose partition visit is the loop
//! above.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use fg_cachesim::{CacheConfig, GraphAccessTracer};
use fg_graph::mutation::EdgeDelta;
use fg_graph::partitioned::PartitionedGraph;
use fg_graph::{Dist, VertexId};
use fg_metrics::{CacheNumbers, Measurement, Stopwatch, WorkSnapshot};
use fg_seq::ppr::PprConfig;
use fg_seq::random_walk::RandomWalkConfig;
use fg_trace::{EventKind, RunProfile, TraceSink};

use crate::dynkernel::{DynKernel, ErasedState};
use crate::kernel::{FppKernel, IncrementalKernel};
use crate::kernels::{BfsKernel, DfsKernel, PprKernel, RandomWalkKernel, SsspKernel};
use crate::operation::Operation;
use crate::pool::WorkerPool;
use crate::sched::SchedulingPolicy;
use crate::yield_policy::YieldPolicy;

/// Cumulative optimisation levels used in the ablation study (Figure 11).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AblationLevel {
    /// "+buffer": buffered, partition-at-a-time execution only (FIFO
    /// scheduling, no per-query consolidation ordering, no yielding).
    BufferOnly,
    /// "+consolidation": adds query-centric consolidation with the priority
    /// functor ordering operations within a query.
    Consolidation,
    /// "+priority scheduling": adds priority-based inter-partition scheduling.
    PriorityScheduling,
    /// "+yielding": the full system.
    Full,
}

impl AblationLevel {
    /// All levels in cumulative order.
    pub fn all() -> [AblationLevel; 4] {
        [
            AblationLevel::BufferOnly,
            AblationLevel::Consolidation,
            AblationLevel::PriorityScheduling,
            AblationLevel::Full,
        ]
    }

    /// Label used in the Figure 11 report.
    pub fn label(&self) -> &'static str {
        match self {
            AblationLevel::BufferOnly => "+buffer",
            AblationLevel::Consolidation => "+consolidation",
            AblationLevel::PriorityScheduling => "+priority scheduling",
            AblationLevel::Full => "+yielding",
        }
    }
}

/// Configuration of a [`ForkGraphEngine`].
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Inter-partition scheduling policy (§5.2).
    pub scheduling: SchedulingPolicy,
    /// Yielding policy (§5.1).
    pub yield_policy: YieldPolicy,
    /// Whether query-centric consolidation orders each query's operations by
    /// the priority functor (disabled only for the "+buffer" ablation, where
    /// a query's lane is processed in arrival order).
    pub consolidate: bool,
    /// Number of buckets per partition buffer (K of Appendix B.1). Buffers
    /// are per-query lanes — the `K = |Q|` limit — so this steers and sizes
    /// nothing. It, [`crate::buffer::PartitionBuffer::new`]'s argument,
    /// [`crate::buffer::ConsolidationMethod`] and `drain_consolidated`'s
    /// argument stay byte-compatible only because `fgbench/src/layers.rs`
    /// reads them; they go with benchmark PR A (see ROADMAP).
    pub num_buckets: usize,
    /// Simulated LLC geometry; `None` disables cache simulation.
    pub cache: Option<CacheConfig>,
    /// Worker threads of a run's crew (at most one per partition, at least
    /// one). Every run is the executor's ([`crate::executor`])
    /// partition-at-a-time loop: `1` (the default) runs it on the calling
    /// thread; above one, disjoint partitions are processed concurrently by
    /// a crew on a persistent [`WorkerPool`].
    pub num_threads: usize,
    /// Attach a [`RunProfile`] (per-phase wall time, a histogram of visit
    /// sizes) to each run result. Independent of event tracing — profiles are
    /// computed from the workers' own tallies, so they work with no
    /// [`TraceSink`] attached. Off by default: each worker then also records
    /// every partition visit's size in a histogram of its own.
    pub profile: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            scheduling: SchedulingPolicy::Priority,
            yield_policy: YieldPolicy::default(),
            consolidate: true,
            num_buckets: 64,
            cache: None,
            num_threads: 1,
            profile: false,
        }
    }
}

impl EngineConfig {
    /// Configuration corresponding to one cumulative ablation level.
    pub fn for_ablation(level: AblationLevel) -> Self {
        let base = EngineConfig::default();
        match level {
            AblationLevel::BufferOnly => EngineConfig {
                scheduling: SchedulingPolicy::Fifo,
                yield_policy: YieldPolicy::None,
                consolidate: false,
                ..base
            },
            AblationLevel::Consolidation => EngineConfig {
                scheduling: SchedulingPolicy::Fifo,
                yield_policy: YieldPolicy::None,
                consolidate: true,
                ..base
            },
            AblationLevel::PriorityScheduling => EngineConfig {
                scheduling: SchedulingPolicy::Priority,
                yield_policy: YieldPolicy::None,
                consolidate: true,
                ..base
            },
            AblationLevel::Full => base,
        }
    }

    /// Enable cache simulation.
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Override the scheduling policy.
    pub fn with_scheduling(mut self, scheduling: SchedulingPolicy) -> Self {
        self.scheduling = scheduling;
        self
    }

    /// Override the yielding policy.
    pub fn with_yield_policy(mut self, yield_policy: YieldPolicy) -> Self {
        self.yield_policy = yield_policy;
        self
    }

    /// Set the worker-thread count of a run's crew (`1` = the calling
    /// thread; see [`EngineConfig::num_threads`]).
    pub fn with_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Attach a [`RunProfile`] to each run result (see
    /// [`EngineConfig::profile`]).
    pub fn with_profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }
}

/// Result of running an FPP batch through ForkGraph.
#[derive(Clone, Debug)]
pub struct ForkGraphRunResult<S> {
    /// Final per-query states (the query results), in source order.
    pub per_query: Vec<S>,
    /// Timing, work, cache, and memory measurement of the batch.
    pub measurement: Measurement,
    /// Per-run profile (phase wall times, a histogram of visit sizes); present
    /// iff [`EngineConfig::profile`] was set.
    pub profile: Option<RunProfile>,
}

impl<S> ForkGraphRunResult<S> {
    /// Work counters of the run.
    pub fn work(&self) -> &WorkSnapshot {
        &self.measurement.work
    }
}

/// Result of [`ForkGraphEngine::run_multi`]: several kernel cohorts run back
/// to back on one engine. Kept only for `fgbench`, like `run_multi`.
#[derive(Clone, Debug)]
pub struct MultiRunResult {
    /// `per_group[g][i]` is the erased state of group `g`'s `i`-th source,
    /// exactly what [`ForkGraphEngine::run_dyn`] produces for that group.
    pub per_group: Vec<Vec<ErasedState>>,
    /// Summed wall time and merged work counters of the groups' passes
    /// (cache and memory numbers are per pass and left unset).
    pub measurement: Measurement,
}

/// The ForkGraph execution engine over an LLC-partitioned graph.
pub struct ForkGraphEngine<'g> {
    pg: &'g PartitionedGraph,
    config: EngineConfig,
    /// The persistent worker pool for runs with more than one worker:
    /// pre-filled by [`Self::with_pool`] (a crew shared across engines, e.g.
    /// fg-service's), or lazily created — once — on the first such run.
    /// One-worker runs never touch it.
    pool: OnceLock<Arc<WorkerPool>>,
    /// Structured-event sink; `None` (the default) costs one predictable
    /// branch per instrumentation site.
    trace: Option<Arc<TraceSink>>,
}

impl<'g> ForkGraphEngine<'g> {
    /// Create an engine over `pg` with the given configuration.
    pub fn new(pg: &'g PartitionedGraph, config: EngineConfig) -> Self {
        ForkGraphEngine { pg, config, pool: OnceLock::new(), trace: None }
    }

    /// Create an engine that runs its crews on an existing
    /// shared [`WorkerPool`] instead of lazily creating its own. This is how
    /// a serving layer amortises one thread crew across many short-lived
    /// engines (one per micro-batch) with varying worker counts.
    pub fn with_pool(
        pg: &'g PartitionedGraph,
        config: EngineConfig,
        pool: Arc<WorkerPool>,
    ) -> Self {
        let engine = ForkGraphEngine::new(pg, config);
        engine.pool.set(pool).expect("fresh OnceLock");
        engine
    }

    /// Attach a structured-event [`TraceSink`]: every run through this
    /// engine emits schedule-level events (run/visit spans, claims, drains,
    /// parks, yields) onto the sink's per-thread rings. The sink is also
    /// attached to the engine's worker pool (current or lazily created
    /// later) so pool-side events — dispatches, park/unpark — land in the
    /// same stream.
    pub fn with_trace_sink(mut self, sink: Arc<TraceSink>) -> Self {
        if let Some(pool) = self.pool.get() {
            pool.attach_trace(Arc::clone(&sink));
        }
        self.trace = Some(sink);
        self
    }

    /// Emit one trace event — the `None` check *is* the disabled fast path.
    #[inline]
    pub(crate) fn emit_trace(&self, kind: EventKind, a: u32, b: u32, c: u32) {
        if let Some(trace) = &self.trace {
            trace.emit(kind, a, b, c);
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The worker pool this engine dispatches crews to, if one has
    /// been attached or lazily created yet.
    pub fn worker_pool(&self) -> Option<&Arc<WorkerPool>> {
        self.pool.get()
    }

    /// The partitioned graph this engine runs over.
    pub fn partitioned_graph(&self) -> &PartitionedGraph {
        self.pg
    }

    /// Run a batch of queries of kernel `K`, one from each source vertex.
    ///
    /// The batch is the executor's ([`crate::executor`]) partition-at-a-time
    /// pass: with `config.num_threads > 1` (and more than one partition) a
    /// crew processes disjoint partitions concurrently on this engine's
    /// [`WorkerPool`]; otherwise one worker runs the same loop on this
    /// thread.
    pub fn run<K: FppKernel>(
        &self,
        kernel: &K,
        sources: &[VertexId],
    ) -> ForkGraphRunResult<K::State> {
        // Started here so that allocating the states is inside the measured
        // wall time, as it always was.
        let watch = Stopwatch::start();
        let graph = self.pg.graph();
        let states = sources.iter().map(|&source| kernel.init_state(graph, source)).collect();
        let seeds = sources
            .iter()
            .enumerate()
            .map(|(q, &source)| {
                let (value, priority) = kernel.source_op(source);
                Operation::new(q as u32, source, value, priority)
            })
            .collect();
        self.run_seeded(kernel, states, seeds, watch)
    }

    /// Every run's way in: drive `kernel` from `seeds` — operations on
    /// queries `0..states.len()` — until no operation is left, and return the
    /// states. [`Self::run`] seeds each query with its source operation,
    /// [`Self::run_incremental`] with its restart seeds.
    ///
    /// The pass is the executor's, whatever the worker count: a crew of
    /// `num_threads` workers (at most one per partition) runs on this
    /// engine's [`WorkerPool`], created here on the first such run, and one
    /// worker runs on this thread without it.
    pub(crate) fn run_seeded<K: FppKernel>(
        &self,
        kernel: &K,
        states: Vec<K::State>,
        seeds: Vec<Operation<K::Value>>,
        watch: Stopwatch,
    ) -> ForkGraphRunResult<K::State> {
        let workers = crate::pool::crew_size(self.config.num_threads, self.pg.num_partitions());
        let pool = (workers > 1).then(|| {
            self.pool.get_or_init(|| {
                let pool = Arc::new(WorkerPool::new(workers));
                if let Some(trace) = &self.trace {
                    pool.attach_trace(Arc::clone(trace));
                }
                pool
            })
        });
        crate::executor::run(self, kernel, states, seeds, workers, pool.map(Arc::as_ref), watch)
    }

    /// Assemble the [`Measurement`] of one run.
    pub(crate) fn build_measurement(
        &self,
        wall_time: Duration,
        work: WorkSnapshot,
        tracer: &GraphAccessTracer,
    ) -> Measurement {
        let cache_stats = tracer.stats();
        Measurement {
            label: "ForkGraph".to_string(),
            wall_time,
            work,
            cache: self.config.cache.map(|_| CacheNumbers {
                accesses: cache_stats.accesses,
                loads: cache_stats.loads,
                misses: cache_stats.misses,
            }),
        }
    }

    /// Run a batch of queries of a *type-erased* kernel — the entry point
    /// used by `fg-service`'s batcher so that kernels registered at runtime
    /// (including ones defined entirely outside this workspace) flow through
    /// the identical execution path as the built-ins.
    ///
    /// This is [`Self::run`] behind one virtual call: the erasure wrapper
    /// invokes `run` with its concrete kernel, so the worker count,
    /// scheduling and yielding all behave exactly as a direct generic call
    /// would.
    /// Only the returned per-query states are boxed ([`ErasedState`]).
    pub fn run_dyn(
        &self,
        kernel: &dyn DynKernel,
        sources: &[VertexId],
    ) -> ForkGraphRunResult<ErasedState> {
        kernel.run_erased(self, sources)
    }

    /// Run several kernel cohorts on this engine's graph, **one pass per
    /// kernel, back to back**: `per_group[g]` is exactly
    /// `run_dyn(groups[g].0, groups[g].1).per_query`, and `measurement` is
    /// the passes' summed wall time and merged work counters. Any
    /// [`DynKernel`] is accepted. (A pass shared by all cohorts, on erased
    /// operation values, used to live here; it was slower than this loop on
    /// every workload of the repository's benchmark — see README, "Mixed
    /// batches".) `fg-service`'s batcher loops over `run_dyn` itself; this
    /// and [`MultiRunResult`] stay only because `fgbench/src/layers.rs`
    /// calls them, and go with benchmark PR A (see ROADMAP).
    pub fn run_multi(&self, groups: &[(&dyn DynKernel, &[VertexId])]) -> MultiRunResult {
        let mut measurement = Measurement::new("ForkGraph", Duration::ZERO);
        let mut per_group = Vec::with_capacity(groups.len());
        for &(kernel, sources) in groups {
            let pass = self.run_dyn(kernel, sources);
            measurement.wall_time += pass.measurement.wall_time;
            measurement.work = measurement.work.merge(&pass.measurement.work);
            per_group.push(pass.per_query);
        }
        MultiRunResult { per_group, measurement }
    }

    /// Resume converged queries after an edge delta instead of recomputing
    /// them from scratch.
    ///
    /// `prev[q]` must be the converged state of a `kernel` run from
    /// `sources[q]` on an earlier graph, and this engine must hold that
    /// graph changed by `delta` — insertions, deletions and weight changes
    /// alike. Each query's state is reset where the delta may have
    /// invalidated it and re-seeded ([`IncrementalKernel::restart_seeds`]);
    /// the run then converges to the exact fixpoint on this engine's graph,
    /// byte-identical to a from-scratch run, at every worker count. When
    /// nothing was seeded, the reset states are already that fixpoint: the
    /// run starts quiesced and returns them as they are, with the wall time
    /// of the restart (and a profile, if asked for) like any other run.
    ///
    /// # Panics
    /// Panics if `prev.len() != sources.len()`.
    pub fn run_incremental<K: IncrementalKernel>(
        &self,
        kernel: &K,
        sources: &[VertexId],
        mut prev: Vec<K::State>,
        delta: EdgeDelta<'_>,
    ) -> ForkGraphRunResult<K::State> {
        assert_eq!(
            prev.len(),
            sources.len(),
            "run_incremental: {} previous states for {} sources",
            prev.len(),
            sources.len()
        );
        let watch = Stopwatch::start();
        let mut seeds = Vec::new();
        for (q, (state, &source)) in prev.iter_mut().zip(sources).enumerate() {
            kernel.restart_seeds(
                self.pg.graph(),
                state,
                source,
                delta,
                &mut |v, value, priority| seeds.push(Operation::new(q as u32, v, value, priority)),
            );
        }
        self.run_seeded(kernel, prev, seeds, watch)
    }

    // -- Convenience runners for the built-in kernels ------------------------

    /// Run SSSP queries from every source; returns per-query distance arrays.
    pub fn run_sssp(&self, sources: &[VertexId]) -> ForkGraphRunResult<Vec<Dist>> {
        self.run(&SsspKernel, sources)
    }

    /// Run BFS queries from every source; returns per-query level arrays.
    pub fn run_bfs(&self, sources: &[VertexId]) -> ForkGraphRunResult<Vec<u32>> {
        self.run(&BfsKernel, sources)
    }

    /// Run PPR queries from every seed with the given parameters.
    pub fn run_ppr(
        &self,
        seeds: &[VertexId],
        config: &PprConfig,
    ) -> ForkGraphRunResult<crate::kernels::PprState> {
        self.run(&PprKernel::new(*config), seeds)
    }

    /// Run DFS-flavoured reachability queries from every source.
    pub fn run_dfs(
        &self,
        sources: &[VertexId],
    ) -> ForkGraphRunResult<crate::kernels::dfs::DfsState> {
        self.run(&DfsKernel, sources)
    }

    /// Run random-walk queries from every source.
    pub fn run_random_walks(
        &self,
        sources: &[VertexId],
        config: &RandomWalkConfig,
    ) -> ForkGraphRunResult<crate::kernels::RwState> {
        self.run(&RandomWalkKernel::new(*config), sources)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_graph::partition::{PartitionConfig, PartitionMethod};
    use fg_graph::{datasets, gen, CsrGraph};

    fn partitioned(graph: &CsrGraph, parts: usize) -> PartitionedGraph {
        PartitionedGraph::build(
            graph,
            PartitionConfig::with_partitions(PartitionMethod::Multilevel, parts),
        )
    }

    #[test]
    fn sssp_matches_dijkstra_across_configs() {
        let g = gen::erdos_renyi(300, 2400, 11).with_random_weights(8, 11);
        let pg = partitioned(&g, 6);
        let sources: Vec<VertexId> = vec![0, 7, 33, 150];
        let oracle: Vec<Vec<Dist>> =
            sources.iter().map(|&s| fg_seq::dijkstra::dijkstra(&g, s).dist).collect();
        for level in AblationLevel::all() {
            let engine = ForkGraphEngine::new(&pg, EngineConfig::for_ablation(level));
            let result = engine.run_sssp(&sources);
            assert_eq!(result.per_query, oracle, "{level:?}");
        }
        for policy in SchedulingPolicy::all() {
            let engine = ForkGraphEngine::new(&pg, EngineConfig::default().with_scheduling(policy));
            let result = engine.run_sssp(&sources);
            assert_eq!(result.per_query, oracle, "{policy:?}");
        }
    }

    #[test]
    fn bfs_matches_sequential_bfs() {
        let g = gen::rmat(9, 6, 13);
        let pg = partitioned(&g, 5);
        let sources: Vec<VertexId> = vec![0, 9, 100];
        let oracle: Vec<Vec<u32>> =
            sources.iter().map(|&s| fg_seq::bfs::bfs(&g, s).level).collect();
        let engine = ForkGraphEngine::new(&pg, EngineConfig::default());
        assert_eq!(engine.run_bfs(&sources).per_query, oracle);
    }

    #[test]
    fn ppr_results_are_close_to_sequential_reference() {
        let g = gen::rmat(9, 6, 17);
        let pg = partitioned(&g, 6);
        let seeds: Vec<VertexId> = vec![3, 42];
        let config = PprConfig { epsilon: 1e-6, ..Default::default() };
        let engine = ForkGraphEngine::new(&pg, EngineConfig::default());
        let result = engine.run_ppr(&seeds, &config);
        for (state, &seed) in result.per_query.iter().zip(seeds.iter()) {
            assert!((state.total_mass() - 1.0).abs() < 1e-9);
            let reference = fg_seq::ppr::ppr_push(&g, seed, &config).dense(g.num_vertices());
            let l1: f64 =
                state.estimate.iter().zip(reference.iter()).map(|(a, b)| (a - b).abs()).sum();
            assert!(l1 < 0.05, "seed {seed}: l1 {l1}");
        }
    }

    #[test]
    fn dfs_and_random_walk_kernels_run_end_to_end() {
        let g = gen::rmat(8, 5, 19);
        let pg = partitioned(&g, 4);
        let engine = ForkGraphEngine::new(&pg, EngineConfig::default());
        let dfs = engine.run_dfs(&[0, 5]);
        let reference = fg_seq::dfs::dfs(&g, 0);
        let reached = dfs.per_query[0].order.iter().filter(|&&o| o != u32::MAX).count();
        assert_eq!(reached, reference.num_reached());
        let rw_config =
            RandomWalkConfig { num_walks: 4, walk_length: 8, restart_prob: 0.0, seed: 3 };
        let rw = engine.run_random_walks(&[0, 5], &rw_config);
        assert_eq!(rw.per_query[0].total_visits(), 4 * 9);
    }

    #[test]
    fn work_is_within_a_constant_factor_of_sequential() {
        // Theorem A.3: ForkGraph's work per query stays within a constant
        // factor of Dijkstra's; the paper measures 5.2–16.7x. Use a generous
        // bound to keep the test robust across partitionings.
        let g = datasets::CA.generate_weighted(0.08);
        let pg = partitioned(&g, 10);
        let sources: Vec<VertexId> = (0..8).map(|i| (i * 97) % g.num_vertices() as u32).collect();
        let engine = ForkGraphEngine::new(&pg, EngineConfig::default());
        let result = engine.run_sssp(&sources);
        let sequential_edges: u64 =
            sources.iter().map(|&s| fg_seq::dijkstra::dijkstra(&g, s).edges_processed).sum();
        let ratio = result.work().edges_processed as f64 / sequential_edges as f64;
        assert!(ratio < 30.0, "work ratio {ratio}");
    }

    #[test]
    fn yielding_reduces_work_on_road_graphs() {
        let g = datasets::CA.generate_weighted(0.05);
        let pg = partitioned(&g, 8);
        let sources: Vec<VertexId> = (0..6).map(|i| (i * 131) % g.num_vertices() as u32).collect();
        let no_yield =
            ForkGraphEngine::new(&pg, EngineConfig::default().with_yield_policy(YieldPolicy::None))
                .run_sssp(&sources);
        let with_yield = ForkGraphEngine::new(&pg, EngineConfig::default()).run_sssp(&sources);
        assert_eq!(no_yield.per_query, with_yield.per_query);
        assert!(
            with_yield.work().edges_processed <= no_yield.work().edges_processed,
            "yielding should not increase edge work: {} vs {}",
            with_yield.work().edges_processed,
            no_yield.work().edges_processed
        );
    }

    #[test]
    fn a_lane_yields_once_its_edges_pass_the_visit_budget() {
        // The directed path 0 → 1 → … → 7 (unit weights), chunked by out-degree
        // into P0 = {0..=3} (|E_P| = 4, the cut edge 3 → 4 included) and
        // P1 = {4..=7} (|E_P| = 3); one SSSP query from 0, so |Q| = 1.
        let mut builder = fg_graph::GraphBuilder::new(8);
        for v in 0..7 {
            builder.add_edge(v, v + 1, 1);
        }
        let g = builder.build();
        let pg = PartitionedGraph::build(
            &g,
            PartitionConfig::with_partitions(PartitionMethod::Chunked, 2),
        );
        assert_eq!(pg.partition(0).num_edges(), 4);
        assert_eq!(pg.partition(1).num_edges(), 3);
        let run = |factor| {
            let config =
                EngineConfig::default().with_yield_policy(YieldPolicy::EdgeBudgetAuto { factor });
            ForkGraphEngine::new(&pg, config).run_sssp(&[0])
        };

        // Budget 1: P0 pops 0 and 1 (2 edges > 1, yield), then 2 and 3 (the
        // lane is empty, no yield); P1 pops 4 and 5 (yield), then 6 and 7.
        // Four visits, two yields, every edge once.
        let tight = run(0.0);
        assert_eq!(tight.per_query[0], fg_seq::dijkstra::dijkstra(&g, 0).dist);
        assert_eq!(tight.work().partition_visits, 4);
        assert_eq!(tight.work().yields, 2);
        assert_eq!(tight.work().edges_processed, 7);

        // Factor 1.0 divides by |Q| floored at 8: ceil(4 / 8) = ceil(3 / 8) =
        // 1, the same budget of one edge, so the same four visits and two
        // yields (unfloored, the budgets would be 4 and 3: two visits).
        let floored = run(1.0);
        assert_eq!(floored.per_query, tight.per_query);
        assert_eq!(floored.work().partition_visits, 4);
        assert_eq!(floored.work().yields, 2);

        // Factor 8.0 gives budget |E_P| (8 · 4 / 8 = 4, then 3): P1's lane
        // has processed exactly 3 edges when vertex 7 is next, which is not
        // more than the budget, so each partition is visited once.
        let exact = run(8.0);
        assert_eq!(exact.per_query, tight.per_query);
        assert_eq!(exact.work().partition_visits, 2);
        assert_eq!(exact.work().yields, 0);
        assert_eq!(exact.work().edges_processed, 7);
    }

    #[test]
    fn single_partition_degenerates_to_sequential_processing() {
        let g = gen::rmat(8, 5, 23).with_random_weights(6, 23);
        let pg = partitioned(&g, 1);
        let engine = ForkGraphEngine::new(&pg, EngineConfig::default());
        let sources = vec![0, 3];
        let result = engine.run_sssp(&sources);
        assert_eq!(result.per_query[0], fg_seq::dijkstra::dijkstra(&g, 0).dist);
        assert_eq!(result.work().partition_visits, 1, "one partition, one visit");
    }

    #[test]
    fn a_run_with_nothing_seeded_is_timed_and_profiled() {
        let g = gen::rmat(8, 5, 31).with_random_weights(6, 31);
        let pg = partitioned(&g, 4);
        let sources = [0, 9];
        let prev: Vec<Vec<Dist>> =
            sources.iter().map(|&s| fg_seq::dijkstra::dijkstra(&g, s).dist).collect();
        for threads in [1, 2] {
            let config = EngineConfig::default().with_threads(threads).with_profile(true);
            let engine = ForkGraphEngine::new(&pg, config);
            // An empty delta seeds nothing: the states are already the answer.
            let result =
                engine.run_incremental(&SsspKernel, &sources, prev.clone(), EdgeDelta::default());
            assert_eq!(result.per_query, prev);
            assert!(result.profile.is_some(), "a profile was asked for");
            assert_eq!(result.work().partition_visits, 0);
            assert_eq!(result.work().workers.len(), threads);
            assert_eq!(result.work().operations_processed, 0);
            assert!(result.measurement.wall_time > Duration::ZERO, "{threads} workers");
        }
    }

    #[test]
    fn measurement_contains_cache_numbers_when_enabled() {
        let g = gen::rmat(8, 5, 29).with_random_weights(6, 29);
        let pg = partitioned(&g, 4);
        let config = EngineConfig::default().with_cache(fg_cachesim::CacheConfig::tiny(64 * 1024));
        let result = ForkGraphEngine::new(&pg, config).run_sssp(&[0, 1, 2]);
        let cache = result.measurement.cache.unwrap();
        assert!(cache.accesses > 0 && cache.misses > 0);
        assert_eq!(result.measurement.label, "ForkGraph");
    }

    #[test]
    fn engine_handle_is_reusable_across_runs() {
        // The service layer keeps one engine alive and drives many batches
        // through it; repeated runs must be independent and deterministic.
        let g = gen::erdos_renyi(150, 900, 41).with_random_weights(8, 41);
        let pg = partitioned(&g, 3);
        let engine = ForkGraphEngine::new(&pg, EngineConfig::default());
        let first = engine.run_sssp(&[3, 9]);
        let second = engine.run_sssp(&[9]);
        let third = engine.run_sssp(&[3, 9]);
        assert_eq!(first.per_query, third.per_query);
        assert_eq!(first.per_query[1], second.per_query[0]);
    }

    #[test]
    fn ablation_labels() {
        assert_eq!(AblationLevel::all().len(), 4);
        assert_eq!(AblationLevel::BufferOnly.label(), "+buffer");
        assert_eq!(AblationLevel::Full.label(), "+yielding");
    }
}
