//! The ForkGraph engine: Algorithm 2 of the paper.
//!
//! ```text
//! InitBuffers(P, Q)
//! while at least one buffer has operations:
//!     Pc <- ScheduleNextPart()          (inter-partition scheduling, §5.2)
//!     IntraPartProcess(Pc):             (intra-partition processing, §4)
//!         for each query q with a lane in Pc, in ascending query order:
//!             merge q's arrivals into its resident heap
//!             process q's operations sequentially in priority order,
//!             yielding early per the yield policy (§5.1)
//!             send operations to neighbour partitions in batches
//! ```
//!
//! Query-centric consolidation is structural: a partition's buffer keeps one
//! resident lane per query ([`crate::buffer`]), so a visit finds each
//! query's operations already together and a yield leaves them where they
//! are. Every run is one kernel's pass, seeded either at its sources or from
//! a delta frontier (`ForkGraphEngine::run_seeded`); the serial loop here and
//! the parallel [`crate::executor`] drive the same visit primitive,
//! `PartitionVisit::process_lane`.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use fg_cachesim::{CacheConfig, GraphAccessTracer};
use fg_graph::partition::PartitionId;
use fg_graph::partitioned::PartitionedGraph;
use fg_graph::{Dist, Edge, VertexId};
use fg_metrics::{
    CacheNumbers, Measurement, MemoryEstimate, Stopwatch, VisitWork, WorkCounters, WorkSnapshot,
};
use fg_seq::ppr::PprConfig;
use fg_seq::random_walk::RandomWalkConfig;
use fg_trace::{EventKind, Histogram, RunProfile, TraceSink};

use crate::buffer::{Lane, PartitionBuffer, RemoteScratch};
use crate::dynkernel::{DynKernel, ErasedState};
use crate::kernel::{FppKernel, IncrementalKernel};
use crate::kernels::{BfsKernel, DfsKernel, PprKernel, RandomWalkKernel, SsspKernel};
use crate::operation::Operation;
use crate::pool::WorkerPool;
use crate::sched::{Scheduler, SchedulingPolicy};
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
    /// nothing. It, [`PartitionBuffer::new`]'s argument,
    /// [`crate::buffer::ConsolidationMethod`] and `drain_consolidated`'s
    /// argument stay byte-compatible only because `fgbench/src/layers.rs`
    /// reads them; they go with the `[benchmark]` PR of ROADMAP item (d).
    pub num_buckets: usize,
    /// Simulated LLC geometry; `None` disables cache simulation.
    pub cache: Option<CacheConfig>,
    /// Worker threads, and with them how a run is driven: `1` (the default)
    /// is the paper's serial partition-at-a-time loop; above one, disjoint
    /// partitions are processed concurrently by the inter-partition parallel
    /// executor ([`crate::executor`]) on a persistent
    /// [`WorkerPool`]. `0` means "one worker per available CPU".
    pub num_threads: usize,
    /// Attach a [`RunProfile`] (per-phase wall time, visit/steal histograms)
    /// to each run result. Independent of event tracing — profiles are
    /// computed from counters the run keeps anyway, so they work with no
    /// [`TraceSink`] attached. Off by default: the histogram updates cost a
    /// few relaxed atomic ops per partition visit.
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

    /// Set the worker-thread count of the parallel executor (`1` = serial,
    /// `0` = one worker per available CPU).
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

    /// Worker threads this configuration resolves to on this machine.
    pub fn resolved_threads(&self) -> usize {
        if self.num_threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.num_threads
        }
    }
}

/// Result of running an FPP batch through ForkGraph.
#[derive(Clone, Debug)]
pub struct ForkGraphRunResult<S> {
    /// Final per-query states (the query results), in source order.
    pub per_query: Vec<S>,
    /// Timing, work, cache, and memory measurement of the batch.
    pub measurement: Measurement,
    /// Per-run profile (phase wall times, visit/steal histograms); present
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
    /// (cache, memory and storage numbers are per pass and left unset).
    pub measurement: Measurement,
}

/// What one query's share of one partition visit did to the lane it ran on,
/// as the run pipeline needs to know it: the executor keeps its
/// operations-in-flight count and scheduling hints from these two numbers.
/// (The work counters are flushed by the visit itself.)
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct LaneVisit {
    /// Operations popped and executed.
    pub(crate) consumed: u64,
    /// Operations the visit emitted to its own partition: they went straight
    /// onto the lane, never through a mailbox.
    pub(crate) emitted_local: u64,
}

impl std::ops::AddAssign for LaneVisit {
    fn add_assign(&mut self, other: LaneVisit) {
        self.consumed += other.consumed;
        self.emitted_local += other.emitted_local;
    }
}

/// A count as a trace-event payload field, saturating.
pub(crate) fn event_field(count: u64) -> u32 {
    u32::try_from(count).unwrap_or(u32::MAX)
}

/// One partition visit, as the code processing a query's lane sees it: the
/// engine and the visit's bookkeeping (partition, yield inputs, tracer,
/// counters). The serial loop and the executor's workers hand each active
/// lane to `process_lane`, the one monomorphized visit loop.
pub(crate) struct PartitionVisit<'a, 'g> {
    engine: &'a ForkGraphEngine<'g>,
    partition: PartitionId,
    /// `|E_P|` and `|Q|` of the `EdgeBudgetAuto` yield threshold.
    partition_edges: u64,
    num_queries: usize,
    tracer: &'a GraphAccessTracer,
    counters: &'a WorkCounters,
}

impl<'a, 'g> PartitionVisit<'a, 'g> {
    pub(crate) fn new(
        engine: &'a ForkGraphEngine<'g>,
        partition: PartitionId,
        num_queries: usize,
        tracer: &'a GraphAccessTracer,
        counters: &'a WorkCounters,
    ) -> Self {
        PartitionVisit {
            engine,
            partition,
            partition_edges: engine.pg.partition(partition).num_edges() as u64,
            num_queries,
            tracer,
            counters,
        }
    }

    /// Process one query's lane within this partition visit — the visit
    /// primitive the serial loop and the executor share.
    ///
    /// With consolidation the lane's arrivals are merged into its resident
    /// heap and operations are popped in `(priority, vertex)` order; without
    /// it, in arrival order. Before each pop the yield policy is asked about
    /// the next operation's priority; a **yield just stops** — what the lane
    /// still holds stays resident for the next visit. An operation `kernel`
    /// emits is appended once to where it will be popped from: this lane if
    /// its vertex lives in this partition, else the `remote` batch of its
    /// target (which the caller delivers when the lane's visit returns).
    /// Work counters are accumulated in locals and flushed once, on return.
    pub(crate) fn process_lane<K: FppKernel>(
        &self,
        kernel: &K,
        query: u32,
        lane: &mut Lane<K::Value>,
        state: &mut K::State,
        remote: &mut RemoteScratch<K::Value>,
    ) -> LaneVisit {
        let engine = self.engine;
        let pg = engine.pg;
        let partition = self.partition;
        let tracer = self.tracer;
        let ordered = engine.config.consolidate;
        let mut checker =
            engine.config.yield_policy.for_partition(self.partition_edges, self.num_queries);

        // Adjacency for this visit: raw partitions borrow the monolithic CSR,
        // compressed partitions stream-decode their varint payload per vertex.
        let view = pg.adjacency_view(partition);
        if view.is_compressed() {
            engine.emit_trace(EventKind::PartitionDecode, query, partition, 0);
        }

        if ordered {
            lane.merge_inbox();
        }
        let mut work = VisitWork::default();
        let mut emitted_local = 0u64;
        while let Some(next_priority) = lane.peek_priority(ordered) {
            if checker.should_yield(next_priority) {
                self.counters.add_yield();
                engine.emit_trace(EventKind::Yield, query, partition, 0);
                break;
            }
            let op = lane.pop(ordered).expect("peeked above");
            let vertex = op.vertex;
            let edges =
                kernel.process(&view, state, vertex, op.value, &mut |t, value, priority| {
                    let new_op = Operation::new(query, t, value, priority);
                    let target_partition = pg.partition_of(t);
                    if target_partition == partition {
                        lane.push_local(ordered, new_op);
                        emitted_local += 1;
                    } else {
                        remote.push(target_partition, new_op);
                    }
                    work.buffered += 1;
                });
            work.operations += 1;
            work.edges += edges;
            work.pruned += u64::from(edges == 0);
            checker.record_edges(edges);

            if tracer.is_enabled() {
                if edges > 0 {
                    // Compressed visits stream far fewer payload bytes per
                    // vertex than the raw CSR slice, so they are charged the
                    // (smaller) encoded byte range instead of the CSR lines.
                    if let Some((start, end)) = view.decode_byte_range(vertex) {
                        tracer.compressed_scan(partition as u64, vertex as u64, start, end);
                    } else {
                        let graph = pg.graph();
                        tracer.adjacency_scan(
                            graph.adjacency_offset(vertex),
                            graph.out_degree(vertex),
                        );
                    }
                    tracer.state_write(query as usize, vertex as u64);
                    let ids: Vec<u64> = view.out_neighbors(vertex).map(|v| v as u64).collect();
                    tracer.state_read_batch(query as usize, &ids);
                } else {
                    tracer.state_read(query as usize, vertex as u64);
                }
            }
        }
        lane.trim();
        self.counters.add_visit(&work);
        LaneVisit { consumed: work.operations, emitted_local }
    }
}

/// The ForkGraph execution engine over an LLC-partitioned graph.
pub struct ForkGraphEngine<'g> {
    pg: &'g PartitionedGraph,
    config: EngineConfig,
    /// The persistent worker pool for parallel runs: pre-filled by
    /// [`Self::with_pool`] (a crew shared across engines, e.g. fg-service's),
    /// or lazily created — once — on the first parallel run.
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

    /// Create an engine that runs parallel batches on an existing
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
    /// engine emits schedule-level events (run/visit spans, claims, steals,
    /// drains, yields) onto the sink's per-thread rings. The sink is also
    /// attached to the engine's worker pool (current or lazily created
    /// later) so pool-side events — dispatches, storage recycling,
    /// park/unpark — land in the same stream.
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

    /// The worker pool this engine dispatches parallel runs to, if one has
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
    /// With `config.num_threads > 1` (and more than one partition) the batch
    /// is executed by the inter-partition parallel executor
    /// ([`crate::executor`]) on this engine's [`WorkerPool`]; otherwise by
    /// the paper's serial partition-at-a-time loop.
    pub fn run<K: FppKernel>(
        &self,
        kernel: &K,
        sources: &[VertexId],
    ) -> ForkGraphRunResult<K::State> {
        // Started here so that allocating the states is inside the measured
        // wall time, as it always was.
        let watch = Stopwatch::start();
        let graph = self.pg.graph();
        let states = sources.iter().map(|_| kernel.init_state(graph)).collect();
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

    /// The one run pipeline: drive `kernel` from `seeds` — operations on
    /// queries `0..states.len()` — until no operation is left, and return
    /// the states. [`Self::run`] seeds each query with its source operation,
    /// [`Self::run_incremental`] with its delta frontier.
    ///
    /// `num_threads` alone picks how the pass is driven: one thread (or one
    /// partition) is the serial loop below, anything else the executor on
    /// the worker pool. With no seeds the states are already the answer —
    /// and a parallel run that posts nothing would never observe quiescence.
    pub(crate) fn run_seeded<K: FppKernel>(
        &self,
        kernel: &K,
        mut states: Vec<K::State>,
        seeds: Vec<Operation<K::Value>>,
        watch: Stopwatch,
    ) -> ForkGraphRunResult<K::State> {
        let num_partitions = self.pg.num_partitions();
        let num_queries = states.len();
        if seeds.is_empty() {
            let measurement = self.build_measurement(
                Duration::ZERO,
                &WorkCounters::new(),
                &GraphAccessTracer::disabled(),
                num_queries,
            );
            return ForkGraphRunResult { per_query: states, measurement, profile: None };
        }
        let workers = self.config.resolved_threads();
        if workers > 1 && num_partitions > 1 {
            let pool = self.pool.get_or_init(|| {
                let pool =
                    Arc::new(WorkerPool::new(crate::pool::crew_size(workers, num_partitions)));
                if let Some(trace) = &self.trace {
                    pool.attach_trace(Arc::clone(trace));
                }
                pool
            });
            return crate::executor::run_parallel(
                self, kernel, states, seeds, workers, pool, watch,
            );
        }
        let tracer = match self.config.cache {
            Some(config) => GraphAccessTracer::new(config),
            None => GraphAccessTracer::disabled(),
        };
        let counters = WorkCounters::new();
        self.emit_trace(EventKind::RunBegin, num_queries as u32, 1, 0);
        let profiling = self.config.profile;
        let mut visit_ops = Histogram::default();

        // Everything a visit touches lives for the whole run: the lanes
        // inside the buffers, the remote-routing scratch, the scheduler's
        // candidate list. Nothing is built per visit or per yield.
        let mut buffers: Vec<PartitionBuffer<K::Value>> =
            (0..num_partitions).map(|_| PartitionBuffer::default()).collect();
        let mut remote: RemoteScratch<K::Value> = RemoteScratch::new(num_partitions);
        let mut scheduler = Scheduler::new(self.config.scheduling);

        // InitBuffers(P, Q).
        for op in seeds {
            let p = self.pg.partition_of(op.vertex) as usize;
            if buffers[p].is_empty() {
                scheduler.stamp(&mut buffers[p]);
            }
            buffers[p].push(op);
            counters.add_buffered(1);
        }
        let init_done = watch.elapsed();

        // Main loop: schedule a partition and visit its lanes, one query at a
        // time in ascending query order.
        while let Some(p) = scheduler.next(&buffers) {
            counters.add_partition_visit();
            // The visit pops and pushes this partition's lanes while routing
            // operations into the other partitions' buffers; taking the
            // buffer out for the duration keeps the two borrows apart.
            let mut buffer = std::mem::take(&mut buffers[p as usize]);
            let lanes = buffer.begin_visit();
            if profiling {
                visit_ops.record(buffer.len() as u64);
            }
            self.emit_trace(
                EventKind::PartitionVisitBegin,
                p,
                event_field(buffer.len() as u64),
                lanes as u32,
            );
            let visit = PartitionVisit::new(self, p, num_queries, &tracer, &counters);
            let mut done = LaneVisit::default();
            for i in 0..lanes {
                let (query, lane) = buffer.active_lane(i);
                debug_assert!((query as usize) < num_queries);
                done += visit.process_lane(
                    kernel,
                    query,
                    lane,
                    &mut states[query as usize],
                    &mut remote,
                );
                // Send operations to neighbour partitions in batches (Line 16).
                remote.flush(|target, batch| {
                    let target = &mut buffers[target as usize];
                    if target.is_empty() {
                        scheduler.stamp(target);
                    }
                    target.push_batch(batch.drain(..));
                });
            }
            buffer.end_visit();
            if !buffer.is_empty() {
                // Lanes that yielded stay resident; the partition goes to the
                // back of the FIFO line like any that just became runnable.
                scheduler.stamp(&mut buffer);
            }
            buffers[p as usize] = buffer;
            self.emit_trace(
                EventKind::PartitionVisitEnd,
                p,
                event_field(done.consumed),
                event_field(done.emitted_local),
            );
        }
        let main_done = watch.elapsed();

        counters.add_queries_completed(num_queries as u64);
        let measurement = self.build_measurement(watch.elapsed(), &counters, &tracer, num_queries);
        self.emit_trace(EventKind::RunEnd, num_queries as u32, 1, 0);
        let profile = profiling.then(|| {
            let work = &measurement.work;
            RunProfile {
                phases: fg_trace::PhaseTimes {
                    init: init_done,
                    processing: main_done.saturating_sub(init_done),
                    finalize: measurement.wall_time.saturating_sub(main_done),
                },
                workers: 1,
                partition_visits: work.partition_visits,
                visit_ops,
                steals_per_worker: Histogram::default(),
                steals: work.steals,
                yields: work.yields,
            }
        });
        ForkGraphRunResult { per_query: states, measurement, profile }
    }

    /// Assemble the [`Measurement`] of one run; shared between the serial loop
    /// and the parallel executor.
    pub(crate) fn build_measurement(
        &self,
        wall_time: Duration,
        counters: &WorkCounters,
        tracer: &GraphAccessTracer,
        num_queries: usize,
    ) -> Measurement {
        let graph = self.pg.graph();
        let num_partitions = self.pg.num_partitions();
        let cache_stats = tracer.stats();
        Measurement {
            label: "ForkGraph".to_string(),
            wall_time,
            work: counters.snapshot(),
            cache: self.config.cache.map(|_| CacheNumbers {
                accesses: cache_stats.accesses,
                loads: cache_stats.loads,
                misses: cache_stats.misses,
            }),
            memory: Some(MemoryEstimate {
                graph_bytes: graph.total_size_bytes() as u64,
                query_state_bytes: (num_queries * graph.num_vertices() * 8) as u64,
                // The one dense lane structure: each partition's
                // `query → lane` table of `u32` slots (an upper bound — a
                // table only grows to the highest query that reached it).
                auxiliary_bytes: (num_partitions * num_queries * 4) as u64,
            }),
            storage: Some(fg_metrics::StorageNumbers {
                compressed_partitions: self.pg.compressed_partitions() as u64,
                total_partitions: num_partitions as u64,
                payload_bytes_raw: self.pg.payload_bytes_raw() as u64,
                payload_bytes_compressed: self.pg.payload_bytes_compressed() as u64,
                bytes_per_edge: self.pg.bytes_per_edge(),
            }),
        }
    }

    /// Run a batch of queries of a *type-erased* kernel — the entry point
    /// used by `fg-service`'s batcher so that kernels registered at runtime
    /// (including ones defined entirely outside this workspace) flow through
    /// the identical execution path as the built-ins.
    ///
    /// This is [`Self::run`] behind one virtual call: the erasure wrapper
    /// invokes `run` with its concrete kernel, so the choice of serial loop
    /// or worker pool, scheduling, yielding, and the pool's `TypeId`-keyed
    /// storage recycling all behave exactly as a direct generic call would.
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
    /// calls them, and go with the `[benchmark]` PR of ROADMAP item (d).
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

    /// Resume converged queries after a **monotone** edge delta (insertions
    /// and weight decreases) instead of recomputing from scratch.
    ///
    /// `prev[q]` must be the converged state of a `kernel` run from
    /// `sources[q]` on the pre-delta graph, and this engine must hold the
    /// *post*-delta graph. Each query is re-seeded with one operation per
    /// delta edge that can still improve something
    /// ([`IncrementalKernel::delta_seed`]); the run then converges to the
    /// exact post-delta fixpoint, byte-identical to a from-scratch run, on
    /// the serial loop and on the pool alike. When no delta edge can improve
    /// any query, `prev` is already that fixpoint and is returned as is.
    ///
    /// Deletions and weight increases violate the precondition — callers
    /// must detect them (e.g. via `fg_graph::mutation::AppliedDeltas::
    /// monotone`) and fall back to [`Self::run`].
    ///
    /// # Panics
    /// Panics if `prev.len() != sources.len()`.
    pub fn run_incremental<K: IncrementalKernel>(
        &self,
        kernel: &K,
        sources: &[VertexId],
        prev: Vec<K::State>,
        delta: &[Edge],
    ) -> ForkGraphRunResult<K::State> {
        assert_eq!(
            prev.len(),
            sources.len(),
            "run_incremental: {} previous states for {} sources",
            prev.len(),
            sources.len()
        );
        let mut seeds = Vec::new();
        for (q, state) in prev.iter().enumerate() {
            for &(u, v, w) in delta {
                if let Some((value, priority)) = kernel.delta_seed(state, u, v, w) {
                    seeds.push(Operation::new(q as u32, v, value, priority));
                }
            }
        }
        self.run_seeded(kernel, prev, seeds, Stopwatch::start())
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
    fn sssp_with_value_range_yielding_is_exact() {
        let g = datasets::CA.generate_weighted(0.05);
        let pg = partitioned(&g, 8);
        let sources: Vec<VertexId> = vec![1, 50, 500];
        let oracle: Vec<Vec<Dist>> =
            sources.iter().map(|&s| fg_seq::dijkstra::dijkstra(&g, s).dist).collect();
        let config =
            EngineConfig::default().with_yield_policy(YieldPolicy::ValueRange { delta: 8 });
        let result = ForkGraphEngine::new(&pg, config).run_sssp(&sources);
        assert_eq!(result.per_query, oracle);
        assert!(result.work().yields > 0, "value-range yielding should trigger on a road graph");
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
    fn measurement_contains_cache_and_memory_when_enabled() {
        let g = gen::rmat(8, 5, 29).with_random_weights(6, 29);
        let pg = partitioned(&g, 4);
        let config = EngineConfig::default().with_cache(fg_cachesim::CacheConfig::tiny(64 * 1024));
        let result = ForkGraphEngine::new(&pg, config).run_sssp(&[0, 1, 2]);
        let cache = result.measurement.cache.unwrap();
        assert!(cache.accesses > 0 && cache.misses > 0);
        assert!(result.measurement.memory.unwrap().total_bytes() > 0);
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
