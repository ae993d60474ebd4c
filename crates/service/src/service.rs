//! The query-serving core: admission control, micro-batching, dispatch.
//!
//! One background *batcher* thread owns a long-lived [`ForkGraphEngine`] and
//! repeatedly: waits for pending submissions, lets a batch accumulate for the
//! configured window (or until the batch-size cap), drains **every ready
//! [`crate::query::BatchKey`] cohort** from the queue (up to
//! [`ServiceConfig::max_batch_size`] total queries), runs them as **one**
//! batch on one pinned epoch — a list of type-erased homogeneous passes run
//! back to back, each cohort's members resuming from an edge delta in a
//! pass of their own ahead of the rest — and demultiplexes the per-`(pass,
//! source)` results back to the submitters' tickets. Because dispatch is
//! erased, the batcher is kernel-agnostic: a
//! kernel registered five minutes ago flows through micro-batching, the
//! persistent worker pool, mixed batches, and the result cache exactly like
//! the built-ins.
//!
//! The submit path resolves each query against the service's
//! [`KernelRegistry`] (typed errors for unknown kernels and bad
//! parameters), is admission-controlled by a bounded queue — when full,
//! `submit` fails fast with [`ServiceError::Saturated`] instead of blocking
//! — and fronted by an LRU result cache so repeated hot queries never reach
//! the engine.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use fg_graph::mutation::{EdgeDelta, EdgeMutation, VersionedGraph};
use fg_graph::partitioned::PartitionedGraph;
use fg_graph::{Edge, VertexId};
use fg_metrics::{BatchRecord, LatencyReservoir, PoolSnapshot, ServiceSnapshot};
use fg_trace::{EventKind, TraceSink};
use forkgraph_core::kernels::{BfsKernel, SsspKernel};
use forkgraph_core::{EngineConfig, ErasedState, ForkGraphEngine, IncrementalKernel, WorkerPool};

use crate::adaptive;
use crate::lru::LruCache;
use crate::query::{BatchKey, CacheKey, Query, QueryResult};
use crate::registry::{KernelFactory, KernelId, KernelRegistry, RegistryError, ResolvedKernel};
use crate::ticket::{Slot, Ticket};

/// Tuning knobs of the serving layer.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// How long the batcher lets submissions accumulate after it starts
    /// forming a batch. Larger windows mean fuller batches (better cache
    /// reuse per the paper's batching thesis) at the cost of added latency.
    pub batch_window: Duration,
    /// Hard cap on queries per consolidated engine run.
    pub max_batch_size: usize,
    /// Admission-control bound on the pending queue; submissions beyond it
    /// are shed with [`ServiceError::Saturated`].
    pub max_queue_depth: usize,
    /// Capacity of the LRU result cache in entries (0 disables caching).
    pub cache_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            batch_window: Duration::from_millis(2),
            max_batch_size: 64,
            max_queue_depth: 1024,
            cache_capacity: 1024,
        }
    }
}

/// Typed failures surfaced to submitters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// Admission control shed the query: the pending queue is at capacity.
    /// Callers should back off and retry; blocking here would just move the
    /// queue into the clients.
    Saturated {
        /// Queue depth observed at rejection time.
        queue_depth: usize,
        /// The configured `max_queue_depth`.
        capacity: usize,
    },
    /// The service is shutting down and no longer accepts work.
    ShuttingDown,
    /// The query names a source vertex the graph doesn't have; rejected at
    /// submit time so a bad query can never reach (and panic) the engine.
    InvalidSource {
        /// The offending source vertex.
        source: VertexId,
        /// Number of vertices in the served graph.
        num_vertices: usize,
    },
    /// The query was built without [`Query::source`].
    MissingSource {
        /// The kernel the query named.
        kernel: String,
    },
    /// No kernel is registered under the query's name.
    UnknownKernel {
        /// The name the query asked for.
        name: String,
    },
    /// The named kernel's factory rejected the query's parameters.
    InvalidParams {
        /// The kernel whose factory rejected them.
        kernel: String,
        /// The factory's reason (names the offending parameter).
        reason: String,
    },
    /// The engine panicked while running this query's batch. The batcher
    /// survives and keeps serving subsequent batches.
    EngineFailure,
    /// An edge mutation was rejected before it reached the log (endpoint out
    /// of range, self-loop).
    InvalidMutation {
        /// The store's reason for refusing it.
        reason: String,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Saturated { queue_depth, capacity } => {
                write!(f, "service saturated: {queue_depth} queued of {capacity} capacity")
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::InvalidSource { source, num_vertices } => {
                write!(f, "source vertex {source} out of range (graph has {num_vertices} vertices)")
            }
            ServiceError::MissingSource { kernel } => {
                write!(f, "query for kernel {kernel:?} has no source vertex (call .source(v))")
            }
            ServiceError::UnknownKernel { name } => {
                write!(f, "no kernel registered under {name:?}")
            }
            ServiceError::InvalidParams { kernel, reason } => {
                write!(f, "invalid parameters for kernel {kernel:?}: {reason}")
            }
            ServiceError::EngineFailure => write!(f, "engine failed while executing the batch"),
            ServiceError::InvalidMutation { reason } => {
                write!(f, "invalid mutation: {reason}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<RegistryError> for ServiceError {
    fn from(error: RegistryError) -> Self {
        match error {
            RegistryError::UnknownKernel { name } => ServiceError::UnknownKernel { name },
            RegistryError::InvalidParams { kernel, reason } => {
                ServiceError::InvalidParams { kernel, reason }
            }
            // Registration-time-only error; mapped defensively.
            RegistryError::DuplicateName { name } => ServiceError::UnknownKernel { name },
        }
    }
}

/// Maximum number of per-batch sizing records retained (bounded ring).
const BATCH_RECORD_RING: usize = 1024;

/// One admitted query, resolved and keyed, waiting in the pending queue.
struct Pending {
    resolved: ResolvedKernel,
    source: VertexId,
    batch_key: BatchKey,
    slot: Arc<Slot>,
    submitted_at: Instant,
    /// Trace correlation id minted at submit (0 when the service is
    /// untraced); ties this ticket's `Submit → Enqueue → JoinBatch →
    /// Resolve` events into one flow across threads.
    trace_id: u32,
}

struct Inner {
    queue: VecDeque<Pending>,
    shutdown: bool,
    /// Drain mode: new submissions are rejected with
    /// [`ServiceError::ShuttingDown`] while the batcher keeps flushing the
    /// already-admitted backlog. Unlike `shutdown`, draining does not stop
    /// the batcher — a front door can stop admitting, let every in-flight
    /// ticket resolve, and only then tear the service down.
    draining: bool,
    /// The service's counts, each taken under this lock. The `submitted`,
    /// queue-depth, latency and graph-store fields stay zero:
    /// [`Shared::metrics`] fills them in.
    counts: ServiceSnapshot,
    /// Submit→result latency of every answered query, cache hits included.
    latencies: LatencyReservoir,
    /// The last [`BATCH_RECORD_RING`] batches' sizing decisions, oldest first.
    batch_records: VecDeque<BatchRecord>,
}

struct Shared {
    inner: Mutex<Inner>,
    /// Signalled on every submission and on shutdown; the batcher waits here.
    work_ready: Condvar,
    /// Answers with the graph version they were computed at. An entry stays
    /// until the LRU evicts it: the store says at lookup whether it is still
    /// fresh, and a stale one is the restart hint of its key's next run.
    cache: Mutex<LruCache<CacheKey, (u64, Arc<QueryResult>)>>,
    registry: KernelRegistry,
    config: ServiceConfig,
    /// The versioned graph store: mutations are logged here and folded into
    /// a fresh [`PartitionedGraph`] snapshot at the batcher's quiesce points,
    /// so no in-flight engine run ever observes a half-applied batch. It owns
    /// the epochs runs pin and counts its own folds; [`Shared::metrics`]
    /// reads those figures from it.
    store: VersionedGraph,
    /// Vertex count of the served graph, for submit-time source validation
    /// (mutations never add vertices, so this stays valid across versions).
    num_vertices: usize,
    /// Optional event sink; the whole submit/batch/resolve path is traced
    /// when present ([`ForkGraphService::start_traced`]).
    trace: Option<Arc<TraceSink>>,
}

impl Shared {
    /// One branch when untraced; see [`TraceSink::emit`].
    #[inline]
    fn emit(&self, kind: EventKind, a: u32, b: u32, c: u32) {
        if let Some(trace) = &self.trace {
            trace.emit(kind, a, b, c);
        }
    }

    /// Mint a flow correlation id, or 0 when untraced.
    fn next_trace_id(&self) -> u32 {
        self.trace.as_ref().map_or(0, |trace| trace.next_id())
    }

    /// The service's counts and queue depth, with the fold and epoch figures
    /// read from the store that owns them.
    fn metrics(&self) -> ServiceSnapshot {
        let epochs = self.store.epoch_stats();
        let (counts, latencies, queue_depth) = {
            let inner = self.inner.lock();
            (inner.counts, inner.latencies.clone(), inner.queue.len() as u64)
        };
        let (latency_p50, latency_p99, latency_samples) = latencies.percentiles();
        ServiceSnapshot {
            submitted: counts.admitted + counts.rejected + counts.cache_hits,
            queue_depth,
            latency_p50,
            latency_p99,
            latency_samples,
            mutations_applied: epochs.mutations_applied,
            epochs_advanced: epochs.epochs_advanced,
            partitions_rematerialized: epochs.partitions_rematerialized,
            partitions_shared: epochs.partitions_shared,
            snapshots_reclaimed: epochs.snapshots_reclaimed,
            oldest_pinned_epoch_lag: epochs.oldest_pinned_epoch_lag,
            ..counts
        }
    }
}

/// Cloneable submission endpoint, safe to hand to many client threads.
#[derive(Clone)]
pub struct ServiceHandle {
    shared: Arc<Shared>,
}

impl ServiceHandle {
    /// Submit an open-API [`Query`]. Returns a [`Ticket`] the caller can
    /// block on, or a typed error when
    /// the kernel is unknown, its parameters are invalid, the source is out
    /// of range, or the service is saturated / shutting down. Never blocks
    /// beyond two short critical sections.
    pub fn submit_query(&self, query: Query) -> Result<Ticket, ServiceError> {
        let shared = &*self.shared;

        let source = query
            .source_vertex()
            .ok_or_else(|| ServiceError::MissingSource { kernel: query.kernel_name().into() })?;
        // Validate before anything else: an out-of-range source must never
        // reach the engine (it would panic the batcher thread).
        if source as usize >= shared.num_vertices {
            return Err(ServiceError::InvalidSource { source, num_vertices: shared.num_vertices });
        }

        // Resolve name → registration → instantiated kernel + canonical
        // params. Unknown names and bad params fail here, synchronously.
        let resolved = shared.registry.resolve(query.kernel_name(), query.params())?;
        let batch_key = BatchKey { kernel: resolved.id, params: resolved.params.clone() };
        let trace_id = shared.next_trace_id();
        shared.emit(EventKind::Submit, trace_id, resolved.id.as_u64() as u32, source);

        // Fast path: answer repeated hot queries from the LRU cache. An entry
        // hits only if no fold since its version, and no pending mutation,
        // can reach `source` (per-partition over-approximation). The store
        // answers that in one lock section with publication, so a mutation
        // acknowledged before this call is seen either pending or folded — a
        // stale hit has no window. A stale entry stays: the batcher resumes
        // this key's run from it. The three locks (cache, store, queue) are
        // taken one after another, never nested.
        let mut stale = false;
        if shared.config.cache_capacity > 0 {
            let cache_key = CacheKey { key: batch_key.clone(), source };
            let entry = shared.cache.lock().get(&cache_key).cloned();
            if let Some((version, result)) = entry {
                if !shared.store.changed_since(version, source) {
                    let mut inner = shared.inner.lock();
                    inner.counts.cache_hits += 1;
                    inner.latencies.record(Duration::ZERO);
                    drop(inner);
                    shared.emit(EventKind::CacheHit, trace_id, resolved.id.as_u64() as u32, 0);
                    return Ok(Ticket::ready(Ok(result)));
                }
                stale = true;
            }
        }

        let mut inner = shared.inner.lock();
        inner.counts.cache_invalidations += u64::from(stale);
        if inner.shutdown || inner.draining {
            return Err(ServiceError::ShuttingDown);
        }
        let depth = inner.queue.len();
        if depth >= shared.config.max_queue_depth {
            inner.counts.rejected += 1;
            return Err(ServiceError::Saturated {
                queue_depth: depth,
                capacity: shared.config.max_queue_depth,
            });
        }
        let counts = &mut inner.counts;
        counts.cache_misses += 1;
        counts.admitted += 1;
        counts.max_queue_depth = counts.max_queue_depth.max(depth as u64 + 1);
        shared.emit(EventKind::Enqueue, trace_id, (depth + 1) as u32, 0);
        let slot = Slot::new();
        inner.queue.push_back(Pending {
            resolved,
            source,
            batch_key,
            slot: Arc::clone(&slot),
            submitted_at: Instant::now(),
            trace_id,
        });
        drop(inner);
        shared.work_ready.notify_all();
        Ok(Ticket::new(slot))
    }

    /// The kernel registry queries are resolved against. Register custom
    /// kernels here (or with the [`Self::register_kernel`] convenience) and
    /// they are immediately servable — batching, admission control, pool
    /// dispatch, and caching included.
    pub fn registry(&self) -> &KernelRegistry {
        &self.shared.registry
    }

    /// Register a kernel factory under `name` (no shadowing; see
    /// [`KernelRegistry::register`]).
    pub fn register_kernel(
        &self,
        name: &str,
        factory: impl KernelFactory + 'static,
    ) -> Result<KernelId, RegistryError> {
        self.shared.registry.register(name, factory)
    }

    /// Number of results currently held by the LRU cache (observability for
    /// invalidation and capacity tuning).
    pub fn cached_results(&self) -> usize {
        self.shared.cache.lock().len()
    }

    /// Stop admitting new queries without stopping the batcher: every
    /// subsequent submission that would enter the queue fails with
    /// [`ServiceError::ShuttingDown`], while already-admitted queries keep
    /// flowing through batches and resolve their tickets normally. Cache
    /// hits are still served (they cost no engine work). Idempotent; there
    /// is deliberately no un-drain — drain is the first step of a shutdown
    /// sequence, not a pause button.
    pub fn begin_drain(&self) {
        self.shared.inner.lock().draining = true;
        // Wake the batcher so a drain over an empty queue doesn't leave it
        // parked until the next (now-rejected) submission.
        self.shared.work_ready.notify_all();
    }

    /// Whether [`Self::begin_drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.shared.inner.lock().draining
    }

    /// Point-in-time service metrics. The fold and epoch figures come from
    /// the graph store in one read, so they are current the moment a fold is
    /// published (a [`Self::flush_mutations`] that returned is counted).
    pub fn metrics(&self) -> ServiceSnapshot {
        self.shared.metrics()
    }

    /// Log one [`EdgeMutation`] against the served graph. Validated (typed
    /// error) and enqueued synchronously; applied — together with every
    /// other pending mutation, atomically — at the batcher's next quiesce
    /// point, between engine runs. From the moment it is logged, no cached
    /// result it could reach is served. Returns the graph version that will
    /// first contain it; [`Self::flush_mutations`] waits for that version.
    /// Every acknowledged mutation lands, even one acknowledged just before
    /// [`ForkGraphService::shutdown`]: the batcher folds the log before it
    /// exits.
    pub fn mutate(&self, mutation: EdgeMutation) -> Result<u64, ServiceError> {
        let version = {
            // Logged under `inner`, so the batcher's last look at the log
            // before it exits cannot miss an acknowledged mutation.
            let inner = self.shared.inner.lock();
            if inner.shutdown || inner.draining {
                return Err(ServiceError::ShuttingDown);
            }
            self.shared.store.log(mutation)
        }
        .map_err(|error| ServiceError::InvalidMutation { reason: error.to_string() })?;
        // Wake the batcher: a pending mutation is work even when no queries
        // are queued (an idle service must still fold the batch in).
        self.shared.work_ready.notify_all();
        Ok(version)
    }

    /// The currently published graph version (0 until the first quiesce).
    pub fn graph_version(&self) -> u64 {
        self.shared.store.version()
    }

    /// Number of logged-but-unapplied mutations.
    pub fn pending_mutations(&self) -> usize {
        self.shared.store.pending_mutations()
    }

    /// The current graph snapshot (the store's latest published version).
    pub fn graph(&self) -> Arc<PartitionedGraph> {
        self.shared.store.current()
    }

    /// Block until every mutation logged before this call has been folded
    /// into a published snapshot; returns the version reached. Works during
    /// drain (drain stops admission, not the batcher) and after shutdown,
    /// which folds the log before the batcher exits.
    pub fn flush_mutations(&self) -> u64 {
        let store = &self.shared.store;
        loop {
            let version = store.version();
            if !store.has_pending() {
                // Read again: a fold published between the two reads holds
                // mutations the first read's version does not.
                return store.version();
            }
            self.shared.work_ready.notify_all();
            store.wait_for_version(version + 1);
        }
    }
}

/// An always-on ForkGraph query server over one shared [`PartitionedGraph`].
///
/// Owns the batcher thread; dropping (or [`shutdown`](Self::shutdown)ting)
/// the service flushes already-admitted queries, then stops.
pub struct ForkGraphService {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
    /// The persistent engine worker pool batches are dispatched onto (absent
    /// for one-worker configurations). Shared with the batcher; the last `Arc`
    /// drop — during [`Self::shutdown`]/`Drop` — joins the pool threads, so
    /// a shut-down service leaves no threads behind.
    pool: Option<Arc<WorkerPool>>,
}

impl ForkGraphService {
    /// Start the service over `graph` with the given engine and service
    /// configurations and its own registry, holding the built-ins (register
    /// custom kernels through [`ServiceHandle::register_kernel`]).
    ///
    /// `engine_config.num_threads` is the *cap* on per-batch parallelism:
    /// the batcher sizes each micro-batch's worker count adaptively with
    /// [`adaptive::effective_workers`] (a 2-query batch runs on one worker,
    /// a 64-query batch uses the full cap) and dispatches crews onto
    /// one persistent [`WorkerPool`] shared across all batches.
    pub fn start(
        graph: Arc<PartitionedGraph>,
        engine_config: EngineConfig,
        config: ServiceConfig,
    ) -> Self {
        Self::start_inner(graph, engine_config, config, None)
    }

    /// Start the service with event tracing: every submit, batch formation,
    /// engine run, and ticket resolution is recorded into `sink`, alongside
    /// the engine/executor/pool events of each dispatched run. Read the
    /// stream back through [`Self::trace_handle`].
    pub fn start_traced(
        graph: Arc<PartitionedGraph>,
        engine_config: EngineConfig,
        config: ServiceConfig,
        sink: Arc<TraceSink>,
    ) -> Self {
        Self::start_inner(graph, engine_config, config, Some(sink))
    }

    fn start_inner(
        graph: Arc<PartitionedGraph>,
        engine_config: EngineConfig,
        config: ServiceConfig,
        trace: Option<Arc<TraceSink>>,
    ) -> Self {
        let mut store = VersionedGraph::new(Arc::clone(&graph));
        if let Some(sink) = &trace {
            // Epoch and fold events land in the same stream as the
            // submit/batch/resolve flow.
            store = store.with_trace(Arc::clone(sink));
        }
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                shutdown: false,
                draining: false,
                counts: ServiceSnapshot::default(),
                latencies: LatencyReservoir::default(),
                batch_records: VecDeque::with_capacity(BATCH_RECORD_RING),
            }),
            work_ready: Condvar::new(),
            cache: Mutex::new(LruCache::new(config.cache_capacity)),
            registry: KernelRegistry::with_builtins(),
            config,
            store,
            num_vertices: graph.graph().num_vertices(),
            trace,
        });
        let max_workers = engine_config.resolved_threads();
        let pool = (max_workers > 1 && graph.num_partitions() > 1).then(|| {
            let pool = Arc::new(WorkerPool::new(forkgraph_core::pool::crew_size(
                max_workers,
                graph.num_partitions(),
            )));
            if let Some(trace) = &shared.trace {
                pool.attach_trace(Arc::clone(trace));
            }
            pool
        });
        let worker_shared = Arc::clone(&shared);
        let worker_pool = pool.clone();
        let worker = std::thread::Builder::new()
            .name("fg-service-batcher".into())
            .spawn(move || batcher_loop(worker_shared, graph, engine_config, worker_pool))
            .expect("failed to spawn fg-service batcher thread");
        ForkGraphService { shared, worker: Some(worker), pool }
    }

    /// A cloneable submission handle.
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle { shared: Arc::clone(&self.shared) }
    }

    /// The kernel registry queries are resolved against.
    pub fn registry(&self) -> &KernelRegistry {
        &self.shared.registry
    }

    /// Point-in-time service metrics; see [`ServiceHandle::metrics`].
    pub fn metrics(&self) -> ServiceSnapshot {
        self.shared.metrics()
    }

    /// Lifetime metrics of the persistent engine worker pool, or `None` for
    /// one-worker configurations.
    pub fn pool_metrics(&self) -> Option<PoolSnapshot> {
        self.pool.as_ref().map(|pool| pool.metrics())
    }

    /// Recent per-batch sizing decisions (bounded ring): how many queries
    /// each dispatched batch carried, the worker count the adaptive policy
    /// chose for it, and the kernel registration it ran.
    pub fn batch_records(&self) -> Vec<BatchRecord> {
        self.shared.inner.lock().batch_records.iter().copied().collect()
    }

    /// The service's observability surface: the trace sink plus ready-made
    /// Chrome-trace and Prometheus-exposition renderings over it. `None`
    /// unless the service was started with [`Self::start_traced`].
    pub fn trace_handle(&self) -> Option<TraceHandle> {
        self.shared.trace.as_ref().map(|sink| TraceHandle {
            sink: Arc::clone(sink),
            shared: Arc::clone(&self.shared),
            pool: self.pool.clone(),
        })
    }

    /// Stop admitting new queries while the batcher keeps serving the
    /// admitted backlog; see [`ServiceHandle::begin_drain`]. A front door
    /// calls this first, waits for its in-flight tickets to resolve, then
    /// calls [`Self::shutdown`].
    pub fn begin_drain(&self) {
        self.handle().begin_drain();
    }

    /// Whether [`Self::begin_drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.shared.inner.lock().draining
    }

    /// Stop accepting queries, flush the already-admitted backlog, join the
    /// batcher thread, and join the worker pool's threads.
    pub fn shutdown(mut self) {
        self.stop();
        // Dropping the last pool Arc joins the pool threads; the batcher's
        // clone was released when `stop` joined it.
        self.pool.take();
    }

    fn stop(&mut self) {
        self.shared.inner.lock().shutdown = true;
        self.shared.work_ready.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Drop for ForkGraphService {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A traced service's observability surface, detached from the service's
/// lifetime. Obtained from [`ForkGraphService::trace_handle`]; stays valid —
/// serving its last recorded state — after the service shuts down. It holds
/// the sink, the pool and the service's whole shared state (counts, graph
/// store, queue and answer cache), so a handle kept past shutdown keeps that
/// memory alive too.
#[derive(Clone)]
pub struct TraceHandle {
    sink: Arc<TraceSink>,
    shared: Arc<Shared>,
    pool: Option<Arc<WorkerPool>>,
}

impl TraceHandle {
    /// The underlying event sink (for direct event access or enable/disable).
    pub fn sink(&self) -> &Arc<TraceSink> {
        &self.sink
    }

    /// Render the recorded events as Chrome trace-event JSON, loadable in
    /// `chrome://tracing` or Perfetto ([`fg_trace::chrome::export`]).
    pub fn chrome_trace(&self) -> String {
        fg_trace::chrome::export(&self.sink)
    }

    /// Render the current service/pool/trace metrics in the Prometheus text
    /// exposition format ([`fn@fg_trace::expose`]) — a complete `/metrics`
    /// response body.
    pub fn exposition(&self) -> String {
        let service = self.shared.metrics();
        let pool = self.pool.as_ref().map(|pool| pool.metrics());
        let stats = self.sink.stats();
        fg_trace::expose(Some(&service), pool.as_ref(), Some(&stats))
    }
}

/// The batcher thread body.
fn batcher_loop(
    shared: Arc<Shared>,
    graph: Arc<PartitionedGraph>,
    engine_config: EngineConfig,
    pool: Option<Arc<WorkerPool>>,
) {
    let num_partitions = graph.num_partitions();
    drop(graph); // runs pin epoch snapshots; the start-time Arc is not needed
    let max_workers = engine_config.resolved_threads();
    loop {
        let cohorts = {
            let mut inner = shared.inner.lock();

            // Wait for work — queued queries, pending mutations, or shutdown.
            while inner.queue.is_empty() && !inner.shutdown && !shared.store.has_pending() {
                shared.work_ready.wait(&mut inner);
            }
            // Exit only once the log is folded too: `mutate` logs under
            // `inner`, so nothing acknowledged can arrive after this check.
            if inner.queue.is_empty() && inner.shutdown && !shared.store.has_pending() {
                break;
            }

            // Micro-batch accumulation: give concurrent submitters the
            // window to join this batch. Skipped when flushing at shutdown
            // and on mutation-only wakeups (an empty queue has no batch to
            // fill; the quiesce below should not wait on it).
            if !inner.queue.is_empty() && !inner.shutdown && !shared.config.batch_window.is_zero() {
                let deadline = Instant::now() + shared.config.batch_window;
                while !inner.shutdown && inner.queue.len() < shared.config.max_batch_size {
                    if shared.work_ready.wait_until(&mut inner, deadline).timed_out() {
                        break;
                    }
                }
            }

            // Drain the oldest `max_batch_size` queries and group them into
            // cohorts — one per distinct batch key, in arrival order of its
            // oldest member — for one batch. Queries that don't fit keep
            // their queue position and lead the next batch. O(batch ×
            // cohorts) under the lock, so submitters are stalled while this
            // runs.
            let total = inner.queue.len().min(shared.config.max_batch_size);
            let mut cohorts: Vec<Vec<Pending>> = Vec::new();
            for pending in inner.queue.drain(..total) {
                match cohorts.iter_mut().find(|members| members[0].batch_key == pending.batch_key) {
                    Some(members) => members.push(pending),
                    None => cohorts.push(vec![pending]),
                }
            }
            if total > 0 {
                let counts = &mut inner.counts;
                counts.batches_dispatched += 1;
                counts.queries_batched += total as u64;
                counts.max_batch_occupancy = counts.max_batch_occupancy.max(total as u64);
            }
            cohorts
        };

        // ---- Fold point ----
        // Fold the pending mutation log into the next epoch's snapshot. The
        // store materializes dirty partitions outside its lock — reads stay
        // pinned on the current epoch and the submit fast path keeps
        // admitting — counts and traces the fold itself, and touches no
        // cache entry: staleness is checked where an entry is read.
        shared.store.advance();

        // Mutation-only wakeup: nothing to dispatch.
        if cohorts.is_empty() {
            continue;
        }

        // ---- Passes ----
        // Each cohort contributes at most two passes: its members whose key
        // has a cached answer, if the kernel resumes ([`resume`]), resumed
        // from it across the edge changes since the oldest of those answers;
        // then the rest, from scratch. An answer at the current version
        // resumes across an empty delta, which runs nothing.
        let kernels_in_run = cohorts.len();
        let mut passes: Vec<Pass> = Vec::with_capacity(kernels_in_run);
        for members in cohorts {
            let hints: Vec<Option<(u64, Arc<QueryResult>)>> = match resume(members[0].resolved.id) {
                Some(_) => {
                    let mut cache = shared.cache.lock();
                    let key = |p: &Pending| CacheKey { key: p.batch_key.clone(), source: p.source };
                    members.iter().map(|p| cache.get(&key(p)).cloned()).collect()
                }
                None => vec![None; members.len()],
            };
            let oldest = hints.iter().flatten().map(|&(version, _)| version).min();
            // A hint older than the fold log re-runs from scratch.
            let delta = oldest.and_then(|version| shared.store.delta_since(version));
            let (mut resumed, mut fresh) = (Pass::default(), Pass::default());
            for (pending, hint) in members.into_iter().zip(hints) {
                match hint.filter(|_| delta.is_some()) {
                    Some((_, hint)) => {
                        resumed.members.push(pending);
                        resumed.hints.push(hint);
                    }
                    None => fresh.members.push(pending),
                }
            }
            resumed.delta = delta.unwrap_or_default();
            passes.extend([resumed, fresh].into_iter().filter(|pass| !pass.members.is_empty()));
        }

        let batch_id = shared.next_trace_id();
        if shared.trace.is_some() {
            for pending in passes.iter().flat_map(|pass| &pass.members) {
                shared.emit(EventKind::JoinBatch, pending.trace_id, batch_id, 0);
            }
        }

        // Adaptive sizing: pick the worker count for *this* batch from its
        // total size over every pass (pure policy in `adaptive`) and the
        // partition count, then build a per-batch engine — cheap (two refs +
        // a config copy) — that dispatches onto the shared persistent pool
        // when parallel.
        let total: usize = passes.iter().map(|pass| pass.members.len()).sum();
        let workers = adaptive::effective_workers(total, num_partitions, max_workers);
        let record = BatchRecord {
            batch_size: total as u32,
            workers: workers as u32,
            kernel_id: passes[0].members[0].resolved.id.as_u64(),
            kernels_in_run: kernels_in_run as u32,
        };
        {
            let mut inner = shared.inner.lock();
            inner.counts.max_batch_workers = inner.counts.max_batch_workers.max(workers as u64);
            inner.counts.mixed_runs += u64::from(kernels_in_run >= 2);
            if inner.batch_records.len() == BATCH_RECORD_RING {
                inner.batch_records.pop_front();
            }
            inner.batch_records.push_back(record);
        }
        let batch_config = engine_config.with_threads(workers);
        // One pin per batch: the guard keeps this epoch's snapshot alive for
        // exactly the engine's lifetime — every pass of the batch reads the
        // same epoch — and the borrow ties the engine to it. A fold
        // publishing the next epoch mid-run never touches the pinned
        // storage; it is reclaimed when the guard drops below.
        let pin = shared.store.pin();
        let epoch = pin.epoch();
        let engine = match &pool {
            Some(pool) if workers > 1 => {
                ForkGraphEngine::with_pool(pin.graph(), batch_config, Arc::clone(pool))
            }
            _ => ForkGraphEngine::new(pin.graph(), batch_config),
        };
        let engine = match &shared.trace {
            Some(sink) => engine.with_trace_sink(Arc::clone(sink)),
            None => engine,
        };
        shared.emit(EventKind::BatchBegin, batch_id, total as u32, kernels_in_run as u32);

        // The passes run back to back on one engine, one type-erased kernel
        // call each — this is where concurrent requests turn into the
        // paper's fork-processing pattern, for built-in and registered
        // kernels alike. A hinted pass resumes (and runs from scratch if its
        // hints do not fit the kernel). An engine panic must not wedge the
        // service: contain it, fail the
        // batch's tickets, and keep serving (submit-time validation makes
        // this unreachable for the known panic class of bad sources, but
        // registered kernels are user code).
        let mut incremental_runs = 0;
        let per_pass_states = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            passes
                .iter()
                .map(|pass| {
                    let resolved = &pass.members[0].resolved;
                    let sources: Vec<VertexId> = pass.members.iter().map(|p| p.source).collect();
                    let resumed = match resume(resolved.id) {
                        Some(resume) if !pass.hints.is_empty() => {
                            let (seeds, raised) = &pass.delta;
                            resume(&engine, &sources, &pass.hints, EdgeDelta { seeds, raised })
                        }
                        _ => None,
                    };
                    match resumed {
                        Some(states) => {
                            incremental_runs += 1;
                            states
                        }
                        None => engine.run_dyn(&*resolved.kernel, &sources).per_query,
                    }
                })
                .collect::<Vec<_>>()
        }));
        let per_pass_states = match per_pass_states {
            // `DynKernel` is an open trait: a hand-implemented `run_erased`
            // (bypassing `erase`) could return the wrong number of states.
            // Zipping short would strand the surplus submitters on tickets
            // that never resolve, so a length mismatch fails the whole batch
            // the same way a kernel panic does — and the batcher keeps
            // serving.
            Ok(states)
                if states.iter().zip(&passes).all(|(s, pass)| s.len() == pass.members.len()) =>
            {
                states
            }
            _ => {
                shared.emit(EventKind::BatchEnd, batch_id, 0, 0);
                for pending in passes.into_iter().flat_map(|pass| pass.members) {
                    // Emit before fulfil everywhere a ticket resolves: a
                    // waiter woken by `fulfil` may snapshot the trace
                    // immediately, and its Resolve event must already be in
                    // the ring.
                    shared.emit(EventKind::Resolve, pending.trace_id, batch_id, 0);
                    pending.slot.fulfil(Err(ServiceError::EngineFailure));
                }
                continue;
            }
        };
        shared.emit(EventKind::BatchEnd, batch_id, 0, 0);

        // Cache every answer, count the batch, then fulfil with no lock held:
        // a waiter woken by `fulfil` sees its own query counted, and an
        // `on_ready` callback may call straight back into the service.
        let now = Instant::now();
        let mut answered = Vec::with_capacity(total);
        for (pass, states) in passes.into_iter().zip(per_pass_states) {
            let resolved = &pass.members[0].resolved;
            let kernel_id = resolved.id;
            let kernel_name = Arc::clone(&resolved.name);
            let state_type = resolved.kernel.state_type_name();
            let mut cache = (shared.config.cache_capacity > 0).then(|| shared.cache.lock());
            for (pending, state) in pass.members.into_iter().zip(states) {
                let result = Arc::new(QueryResult::new(
                    kernel_id,
                    Arc::clone(&kernel_name),
                    state_type,
                    state,
                ));
                if let Some(cache) = cache.as_mut() {
                    let cache_key = CacheKey { key: pending.batch_key, source: pending.source };
                    cache.insert(cache_key, (epoch, Arc::clone(&result)));
                }
                answered.push((pending.slot, pending.trace_id, pending.submitted_at, result));
            }
        }
        {
            let mut inner = shared.inner.lock();
            inner.counts.incremental_runs += incremental_runs;
            for &(_, _, submitted_at, _) in &answered {
                inner.latencies.record(now.saturating_duration_since(submitted_at));
            }
        }
        for (slot, trace_id, _, result) in answered {
            shared.emit(EventKind::Resolve, trace_id, batch_id, 0);
            slot.fulfil(Ok(result));
        }
    }

    // Reject anything that slipped in after the shutdown flag (submitters
    // racing the flag see ShuttingDown from `submit` itself; this is belt and
    // braces for entries admitted just before it was set).
    let leftovers: Vec<Pending> = shared.inner.lock().queue.drain(..).collect();
    for pending in leftovers {
        shared.emit(EventKind::Resolve, pending.trace_id, 0, 0);
        pending.slot.fulfil(Err(ServiceError::ShuttingDown));
    }
}

/// One engine pass of a dispatched batch: members of one cohort, run by one
/// engine call.
#[derive(Default)]
struct Pass {
    members: Vec<Pending>,
    /// `hints[i]` is the cached answer `members[i]` resumes from; empty for
    /// a from-scratch pass.
    hints: Vec<Arc<QueryResult>>,
    /// The `(seeds, raised)` edge changes since the oldest hint's version.
    delta: (Vec<Edge>, Vec<Edge>),
}

/// Resumes a pass from its hints after an edge delta.
type Resume = fn(
    &ForkGraphEngine<'_>,
    &[VertexId],
    &[Arc<QueryResult>],
    EdgeDelta<'_>,
) -> Option<Vec<ErasedState>>;

/// The registrations whose cached answers can be resumed, and how: the
/// built-in SSSP and BFS kernels, through
/// [`ForkGraphEngine::run_incremental`]. `None` for every other
/// registration, whose queued members always run from scratch.
fn resume(kernel: KernelId) -> Option<Resume> {
    match kernel {
        KernelId::SSSP => Some(resume_with::<SsspKernel>),
        KernelId::BFS => Some(resume_with::<BfsKernel>),
        _ => None,
    }
}

/// [`ForkGraphEngine::run_incremental`] with `K`, previous states cloned from
/// the hints; `None` when a hint's state is not `K`'s (defensive: a matching
/// `CacheKey` implies it), so the pass runs from scratch instead.
fn resume_with<K: IncrementalKernel + Default>(
    engine: &ForkGraphEngine<'_>,
    sources: &[VertexId],
    hints: &[Arc<QueryResult>],
    delta: EdgeDelta<'_>,
) -> Option<Vec<ErasedState>>
where
    K::State: Clone + Sync + 'static,
{
    let prev: Vec<K::State> =
        hints.iter().map(|hint| hint.downcast_ref::<K::State>().cloned()).collect::<Option<_>>()?;
    let run = engine.run_incremental(&K::default(), sources, prev, delta);
    Some(run.per_query.into_iter().map(|state| Arc::new(state) as ErasedState).collect())
}
