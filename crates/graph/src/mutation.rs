//! Versioned graph storage with edge mutations and epoch snapshots.
//!
//! The engine and everything above it consume an immutable
//! [`Arc<PartitionedGraph>`]; this module is the seam that lets the graph
//! *change* without any in-flight run observing a half-applied batch.
//!
//! [`VersionedGraph`] is the one owner of the published snapshots. Each
//! published version is an *epoch*: version `N`'s snapshot plus the count of
//! runs pinning it. Writers append [`EdgeMutation`]s to a pending log at any
//! time; a reader pins the current epoch with [`VersionedGraph::pin`] and
//! keeps that snapshot, through the RAII [`SnapshotGuard`], for the length of
//! one run. Only the current epoch can be pinned. An older one lingers while
//! its pins last and is reclaimed when the last one drops, or at the fold
//! that retires it if nothing pinned it:
//!
//! ```text
//!   fold publishes N ──► current (pins come and go) ──► fold publishes N+1
//!                                                            │ retires N
//!                       pins == 0 at retire? ── yes ──► reclaimed at once
//!                                  │ no
//!                                  ▼
//!                       last SnapshotGuard drop ──────► reclaimed
//! ```
//!
//! [`VersionedGraph::advance`] folds the whole pending log into the next
//! snapshot in two private halves, so a fold overlaps in-flight reads:
//!
//! * `prepare` copies the log (without draining it, so
//!   [`changed_since`](VersionedGraph::changed_since) keeps reporting the
//!   sources it can reach while the fold is in flight) and — entirely
//!   outside the locks — folds it into the next snapshot: the next CSR
//!   copies the old CSR's rows, merging the batch's final per-pair edits
//!   into the rows they touch, and **only dirty partitions'** stores are
//!   rebuilt from it; every clean partition's
//!   [`Arc<PartitionStore>`](crate::partitioned::PartitionStore) is shared
//!   with the previous epoch. The
//!   [`PartitionPlan`](crate::partition::PartitionPlan) is reused
//!   (vertex count is immutable, so the old assignment stays valid).
//! * `publish` atomically drains the consumed prefix, publishes the next
//!   epoch (retiring the current one), records which partitions the fold
//!   could reach and its edge changes, and adds it to the running totals of
//!   [`EpochStats`] — all under one short lock section.
//!
//! The store then answers the two questions a cache of answers asks, each
//! in one lock section:
//!
//! * [`changed_since(version, source)`](VersionedGraph::changed_since) — can
//!   a fold after `version`, or a pending mutation, have changed the answer
//!   from `source`?
//! * [`delta_since(version)`](VersionedGraph::delta_since) — the edge changes
//!   since `version`, in the two lists a min-plus restart (SSSP/BFS) reads:
//!   every changed edge that still exists, at its latest weight, and every
//!   deleted or heavier edge, at the smallest weight it had. The fold log
//!   behind it holds at most 4 096 edges (`FOLD_LOG_EDGES`); a version older
//!   than the log gets `None`.
//!
//! Reachability is computed on the partition quotient graph (partition `p`
//! has an arc to `q` iff some edge crosses from `p` to `q`), closed
//! reflexively and transitively with bitset rows. A mutation on edge
//! `(u, v)` can only change the result of a source `s` if `s` reaches `u`;
//! `reaches(part(s), part(u))` over the *union* of old and new quotient
//! edges over-approximates that for inserts and deletes alike.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use fg_trace::{EventKind, TraceSink};

use crate::partition::PartitionId;
use crate::partitioned::{PartitionStore, PartitionedGraph};
use crate::{Edge, VertexId, Weight};

/// A single logged edge mutation.
///
/// Semantics at merge time (applied in log order):
/// * `Insert` of an existing edge overwrites its weight.
/// * `Delete` of a missing edge is a no-op.
/// * `UpdateWeight` of a missing edge inserts it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeMutation {
    /// Add edge `u → v` with weight `w` (or overwrite an existing weight).
    Insert {
        /// Source endpoint.
        u: VertexId,
        /// Target endpoint.
        v: VertexId,
        /// Edge weight.
        w: Weight,
    },
    /// Remove edge `u → v` if present.
    Delete {
        /// Source endpoint.
        u: VertexId,
        /// Target endpoint.
        v: VertexId,
    },
    /// Set the weight of `u → v` to `w` (inserting if absent).
    UpdateWeight {
        /// Source endpoint.
        u: VertexId,
        /// Target endpoint.
        v: VertexId,
        /// New edge weight.
        w: Weight,
    },
}

impl EdgeMutation {
    /// The `(u, v)` endpoints the mutation touches.
    pub fn endpoints(&self) -> (VertexId, VertexId) {
        match *self {
            EdgeMutation::Insert { u, v, .. }
            | EdgeMutation::Delete { u, v }
            | EdgeMutation::UpdateWeight { u, v, .. } => (u, v),
        }
    }
}

/// Why a mutation was rejected at log time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutationError {
    /// An endpoint is outside the (immutable) vertex range.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: VertexId,
        /// The graph's vertex count.
        num_vertices: usize,
    },
    /// Self-loops are never stored (the builder drops them too).
    SelfLoop {
        /// The vertex looping onto itself.
        vertex: VertexId,
    },
}

impl std::fmt::Display for MutationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            MutationError::VertexOutOfRange { vertex, num_vertices } => {
                write!(f, "vertex {vertex} out of range for graph with {num_vertices} vertices")
            }
            MutationError::SelfLoop { vertex } => {
                write!(f, "self-loop on vertex {vertex} rejected")
            }
        }
    }
}

impl std::error::Error for MutationError {}

/// Seed plus raised edges the fold log keeps. A cached answer older than the
/// log re-runs from scratch instead of resuming across an ever longer delta,
/// which every resume reads once per query.
const FOLD_LOG_EDGES: usize = 4096;

const POISONED: &str = "a panic while holding the store's lock";

/// Reflexive-transitive closure of the partition quotient graph, stored as
/// one bitset row per source partition.
struct PartitionReachability {
    num_partitions: usize,
    words_per_row: usize,
    rows: Vec<u64>,
}

impl PartitionReachability {
    /// Closure over the quotient adjacency `adj` (same row layout).
    fn close(num_partitions: usize, adj: &[u64]) -> Self {
        let words = num_partitions.div_ceil(64).max(1);
        let mut rows = adj.to_vec();
        // Reflexive.
        for p in 0..num_partitions {
            rows[p * words + p / 64] |= 1u64 << (p % 64);
        }
        // Warshall with bitset rows: if i reaches k, i reaches all of row k.
        for k in 0..num_partitions {
            for i in 0..num_partitions {
                if rows[i * words + k / 64] >> (k % 64) & 1 == 1 {
                    for w in 0..words {
                        let bits = rows[k * words + w];
                        rows[i * words + w] |= bits;
                    }
                }
            }
        }
        PartitionReachability { num_partitions, words_per_row: words, rows }
    }

    /// Partitions that can reach *any* partition in `dirty` — i.e. the set
    /// of source partitions whose cached results a batch touching `dirty`
    /// could possibly change. Returned as a dense membership vector.
    fn partitions_reaching(&self, dirty: &[PartitionId]) -> Vec<bool> {
        let words = self.words_per_row;
        let mut mask = vec![0u64; words];
        for &d in dirty {
            let d = d as usize;
            debug_assert!(d < self.num_partitions);
            mask[d / 64] |= 1u64 << (d % 64);
        }
        (0..self.num_partitions)
            .map(|p| (0..words).any(|w| self.rows[p * words + w] & mask[w] != 0))
            .collect()
    }

    /// Does `from`'s row intersect the raw bitset `mask` (same word layout)?
    fn row_intersects(&self, from: PartitionId, mask: &[u64]) -> bool {
        let words = self.words_per_row;
        let base = from as usize * words;
        (0..words).any(|w| self.rows[base + w] & mask[w] != 0)
    }
}

/// Quotient adjacency of `graph` under its own partition plan: bit `q` of
/// row `p` is set iff some edge goes from partition `p` to partition `q`.
/// Concatenates the per-partition rows cached on the stores — `O(k · words)`,
/// not an `O(m)` edge scan.
fn quotient_adjacency(pg: &PartitionedGraph) -> Vec<u64> {
    (0..pg.num_partitions())
        .flat_map(|p| pg.store(p as PartitionId).quotient_row.iter().copied())
        .collect()
}

/// The edge changes between the graph a converged state was computed on and
/// a later graph, as a restart reads them (see
/// `forkgraph_core::ForkGraphEngine::run_incremental`). One fold's delta is
/// [`AppliedDeltas::delta`]; several folds' is
/// [`VersionedGraph::delta_since`].
#[derive(Clone, Copy, Debug, Default)]
pub struct EdgeDelta<'a> {
    /// Every changed edge that exists in the later graph, at its weight
    /// there: insertions, decreases and increases alike.
    pub seeds: &'a [Edge],
    /// Every edge that was deleted or made heavier, at the smallest weight
    /// it had since the earlier graph.
    pub raised: &'a [Edge],
}

/// One applied mutation batch: the new snapshot and its edge changes.
pub struct AppliedDeltas {
    /// The post-merge snapshot (same plan, new CSR).
    pub graph: Arc<PartitionedGraph>,
    /// Version of the new snapshot.
    pub version: u64,
    /// How many logged mutations this batch merged.
    pub mutations: usize,
    /// Every effectively changed edge that exists after the batch, at its
    /// final weight: new edges and weight changes in either direction.
    pub seed_edges: Vec<Edge>,
    /// Every effective deletion and weight increase, at the edge's weight
    /// before the batch.
    pub raised_edges: Vec<Edge>,
    /// Partitions containing the source endpoint of an effective change.
    pub dirty_partitions: Vec<PartitionId>,
    /// Partitions whose stores were rebuilt for this batch (== the dirty
    /// count).
    pub partitions_rematerialized: usize,
    /// Partitions whose stores are `Arc`-shared with the previous epoch.
    pub partitions_shared: usize,
}

impl AppliedDeltas {
    /// This batch's edge changes, as a restart from the previous snapshot
    /// reads them.
    pub fn delta(&self) -> EdgeDelta<'_> {
        EdgeDelta { seeds: &self.seed_edges, raised: &self.raised_edges }
    }
}

/// A mutation fold computed off the locks by [`VersionedGraph::prepare`],
/// awaiting [`VersionedGraph::publish`]. Holding one does not block readers
/// or writers; the consumed log prefix stays pending (and keeps answering
/// [`VersionedGraph::changed_since`]) until publish.
struct PreparedFold {
    /// Version the fold was computed against; publish asserts it still holds.
    base_version: u64,
    /// Length of the log prefix this fold consumed.
    consumed: usize,
    seed_edges: Vec<Edge>,
    raised_edges: Vec<Edge>,
    dirty_partitions: Vec<PartitionId>,
    graph: Arc<PartitionedGraph>,
    /// Per partition, whether the fold can change an answer from a source
    /// there (closure over the *union* of old and new quotient edges).
    reached: Vec<bool>,
    partitions_rematerialized: usize,
    partitions_shared: usize,
}

/// Fold and snapshot figures of a [`VersionedGraph`], read in one lock
/// section by [`VersionedGraph::epoch_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Epochs published since construction: the current version.
    pub epochs_advanced: u64,
    /// Logged mutations the folds merged.
    pub mutations_applied: u64,
    /// Dirty partitions re-materialized across all folds.
    pub partitions_rematerialized: u64,
    /// Clean partitions `Arc`-shared with the previous epoch across all folds.
    pub partitions_shared: u64,
    /// Retired snapshots whose storage has been released, at the fold that
    /// retired them or at their last unpin.
    pub snapshots_reclaimed: u64,
    /// Current version minus the oldest version still pinned; 0 when every
    /// pin reads the current snapshot.
    pub oldest_pinned_epoch_lag: u64,
    /// Snapshots held: the current one plus every retired one still pinned.
    pub live_epochs: usize,
}

/// The running totals behind [`EpochStats`]; the rest of it is read off the
/// live epochs.
#[derive(Default)]
struct FoldTotals {
    mutations_applied: u64,
    partitions_rematerialized: u64,
    partitions_shared: u64,
    snapshots_reclaimed: u64,
}

/// One published snapshot and the number of runs pinning it.
struct Epoch {
    version: u64,
    graph: Arc<PartitionedGraph>,
    pins: usize,
}

struct VgInner {
    /// Published snapshots still alive, oldest first. The last is the current
    /// one, the only one [`VersionedGraph::pin`] hands out; an older one
    /// stays until its last pin drops.
    epochs: Vec<Epoch>,
    totals: FoldTotals,
    pending: Vec<EdgeMutation>,
    /// Per partition, the version of the latest fold that could reach a
    /// source there.
    last_reached: Vec<u64>,
    /// `(version, seed_edges, raised_edges)` of recent folds that changed an
    /// edge, oldest first, at most [`FOLD_LOG_EDGES`] edges in all.
    fold_log: VecDeque<(u64, Vec<Edge>, Vec<Edge>)>,
    /// The fold log holds every fold after this version.
    fold_log_since: u64,
    /// Closure over the current snapshot's quotient adjacency ∪ pending
    /// endpoints' quotient arcs — the over-approximation used to answer
    /// "could a pending mutation affect source s?" before the batch is
    /// applied.
    pending_reach: Option<PartitionReachability>,
    /// Bitset of partitions containing a pending mutation's source endpoint.
    pending_touched: Vec<u64>,
}

impl VgInner {
    /// The current epoch: the last published.
    fn head(&self) -> &Epoch {
        self.epochs.last().expect("the current epoch is never reclaimed")
    }

    fn words(&self) -> usize {
        self.head().graph.num_partitions().div_ceil(64).max(1)
    }

    fn refresh_pending_reach(&mut self) {
        let current = &self.head().graph;
        let parts = current.num_partitions();
        let words = self.words();
        if self.pending.is_empty() {
            self.pending_reach = None;
            self.pending_touched = vec![0u64; words];
            return;
        }
        let mut adj = quotient_adjacency(current);
        let mut touched = vec![0u64; words];
        for m in &self.pending {
            let (u, v) = m.endpoints();
            let pu = current.partition_of(u) as usize;
            let pv = current.partition_of(v) as usize;
            adj[pu * words + pv / 64] |= 1u64 << (pv % 64);
            touched[pu / 64] |= 1u64 << (pu % 64);
        }
        self.pending_reach = Some(PartitionReachability::close(parts, &adj));
        self.pending_touched = touched;
    }
}

/// The versioned storage seam: the published snapshots plus a pending
/// mutation log, merged at fold points.
///
/// Thread-safe; writers and readers may call concurrently. Only one caller
/// should drive [`advance`](Self::advance) (typically the batch loop that
/// owns the fold points), but concurrent advance calls are merely
/// serialized, never incorrect.
pub struct VersionedGraph {
    inner: Mutex<VgInner>,
    applied: Condvar,
    /// Serializes the (deliberately lock-free-in-the-middle) fold in
    /// [`advance`](Self::advance).
    advance_gate: Mutex<()>,
    /// Receives `EpochPin`/`EpochUnpin`/`EpochAdvance`/`DeltaFold` events
    /// when set.
    trace: Option<Arc<TraceSink>>,
}

impl VersionedGraph {
    /// Wrap `graph` as version 0 with an empty mutation log.
    pub fn new(graph: Arc<PartitionedGraph>) -> Self {
        let parts = graph.num_partitions();
        VersionedGraph {
            inner: Mutex::new(VgInner {
                epochs: vec![Epoch { version: 0, graph, pins: 0 }],
                totals: FoldTotals::default(),
                pending: Vec::new(),
                last_reached: vec![0; parts],
                fold_log: VecDeque::new(),
                fold_log_since: 0,
                pending_reach: None,
                pending_touched: vec![0u64; parts.div_ceil(64).max(1)],
            }),
            applied: Condvar::new(),
            advance_gate: Mutex::new(()),
            trace: None,
        }
    }

    /// Route epoch and fold events (`EpochPin`/`EpochUnpin`/`EpochAdvance`/
    /// `DeltaFold`) to `sink`.
    pub fn with_trace(mut self, sink: Arc<TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    fn lock(&self) -> MutexGuard<'_, VgInner> {
        self.inner.lock().expect(POISONED)
    }

    fn emit(&self, kind: EventKind, a: u32, b: u32, c: u32) {
        if let Some(sink) = &self.trace {
            sink.emit(kind, a, b, c);
        }
    }

    /// The current snapshot. Runs resolved against it stay valid for their
    /// lifetime; publish swaps the pointer, it never mutates the pointee.
    pub fn current(&self) -> Arc<PartitionedGraph> {
        Arc::clone(&self.lock().head().graph)
    }

    /// Pin the current epoch's snapshot for one engine run. The guard's
    /// epoch number equals the graph version it snapshots; a retired
    /// epoch's storage is reclaimed when the last guard on it drops.
    pub fn pin(&self) -> SnapshotGuard<'_> {
        let (epoch, graph, pins) = {
            let mut inner = self.lock();
            let head = inner.epochs.last_mut().expect("the current epoch is never reclaimed");
            head.pins += 1;
            (head.version, Arc::clone(&head.graph), head.pins)
        };
        self.emit(EventKind::EpochPin, epoch as u32, pins as u32, 0);
        SnapshotGuard { store: self, epoch, graph }
    }

    /// The fold and snapshot figures, consistent with one another: the
    /// running totals of every fold, and the pins and retired snapshots of
    /// this moment.
    pub fn epoch_stats(&self) -> EpochStats {
        let inner = self.lock();
        let version = inner.head().version;
        let oldest_pinned = inner.epochs.iter().find(|e| e.pins > 0).map_or(version, |e| e.version);
        let totals = &inner.totals;
        EpochStats {
            epochs_advanced: version,
            mutations_applied: totals.mutations_applied,
            partitions_rematerialized: totals.partitions_rematerialized,
            partitions_shared: totals.partitions_shared,
            snapshots_reclaimed: totals.snapshots_reclaimed,
            oldest_pinned_epoch_lag: version - oldest_pinned,
            live_epochs: inner.epochs.len(),
        }
    }

    /// Version of the current snapshot (0 at construction, +1 per applied
    /// batch).
    pub fn version(&self) -> u64 {
        self.lock().head().version
    }

    /// Number of logged-but-unapplied mutations.
    pub fn pending_mutations(&self) -> usize {
        self.lock().pending.len()
    }

    /// Is there anything waiting for the next quiesce point?
    pub fn has_pending(&self) -> bool {
        !self.lock().pending.is_empty()
    }

    /// Could a fold published after `version`, or a pending mutation, have
    /// changed results computed from `source`? Over-approximate
    /// (partition-granular, union reachability); `false` means an answer
    /// computed at `version` is definitely still fresh. One lock section, so
    /// the answer is atomic with publication: a mutation logged before the
    /// call is seen either pending or folded.
    pub fn changed_since(&self, version: u64, source: VertexId) -> bool {
        let inner = self.lock();
        let part = inner.head().graph.partition_of(source);
        inner.last_reached[part as usize] > version
            || inner
                .pending_reach
                .as_ref()
                .is_some_and(|reach| reach.row_intersects(part, &inner.pending_touched))
    }

    /// The edge changes of every fold after `version`, as one
    /// `(seeds, raised)` pair for an [`EdgeDelta`]; `None` once the fold log
    /// no longer reaches back to `version`. Folds are absorbed oldest first:
    /// a raised pair leaves the seeds and keeps the smallest weight it was
    /// raised from, then the fold's seed edges go in at their latest weight.
    /// The result is also a sound delta for a state converged at any later
    /// version: its extra seeds offer real paths, and its extra raised edges
    /// can only enlarge the cone.
    pub fn delta_since(&self, version: u64) -> Option<(Vec<Edge>, Vec<Edge>)> {
        let inner = self.lock();
        if version < inner.fold_log_since {
            return None;
        }
        let mut seeds = BTreeMap::new();
        let mut raised: BTreeMap<(VertexId, VertexId), Weight> = BTreeMap::new();
        for (_, fold_seeds, fold_raised) in inner.fold_log.iter().filter(|fold| fold.0 > version) {
            for &(u, v, before) in fold_raised {
                seeds.remove(&(u, v));
                raised.entry((u, v)).and_modify(|w| *w = before.min(*w)).or_insert(before);
            }
            for &(u, v, w) in fold_seeds {
                seeds.insert((u, v), w);
            }
        }
        let list = |map: BTreeMap<_, _>| map.into_iter().map(|((u, v), w)| (u, v, w)).collect();
        Some((list(seeds), list(raised)))
    }

    /// Log `insert_edge(u, v, w)`. Returns the version that will first
    /// contain it (current version + 1).
    pub fn insert_edge(&self, u: VertexId, v: VertexId, w: Weight) -> Result<u64, MutationError> {
        self.log(EdgeMutation::Insert { u, v, w })
    }

    /// Log `delete_edge(u, v)`. Returns the version that will first reflect
    /// it.
    pub fn delete_edge(&self, u: VertexId, v: VertexId) -> Result<u64, MutationError> {
        self.log(EdgeMutation::Delete { u, v })
    }

    /// Log `update_weight(u, v, w)`. Returns the version that will first
    /// reflect it.
    pub fn update_weight(&self, u: VertexId, v: VertexId, w: Weight) -> Result<u64, MutationError> {
        self.log(EdgeMutation::UpdateWeight { u, v, w })
    }

    /// Validate and append one mutation to the pending log.
    pub fn log(&self, mutation: EdgeMutation) -> Result<u64, MutationError> {
        let mut inner = self.lock();
        let n = inner.head().graph.graph().num_vertices();
        let (u, v) = mutation.endpoints();
        for endpoint in [u, v] {
            if endpoint as usize >= n {
                return Err(MutationError::VertexOutOfRange { vertex: endpoint, num_vertices: n });
            }
        }
        if u == v {
            return Err(MutationError::SelfLoop { vertex: u });
        }
        inner.pending.push(mutation);
        inner.refresh_pending_reach();
        Ok(inner.head().version + 1)
    }

    /// Block until the snapshot version reaches `version` (i.e. every
    /// mutation logged before the corresponding call has been applied).
    pub fn wait_for_version(&self, version: u64) {
        let mut inner = self.lock();
        while inner.head().version < version {
            inner = self.applied.wait(inner).expect(POISONED);
        }
    }

    /// Fold a prefix of the pending log into the next snapshot **without
    /// draining the log or swapping anything**. Returns `None` when the log
    /// is empty. The fold runs entirely outside the locks, so readers keep
    /// pinning and querying the current epoch while it materializes — and
    /// because the prefix stays pending,
    /// [`changed_since`](Self::changed_since) keeps reporting affected
    /// sources until [`publish`](Self::publish) lands the new version.
    ///
    /// The next CSR is built from the current one plus the final state of
    /// every pair the prefix touched — equal to
    /// [`crate::CsrGraph::from_sorted_edges`] over the mutated edge set. Only dirty
    /// partitions' stores (those containing the source endpoint of an
    /// effective change) are rebuilt from it; every clean partition's store
    /// is `Arc`-shared with the current snapshot. A net-no-op prefix reuses
    /// the whole snapshot `Arc`.
    ///
    /// Contract: a single fold driver. Two overlapping prepares would both
    /// fold from the same base version, and the second publish panics on its
    /// stale base; [`advance`](Self::advance) serializes them on its gate.
    fn prepare(&self) -> Option<PreparedFold> {
        let (old, batch, base_version) = {
            let inner = self.lock();
            if inner.pending.is_empty() {
                return None;
            }
            let head = inner.head();
            (Arc::clone(&head.graph), inner.pending.clone(), head.version)
        };

        // Replay the prefix to a net effect per touched endpoint pair.
        let csr = old.graph();
        let before_weight = |u: VertexId, v: VertexId| -> Option<Weight> {
            csr.out_edges(u).find(|&(t, _)| t == v).map(|(_, w)| w)
        };
        // (pair) -> (weight before the batch, final weight; None = absent).
        let mut touched: BTreeMap<(VertexId, VertexId), (Option<Weight>, Option<Weight>)> =
            BTreeMap::new();
        for m in &batch {
            let (u, v) = m.endpoints();
            let entry = touched.entry((u, v)).or_insert_with(|| {
                let b = before_weight(u, v);
                (b, b)
            });
            entry.1 = match *m {
                EdgeMutation::Insert { w, .. } | EdgeMutation::UpdateWeight { w, .. } => Some(w),
                EdgeMutation::Delete { .. } => None,
            };
        }

        let (mut seed_edges, mut raised_edges) = (Vec::new(), Vec::new());
        let mut dirty = vec![false; old.num_partitions()];
        for (&(u, v), &(before, after)) in &touched {
            if before == after {
                continue; // net no-op
            }
            if let Some(b) = before.filter(|&b| after.is_none_or(|a| a > b)) {
                raised_edges.push((u, v, b)); // deletion or weight increase
            }
            if let Some(a) = after {
                seed_edges.push((u, v, a));
            }
            dirty[old.partition_of(u) as usize] = true;
        }
        let dirty_partitions: Vec<PartitionId> =
            (0..old.num_partitions() as PartitionId).filter(|&p| dirty[p as usize]).collect();

        let parts = old.num_partitions();
        let graph = if dirty_partitions.is_empty() {
            // Net no-op: the snapshot is bit-identical, share it outright
            // (the version still bumps at publish so waiters unblock).
            Arc::clone(&old)
        } else {
            let changes: Vec<(VertexId, VertexId, Option<Weight>)> =
                touched.iter().map(|(&(u, v), &(_, after))| (u, v, after)).collect();
            let next = Arc::new(csr.with_changes(&changes));
            // A dirty store is rebuilt from the new CSR under the snapshot's
            // storage policy (a dirty compressed partition is re-encoded); a
            // clean one is Arc-shared untouched.
            let stores: Vec<Arc<PartitionStore>> = (0..parts as PartitionId)
                .map(|p| {
                    if !dirty[p as usize] {
                        return Arc::clone(old.store(p));
                    }
                    Arc::new(PartitionStore::build(
                        &next,
                        p,
                        old.partition(p).vertices.clone(),
                        old.plan(),
                        old.config().storage,
                    ))
                })
                .collect();
            Arc::new(PartitionedGraph::from_stores(next, old.plan().clone(), *old.config(), stores))
        };

        // Union closure: old ∪ new quotient arcs cover both "could reach the
        // deleted edge" and "can reach the inserted edge".
        let mut union = quotient_adjacency(&old);
        for (arcs, next_arcs) in union.iter_mut().zip(quotient_adjacency(&graph)) {
            *arcs |= next_arcs;
        }
        let reached =
            PartitionReachability::close(parts, &union).partitions_reaching(&dirty_partitions);

        let rematerialized = dirty_partitions.len();
        Some(PreparedFold {
            base_version,
            consumed: batch.len(),
            seed_edges,
            raised_edges,
            dirty_partitions,
            graph,
            reached,
            partitions_rematerialized: rematerialized,
            partitions_shared: parts - rematerialized,
        })
    }

    /// Swap in a [`prepare`](Self::prepare)d fold: drain the consumed log
    /// prefix, publish the new snapshot as the next epoch (reclaiming the
    /// retired one at once if nothing pins it), stamp the partitions the fold
    /// can reach and log its edge changes, count it, and wake
    /// [`wait_for_version`](Self::wait_for_version) waiters. One short lock
    /// section; never materializes anything.
    ///
    /// Panics if the snapshot version moved since the fold was prepared
    /// (two concurrent fold drivers — see [`prepare`](Self::prepare)).
    fn publish(&self, fold: PreparedFold) -> AppliedDeltas {
        let PreparedFold {
            base_version,
            consumed,
            seed_edges,
            raised_edges,
            dirty_partitions,
            graph,
            reached,
            partitions_rematerialized,
            partitions_shared,
        } = fold;
        let version = base_version + 1;
        {
            let mut guard = self.lock();
            let inner = &mut *guard;
            assert_eq!(
                inner.head().version,
                base_version,
                "PreparedFold published against a stale base (concurrent fold drivers?)"
            );
            inner.pending.drain(..consumed);
            if inner.head().pins == 0 {
                // Nobody reads the retired epoch: its storage goes now (the
                // clean partitions live on in the new epoch's stores).
                inner.epochs.pop();
                inner.totals.snapshots_reclaimed += 1;
            }
            inner.epochs.push(Epoch { version, graph: Arc::clone(&graph), pins: 0 });
            inner.totals.mutations_applied += consumed as u64;
            inner.totals.partitions_rematerialized += partitions_rematerialized as u64;
            inner.totals.partitions_shared += partitions_shared as u64;
            for (stamp, _) in inner.last_reached.iter_mut().zip(&reached).filter(|(_, &hit)| hit) {
                *stamp = version;
            }
            if !seed_edges.is_empty() || !raised_edges.is_empty() {
                inner.fold_log.push_back((version, seed_edges.clone(), raised_edges.clone()));
                let mut logged: usize = inner.fold_log.iter().map(|f| f.1.len() + f.2.len()).sum();
                while logged > FOLD_LOG_EDGES {
                    let (oldest, seeds, raised) = inner.fold_log.pop_front().expect("edges logged");
                    logged -= seeds.len() + raised.len();
                    inner.fold_log_since = oldest;
                }
            }
            inner.refresh_pending_reach();
            self.applied.notify_all();
        }
        let (remat, shared) = (partitions_rematerialized as u32, partitions_shared as u32);
        self.emit(EventKind::EpochAdvance, version as u32, remat, shared);
        let dirty = dirty_partitions.len() as u32;
        self.emit(EventKind::DeltaFold, consumed as u32, dirty, base_version as u32);

        AppliedDeltas {
            graph,
            version,
            mutations: consumed,
            seed_edges,
            raised_edges,
            dirty_partitions,
            partitions_rematerialized,
            partitions_shared,
        }
    }

    /// Prepare and publish in one call, serialized by the internal gate.
    /// Returns `None` when the log is empty.
    pub fn advance(&self) -> Option<AppliedDeltas> {
        let _gate = self.advance_gate.lock().expect(POISONED);
        let fold = self.prepare()?;
        Some(self.publish(fold))
    }
}

/// RAII pin on one epoch's snapshot, from [`VersionedGraph::pin`]. Holding
/// the guard keeps that epoch's [`PartitionedGraph`] (and every partition
/// store it references) alive; dropping the last guard on a retired epoch
/// releases the store's reference so the storage can be reclaimed.
pub struct SnapshotGuard<'a> {
    store: &'a VersionedGraph,
    epoch: u64,
    graph: Arc<PartitionedGraph>,
}

impl SnapshotGuard<'_> {
    /// The pinned epoch number (equal to the graph version it snapshots).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The pinned snapshot. The reference cannot outlive the guard, so an
    /// engine borrowing it is type-checked against the pin's lifetime.
    pub fn graph(&self) -> &PartitionedGraph {
        &self.graph
    }
}

impl Drop for SnapshotGuard<'_> {
    fn drop(&mut self) {
        let (pins_left, reclaimed) = {
            // Drop must not panic: a store poisoned by an earlier panic
            // keeps the pin.
            let Ok(mut inner) = self.store.inner.lock() else { return };
            let idx = inner
                .epochs
                .iter()
                .position(|e| e.version == self.epoch)
                .expect("pinned epoch present until last guard drops");
            inner.epochs[idx].pins -= 1;
            let pins_left = inner.epochs[idx].pins;
            // A retired epoch — any but the last — goes with its last pin.
            let reclaimed = pins_left == 0 && idx + 1 < inner.epochs.len();
            if reclaimed {
                inner.epochs.remove(idx);
                inner.totals.snapshots_reclaimed += 1;
            }
            (pins_left, reclaimed)
        };
        self.store.emit(
            EventKind::EpochUnpin,
            self.epoch as u32,
            pins_left as u32,
            reclaimed as u32,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{PartitionConfig, PartitionMethod, PartitionPlan};
    use crate::{CsrGraph, StorageConfig};

    /// Fixed even chunking: vertex `v` lands in partition `v / (n / parts)`,
    /// so tests can reason about the quotient graph exactly.
    fn pg(edges: &[Edge], n: usize, parts: usize) -> Arc<PartitionedGraph> {
        pg_with(edges, n, parts, StorageConfig::Raw)
    }

    fn pg_with(
        edges: &[Edge],
        n: usize,
        parts: usize,
        storage: StorageConfig,
    ) -> Arc<PartitionedGraph> {
        let mut sorted = edges.to_vec();
        sorted.sort_unstable();
        let csr = Arc::new(CsrGraph::from_sorted_edges(n, &sorted, true));
        let chunk = n / parts;
        let plan = PartitionPlan {
            assignment: (0..n).map(|v| ((v / chunk).min(parts - 1)) as PartitionId).collect(),
            num_partitions: parts,
        };
        Arc::new(PartitionedGraph::from_plan(
            csr,
            plan,
            PartitionConfig::with_partitions(PartitionMethod::Chunked, parts).with_storage(storage),
        ))
    }

    #[test]
    fn insert_bumps_version_and_adds_edge() {
        let vg = VersionedGraph::new(pg(&[(0, 1, 5)], 8, 2));
        assert_eq!(vg.version(), 0);
        assert!(!vg.has_pending());
        let target = vg.insert_edge(1, 2, 7).unwrap();
        assert_eq!(target, 1);
        assert!(vg.has_pending());
        let applied = vg.advance().expect("one pending mutation");
        assert_eq!(applied.version, 1);
        assert_eq!(vg.version(), 1);
        assert!(applied.raised_edges.is_empty());
        assert_eq!(applied.seed_edges, vec![(1, 2, 7)]);
        assert_eq!(applied.mutations, 1);
        let g = vg.current();
        assert_eq!(g.graph().num_edges(), 2);
        assert_eq!(g.graph().out_edges(1).collect::<Vec<_>>(), vec![(2, 7)]);
        assert!(!vg.has_pending());
        assert!(vg.advance().is_none());
    }

    #[test]
    fn merge_semantics_follow_log_order() {
        let vg = VersionedGraph::new(pg(&[(0, 1, 5)], 8, 2));
        vg.insert_edge(0, 1, 3).unwrap(); // overwrite = decrease
        vg.delete_edge(2, 3).unwrap(); // delete missing = no-op
        vg.update_weight(4, 5, 9).unwrap(); // update missing = insert
        let applied = vg.advance().unwrap();
        assert!(applied.raised_edges.is_empty(), "no effective delete/increase in this batch");
        let mut seeds = applied.seed_edges.clone();
        seeds.sort_unstable();
        assert_eq!(seeds, vec![(0, 1, 3), (4, 5, 9)]);
        let g = vg.current();
        assert_eq!(g.graph().out_edges(0).collect::<Vec<_>>(), vec![(1, 3)]);
        assert_eq!(g.graph().out_edges(4).collect::<Vec<_>>(), vec![(5, 9)]);
        assert_eq!(g.graph().out_neighbors(2), &[] as &[VertexId]);
    }

    /// A deletion is raised at its old weight; an increase is raised at its
    /// old weight and seeds at its new one; a delete and re-insert at a
    /// lower weight in one batch nets to a decrease.
    #[test]
    fn deletes_and_increases_are_raised_at_their_old_weight() {
        let base = pg(&[(0, 1, 5), (1, 2, 2), (2, 3, 4)], 8, 2);
        let vg = VersionedGraph::new(Arc::clone(&base));
        vg.delete_edge(0, 1).unwrap();
        vg.update_weight(1, 2, 10).unwrap(); // increase
        vg.delete_edge(2, 3).unwrap();
        vg.insert_edge(2, 3, 1).unwrap(); // net decrease
        let applied = vg.advance().unwrap();
        assert_eq!(applied.raised_edges, vec![(0, 1, 5), (1, 2, 2)]);
        assert_eq!(applied.seed_edges, vec![(1, 2, 10), (2, 3, 1)]);
        assert_eq!(applied.delta().raised, &applied.raised_edges[..]);
        assert_eq!(vg.current().graph().num_edges(), 2);
    }

    /// A delta across several folds keeps the smallest weight a pair was
    /// raised from, drops a deleted pair from its seeds, and seeds a
    /// re-inserted one at its latest weight; it holds exactly the folds after
    /// the version asked for.
    #[test]
    fn delta_since_keeps_the_smallest_raised_weight_and_the_latest_seed() {
        let vg = VersionedGraph::new(pg(&[(0, 1, 5), (1, 2, 2)], 8, 2));
        for mutation in [
            EdgeMutation::UpdateWeight { u: 0, v: 1, w: 3 }, // decrease: seed
            EdgeMutation::UpdateWeight { u: 0, v: 1, w: 9 }, // raised from 3
            EdgeMutation::Delete { u: 0, v: 1 },             // raised from 9
            EdgeMutation::Delete { u: 1, v: 2 },             // raised from 2
            EdgeMutation::Insert { u: 1, v: 2, w: 4 },       // back, at 4
        ] {
            vg.log(mutation).unwrap();
            vg.advance().unwrap();
        }
        assert_eq!(vg.delta_since(0), Some((vec![(1, 2, 4)], vec![(0, 1, 3), (1, 2, 2)])));
        // The suffix after version 2: the delete of 0 → 1 (from 9), then 1 → 2.
        assert_eq!(vg.delta_since(2), Some((vec![(1, 2, 4)], vec![(0, 1, 9), (1, 2, 2)])));
        assert_eq!(vg.delta_since(4), Some((vec![(1, 2, 4)], vec![])));
        assert_eq!(vg.delta_since(5), Some((vec![], vec![])), "nothing after the current version");
    }

    /// The fold log keeps at most `FOLD_LOG_EDGES` edges: a version whose
    /// folds were trimmed gets `None`, a later one its exact suffix.
    #[test]
    fn delta_since_is_none_once_the_fold_log_is_trimmed() {
        let n = 200;
        let vg = VersionedGraph::new(pg(&[], n, 2));
        // Three folds of 1 500 new edges each: the third pushes out the first.
        let mut edges = (0..n as VertexId)
            .flat_map(|u| (0..n as VertexId).filter(move |&v| v != u).map(move |v| (u, v)));
        for _ in 0..3 {
            for (u, v) in edges.by_ref().take(1500) {
                vg.insert_edge(u, v, 1).unwrap();
            }
            vg.advance().unwrap();
        }
        assert_eq!(vg.delta_since(0), None, "the first fold left the log");
        let (seeds, raised) = vg.delta_since(1).expect("folds 2 and 3 are logged");
        assert_eq!((seeds.len(), raised.len()), (3000, 0));
        assert_eq!(vg.delta_since(2).unwrap().0.len(), 1500);
    }

    /// A single fold larger than the log's bound empties it: only the
    /// current version still has a delta (an empty one).
    #[test]
    fn a_fold_larger_than_the_log_bound_empties_it() {
        let n = 100;
        let vg = VersionedGraph::new(pg(&[], n, 2));
        vg.insert_edge(0, 1, 1).unwrap();
        vg.advance().unwrap();
        for (u, v) in (0..n as VertexId)
            .flat_map(|u| (0..n as VertexId).filter(move |&v| v != u).map(move |v| (u, v)))
            .take(FOLD_LOG_EDGES + 1)
        {
            vg.insert_edge(u, v, 2).unwrap();
        }
        vg.advance().unwrap();
        assert_eq!(vg.delta_since(0), None);
        assert_eq!(vg.delta_since(1), None, "the oversized fold itself is not logged");
        assert_eq!(vg.delta_since(2), Some((vec![], vec![])));
    }

    /// An answer stays fresh across a fold that cannot reach its source's
    /// partition, and is stale while a mutation that can is pending and
    /// after it folds.
    #[test]
    fn changed_since_follows_reachability_across_folds() {
        // Chunked over 8 vertices / 4 partitions: {0,1} {2,3} {4,5} {6,7};
        // the only arc between partitions is 0 → 2.
        let vg = VersionedGraph::new(pg(&[(0, 2, 1)], 8, 4));
        vg.insert_edge(6, 7, 1).unwrap(); // only partition 3 reaches it
        assert!(vg.changed_since(0, 6), "pending, reaching");
        assert!(!vg.changed_since(0, 0), "pending, not reaching");
        vg.advance().unwrap();
        assert!(vg.changed_since(0, 7), "folded, reaching");
        assert!(!vg.changed_since(1, 7), "an answer at the fold's version is fresh");
        for source in [0, 2, 4] {
            assert!(!vg.changed_since(0, source), "a fold that cannot reach {source}");
        }
        vg.insert_edge(2, 3, 1).unwrap(); // partition 1, reached from 0 too
        vg.advance().unwrap();
        assert!(vg.changed_since(1, 0) && vg.changed_since(1, 3));
        assert!(!vg.changed_since(1, 4) && !vg.changed_since(1, 6));
    }

    #[test]
    fn net_noop_batch_has_no_delta() {
        let vg = VersionedGraph::new(pg(&[(0, 1, 5)], 8, 2));
        vg.delete_edge(0, 1).unwrap();
        vg.insert_edge(0, 1, 5).unwrap(); // restores the original weight
        let applied = vg.advance().unwrap();
        assert!(applied.raised_edges.is_empty());
        assert!(applied.seed_edges.is_empty());
        assert!(applied.dirty_partitions.is_empty());
        assert_eq!(applied.mutations, 2);
    }

    #[test]
    fn mutation_validation() {
        let vg = VersionedGraph::new(pg(&[(0, 1, 5)], 4, 2));
        assert_eq!(
            vg.insert_edge(0, 9, 1),
            Err(MutationError::VertexOutOfRange { vertex: 9, num_vertices: 4 })
        );
        assert_eq!(vg.insert_edge(2, 2, 1), Err(MutationError::SelfLoop { vertex: 2 }));
        assert!(!vg.has_pending());
    }

    #[test]
    fn plan_is_preserved_across_advance() {
        let base = pg(&[(0, 1, 1), (4, 5, 1)], 8, 4);
        let plan_before = base.plan().clone();
        let vg = VersionedGraph::new(base);
        vg.insert_edge(1, 4, 2).unwrap();
        let applied = vg.advance().unwrap();
        assert_eq!(applied.graph.plan(), &plan_before);
        assert_eq!(applied.graph.num_partitions(), 4);
    }

    #[test]
    fn reachability_over_approximates_affected_sources() {
        // Chunked over 8 vertices / 4 partitions: {0,1} {2,3} {4,5} {6,7}.
        // Chain 0→2→4: partition 0 reaches 1 reaches 2; partition 3 isolated.
        let base = pg(&[(0, 2, 1), (2, 4, 1)], 8, 4);
        let vg = VersionedGraph::new(base);
        vg.insert_edge(4, 5, 1).unwrap(); // mutation inside partition 2

        // Pending check: sources in partitions 0, 1, 2 can reach partition 2;
        // partition 3 cannot.
        assert!(vg.changed_since(0, 0));
        assert!(vg.changed_since(0, 2));
        assert!(vg.changed_since(0, 4), "same-partition sources are always affected");
        assert!(!vg.changed_since(0, 6));

        let applied = vg.advance().unwrap();
        assert_eq!(applied.dirty_partitions, vec![2]);
        let affected: Vec<bool> = [0, 2, 4, 6].iter().map(|&s| vg.changed_since(0, s)).collect();
        assert_eq!(affected, vec![true, true, true, false]);
        assert!(!vg.changed_since(1, 0), "log drained, nothing pending");
    }

    #[test]
    fn union_reachability_covers_deleted_paths() {
        // 0→2 is the only inter-partition arc; delete it. Old-graph
        // reachability must still say partition 0 is affected.
        let vg = VersionedGraph::new(pg(&[(0, 2, 1)], 4, 2));
        vg.delete_edge(0, 2).unwrap();
        assert!(vg.changed_since(0, 0));
        let applied = vg.advance().unwrap();
        assert_eq!(applied.raised_edges, vec![(0, 2, 1)]);
        assert!(vg.changed_since(0, 0), "source partition of the deleted edge is affected");
    }

    /// The acceptance Arc-identity test: a localized batch re-materializes
    /// exactly its dirty partition's store; every clean partition is shared
    /// (`Arc::ptr_eq`) with the previous epoch under either storage policy,
    /// and the fold equals a from-scratch build of the mutated edge set.
    #[test]
    fn localized_fold_shares_clean_partition_stores() {
        for storage in [StorageConfig::Raw, StorageConfig::Compressed] {
            // Chunked over 8 vertices / 4 partitions: {0,1} {2,3} {4,5} {6,7}.
            let base =
                pg_with(&[(0, 1, 1), (2, 3, 1), (3, 0, 2), (4, 5, 1), (6, 7, 1)], 8, 4, storage);
            let vg = VersionedGraph::new(Arc::clone(&base));
            // Every source in partition 1: an insert, an increase, a delete.
            vg.insert_edge(2, 5, 4).unwrap();
            vg.update_weight(2, 3, 7).unwrap();
            vg.delete_edge(3, 0).unwrap();
            let applied = vg.advance().unwrap();
            assert_eq!(applied.dirty_partitions, vec![1]);
            assert_eq!(applied.partitions_rematerialized, 1);
            assert_eq!(applied.partitions_shared, 3);
            let new = &applied.graph;
            assert!(!Arc::ptr_eq(new.store(1), base.store(1)), "dirty store rebuilt");
            for p in [0, 2, 3] {
                assert!(Arc::ptr_eq(new.store(p), base.store(p)), "{storage:?}: clean store {p}");
            }
            let mutated = [(0, 1, 1), (2, 3, 7), (2, 5, 4), (4, 5, 1), (6, 7, 1)];
            assert_eq!(new.graph(), &CsrGraph::from_sorted_edges(8, &mutated, true));
            let scratch = pg_with(&mutated, 8, 4, storage);
            for p in 0..4 {
                let (folded, built) = (new.store(p), scratch.store(p));
                assert_eq!(folded.info, built.info, "{storage:?}: partition {p}");
                assert_eq!(folded.quotient_row, built.quotient_row, "{storage:?}: row {p}");
                assert_eq!(folded.compressed, built.compressed, "{storage:?}: payload {p}");
            }
        }
    }

    /// Random batches of all three mutation kinds: every fold publishes the
    /// CSR and stores a from-scratch build of the mutated edge set gives.
    #[test]
    fn folds_equal_scratch_builds_over_random_histories() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let (n, parts) = (40usize, 5usize);
        let start = crate::gen::erdos_renyi(n, 120, 3).with_random_weights(9, 3);
        for storage in [StorageConfig::Raw, StorageConfig::Compressed] {
            let mut rng = SmallRng::seed_from_u64(0xF01D);
            let mut model: BTreeMap<(VertexId, VertexId), Weight> =
                start.edges().map(|(u, v, w)| ((u, v), w)).collect();
            let vg =
                VersionedGraph::new(pg_with(&start.edges().collect::<Vec<_>>(), n, parts, storage));
            for round in 0..20 {
                for _ in 0..rng.gen_range(1usize..12) {
                    let u: VertexId = rng.gen_range(0..n as VertexId);
                    let v = (u + rng.gen_range(1..n as VertexId)) % n as VertexId;
                    let w: Weight = rng.gen_range(1..10);
                    match rng.gen_range(0u32..3) {
                        0 => vg.insert_edge(u, v, w).map(|_| model.insert((u, v), w)),
                        1 => vg.update_weight(u, v, w).map(|_| model.insert((u, v), w)),
                        _ => vg.delete_edge(u, v).map(|_| model.remove(&(u, v))),
                    }
                    .unwrap();
                }
                let folded = vg.advance().unwrap().graph;
                let edges: Vec<Edge> = model.iter().map(|(&(u, v), &w)| (u, v, w)).collect();
                let scratch = pg_with(&edges, n, parts, storage);
                assert_eq!(folded.graph(), scratch.graph(), "{storage:?} round {round}");
                for p in 0..parts as PartitionId {
                    let (a, b) = (folded.store(p), scratch.store(p));
                    assert_eq!(a.info, b.info, "{storage:?} round {round} partition {p}");
                    assert_eq!(a.quotient_row, b.quotient_row);
                    assert_eq!(a.compressed, b.compressed);
                }
            }
        }
    }

    /// Deletions rebuild the owning partition too, and a net-no-op batch
    /// shares the entire snapshot.
    #[test]
    fn fold_reuse_extends_to_whole_snapshot_on_net_noop() {
        let base = pg(&[(0, 1, 5), (4, 5, 1)], 8, 4);
        let vg = VersionedGraph::new(Arc::clone(&base));
        vg.delete_edge(0, 1).unwrap();
        vg.insert_edge(0, 1, 5).unwrap();
        let applied = vg.advance().unwrap();
        assert_eq!(applied.version, 1, "net no-op still bumps the version");
        assert_eq!(applied.partitions_rematerialized, 0);
        assert_eq!(applied.partitions_shared, 4);
        assert!(Arc::ptr_eq(&applied.graph, &base), "whole snapshot shared");

        vg.delete_edge(4, 5).unwrap();
        let applied = vg.advance().unwrap();
        assert_eq!(applied.raised_edges, vec![(4, 5, 1)]);
        assert_eq!(applied.dirty_partitions, vec![2]);
        assert!(!Arc::ptr_eq(applied.graph.store(2), base.store(2)));
        assert_eq!(applied.graph.graph().num_edges(), 1);
    }

    /// prepare() leaves the log pending (the freshness check keeps firing)
    /// until publish() drains exactly the consumed prefix.
    #[test]
    fn prepare_keeps_log_pending_until_publish() {
        let vg = VersionedGraph::new(pg(&[(0, 2, 1)], 8, 4));
        vg.insert_edge(2, 4, 3).unwrap();
        let fold = vg.prepare().expect("one pending mutation");
        assert_eq!(fold.consumed, 1);
        assert_eq!(fold.base_version, 0);
        assert_eq!(fold.dirty_partitions, &[1]);
        // Mid-fold: still pending, still stale for affected sources.
        assert!(vg.has_pending());
        assert!(vg.changed_since(0, 0), "source reaching the edit stays stale mid-fold");
        assert!(!vg.changed_since(0, 6));
        assert_eq!(vg.version(), 0);
        // A mutation logged mid-fold survives the publish drain.
        vg.insert_edge(6, 7, 1).unwrap();
        let applied = vg.publish(fold);
        assert_eq!(applied.version, 1);
        assert_eq!(applied.mutations, 1);
        assert_eq!(vg.pending_mutations(), 1, "mid-fold log entry still pending");
        assert!(vg.changed_since(1, 6));
        assert!(vg.changed_since(0, 0) && !vg.changed_since(1, 0), "published, stamped");
        let applied = vg.advance().unwrap();
        assert_eq!(applied.version, 2);
        assert!(!vg.has_pending());
    }

    /// Two folds prepared from one base: the first publishes, the second
    /// would publish a version that already exists and panics.
    #[test]
    #[should_panic(expected = "stale base")]
    fn publishing_a_fold_from_a_stale_base_panics() {
        let vg = VersionedGraph::new(pg(&[(0, 1, 1)], 8, 2));
        vg.insert_edge(1, 2, 1).unwrap();
        let (first, second) = (vg.prepare().unwrap(), vg.prepare().unwrap());
        assert_eq!((first.base_version, second.base_version), (0, 0));
        vg.publish(first);
        vg.publish(second);
    }

    /// Log one new edge out of vertex `u` and fold it.
    fn fold_one(vg: &VersionedGraph, u: VertexId) {
        vg.insert_edge(u, u + 1, 1).unwrap();
        vg.advance().unwrap();
    }

    #[test]
    fn epochs_track_versions_and_reclaim_on_unpin() {
        let vg = VersionedGraph::new(pg(&[(0, 1, 1)], 8, 2));
        let guard = vg.pin();
        assert_eq!(guard.epoch(), 0);
        fold_one(&vg, 1);
        let stats = vg.epoch_stats();
        assert_eq!(stats.epochs_advanced, 1);
        assert_eq!(stats.live_epochs, 2, "epoch 0 pinned across the advance");
        assert_eq!(stats.oldest_pinned_epoch_lag, 1);
        let fresh = vg.pin();
        assert_eq!(fresh.epoch(), vg.version());
        assert!(!std::ptr::eq(guard.graph(), fresh.graph()), "the old pin reads its own snapshot");
        assert_eq!(guard.graph().graph().num_edges(), 1, "pinned snapshot is immutable");
        assert_eq!(fresh.graph().graph().num_edges(), 2);
        drop(guard);
        let stats = vg.epoch_stats();
        assert_eq!((stats.live_epochs, stats.snapshots_reclaimed), (1, 1));
        assert_eq!(stats.oldest_pinned_epoch_lag, 0, "the remaining pin reads the current epoch");
    }

    /// A retired epoch outlives any number of folds while pinned, and its
    /// storage is freed by the last unpin.
    #[test]
    fn a_retired_epoch_is_reclaimed_at_its_last_unpin() {
        let vg = VersionedGraph::new(pg(&[(0, 1, 1)], 8, 2));
        let old = vg.pin();
        let weak = Arc::downgrade(&vg.current());
        fold_one(&vg, 1);
        fold_one(&vg, 2);
        let stats = vg.epoch_stats();
        assert_eq!(stats.live_epochs, 2, "epoch 0 and the current one");
        assert_eq!(stats.snapshots_reclaimed, 1, "epoch 1 went unpinned at the second fold");
        assert_eq!(stats.oldest_pinned_epoch_lag, 2);
        drop(old);
        assert!(weak.upgrade().is_none(), "epoch 0 storage freed at its last unpin");
        assert_eq!(vg.epoch_stats().snapshots_reclaimed, 2);
    }

    /// Nothing pins an epoch: the fold that retires it reclaims it, and the
    /// totals count the fold's mutations and partitions.
    #[test]
    fn an_unpinned_epoch_is_reclaimed_at_the_fold_that_retires_it() {
        let vg = VersionedGraph::new(pg(&[(0, 1, 1)], 8, 4));
        vg.insert_edge(2, 3, 1).unwrap();
        vg.insert_edge(2, 4, 1).unwrap();
        vg.advance().unwrap();
        let expected = EpochStats {
            epochs_advanced: 1,
            mutations_applied: 2,
            partitions_rematerialized: 1,
            partitions_shared: 3,
            snapshots_reclaimed: 1,
            oldest_pinned_epoch_lag: 0,
            live_epochs: 1,
        };
        assert_eq!(vg.epoch_stats(), expected);
    }

    /// A traced store reports each pin, fold and unpin with its payload: the
    /// epoch and pin counts, the fold's rebuilt and shared partitions, its
    /// mutations and dirty partitions over its base version.
    #[test]
    fn a_traced_store_emits_its_epoch_and_fold_events() {
        let sink = TraceSink::new();
        let vg = VersionedGraph::new(pg(&[(0, 1, 1)], 8, 4)).with_trace(Arc::clone(&sink));
        let guard = vg.pin();
        vg.insert_edge(2, 3, 1).unwrap();
        vg.insert_edge(2, 5, 1).unwrap();
        vg.advance().unwrap();
        drop(guard);
        let events: Vec<_> =
            sink.merged_events().into_iter().map(|(_, e)| (e.kind, e.a, e.b, e.c)).collect();
        assert_eq!(
            events,
            vec![
                (EventKind::EpochPin, 0, 1, 0),
                (EventKind::EpochAdvance, 1, 1, 3),
                (EventKind::DeltaFold, 2, 1, 0),
                (EventKind::EpochUnpin, 0, 0, 1),
            ]
        );
    }

    /// Two pins on one epoch keep it alive until both drop, in either order.
    #[test]
    fn pins_nest_and_release_in_any_order() {
        let vg = VersionedGraph::new(pg(&[(0, 1, 1)], 8, 2));
        let (a, b) = (vg.pin(), vg.pin());
        fold_one(&vg, 1);
        drop(a);
        assert_eq!(vg.epoch_stats().live_epochs, 2, "the second pin keeps epoch 0 alive");
        drop(b);
        assert_eq!(vg.epoch_stats().live_epochs, 1);
        assert_eq!(vg.epoch_stats().snapshots_reclaimed, 1);
    }

    #[test]
    fn wait_for_version_blocks_until_advance() {
        let vg = Arc::new(VersionedGraph::new(pg(&[(0, 1, 1)], 4, 2)));
        let target = vg.insert_edge(1, 2, 1).unwrap();
        let waiter = {
            let vg = Arc::clone(&vg);
            std::thread::spawn(move || {
                vg.wait_for_version(target);
                vg.version()
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        vg.advance().unwrap();
        assert_eq!(waiter.join().unwrap(), target);
    }
}
