//! Versioned graph storage with edge mutations and epoch snapshots.
//!
//! The engine and everything above it consume an immutable
//! [`Arc<PartitionedGraph>`]; this module is the seam that lets the graph
//! *change* without any in-flight run observing a half-applied batch.
//!
//! [`VersionedGraph`] publishes the snapshots. Each published version is an
//! *epoch*. Writers append [`EdgeMutation`]s to a pending log at any time; a
//! reader takes the current epoch with [`VersionedGraph::snapshot`] and holds
//! its `Arc` for the length of one run. A retired epoch's storage goes when
//! its last `Arc` drops.
//!
//! [`VersionedGraph::advance`] folds the whole pending log into the next
//! snapshot in two private halves, so a fold overlaps in-flight reads:
//!
//! * `prepare` copies the log (without draining it, so
//!   [`changed_since`](VersionedGraph::changed_since) keeps reporting every
//!   cached answer stale while the fold is in flight) and — entirely
//!   outside the locks — folds it into the next snapshot: the next CSR
//!   copies the old CSR's rows, merging the batch's final per-pair edits
//!   into the rows they touch, and **only dirty partitions'** stores are
//!   rebuilt from it; every clean partition's
//!   [`Arc<PartitionStore>`](crate::partitioned::PartitionStore) is shared
//!   with the previous epoch. The
//!   [`PartitionPlan`](crate::partition::PartitionPlan) is reused
//!   (vertex count is immutable, so the old assignment stays valid).
//! * `publish` atomically drains the consumed prefix, publishes the next
//!   epoch (retiring the current one), records its edge changes, and adds
//!   it to the running totals of [`EpochStats`] — all under one short lock
//!   section.
//!
//! The store then answers the two questions a cache of answers asks, each
//! in one lock section:
//!
//! * [`changed_since(version)`](VersionedGraph::changed_since) — has a fold
//!   after `version` changed an edge, or is a mutation pending? Either makes
//!   every answer computed at `version` stale, whatever its source.
//! * [`delta_since(version)`](VersionedGraph::delta_since) — the edge changes
//!   since `version`, in the two lists a min-plus restart (SSSP/BFS) reads:
//!   every changed edge that still exists, at its latest weight, and every
//!   deleted or heavier edge, at the smallest weight it had. The fold log
//!   behind it holds at most 4 096 edges (`FOLD_LOG_EDGES`); a version older
//!   than the log gets `None`.

use std::collections::{BTreeMap, VecDeque};
use std::mem;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};

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
    /// Retired snapshots no reader still holds.
    pub snapshots_reclaimed: u64,
    /// Current version minus the oldest retired version a reader still
    /// holds; 0 when no reader holds a retired snapshot.
    pub oldest_pinned_epoch_lag: u64,
    /// Snapshots alive: the current one plus every retired one a reader
    /// still holds.
    pub live_epochs: usize,
}

/// The running totals behind [`EpochStats`]; the rest of it is read off the
/// retired snapshots.
#[derive(Default)]
struct FoldTotals {
    mutations_applied: u64,
    partitions_rematerialized: u64,
    partitions_shared: u64,
}

struct VgInner {
    /// The current version and its snapshot.
    version: u64,
    graph: Arc<PartitionedGraph>,
    /// Retired snapshots a reader may still hold, oldest first.
    retired: Vec<(u64, Weak<PartitionedGraph>)>,
    totals: FoldTotals,
    pending: Vec<EdgeMutation>,
    /// Version of the latest fold that changed an edge.
    last_changed: u64,
    /// `(version, seed_edges, raised_edges)` of recent folds that changed an
    /// edge, oldest first, at most [`FOLD_LOG_EDGES`] edges in all.
    fold_log: VecDeque<(u64, Vec<Edge>, Vec<Edge>)>,
    /// The fold log holds every fold after this version.
    fold_log_since: u64,
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
    /// Receives `EpochAdvance`/`DeltaFold` events when set.
    trace: Option<Arc<TraceSink>>,
}

impl VersionedGraph {
    /// Wrap `graph` as version 0 with an empty mutation log.
    pub fn new(graph: Arc<PartitionedGraph>) -> Self {
        VersionedGraph {
            inner: Mutex::new(VgInner {
                version: 0,
                graph,
                retired: Vec::new(),
                totals: FoldTotals::default(),
                pending: Vec::new(),
                last_changed: 0,
                fold_log: VecDeque::new(),
                fold_log_since: 0,
            }),
            applied: Condvar::new(),
            advance_gate: Mutex::new(()),
            trace: None,
        }
    }

    /// Route epoch and fold events (`EpochAdvance`/`DeltaFold`) to `sink`.
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

    /// The current epoch: its version and its snapshot. A run holds the
    /// `Arc` for as long as it runs; publish swaps the pointer, it never
    /// mutates the pointee, and a retired snapshot's storage goes when its
    /// last `Arc` drops.
    pub fn snapshot(&self) -> (u64, Arc<PartitionedGraph>) {
        let inner = self.lock();
        (inner.version, Arc::clone(&inner.graph))
    }

    /// The fold and snapshot figures, consistent with one another: the
    /// running totals of every fold, and the retired snapshots readers hold
    /// at this moment. Each fold bumps the version and adds at most one held
    /// snapshot, so `snapshots_reclaimed` never decreases.
    pub fn epoch_stats(&self) -> EpochStats {
        let inner = self.lock();
        let held: Vec<u64> =
            inner.retired.iter().filter(|(_, weak)| weak.strong_count() > 0).map(|e| e.0).collect();
        let totals = &inner.totals;
        EpochStats {
            epochs_advanced: inner.version,
            mutations_applied: totals.mutations_applied,
            partitions_rematerialized: totals.partitions_rematerialized,
            partitions_shared: totals.partitions_shared,
            snapshots_reclaimed: inner.version - held.len() as u64,
            oldest_pinned_epoch_lag: held.first().map_or(0, |&oldest| inner.version - oldest),
            live_epochs: held.len() + 1,
        }
    }

    /// Version of the current snapshot (0 at construction, +1 per applied
    /// batch).
    pub fn version(&self) -> u64 {
        self.lock().version
    }

    /// Number of logged-but-unapplied mutations.
    pub fn pending_mutations(&self) -> usize {
        self.lock().pending.len()
    }

    /// Is there anything waiting for the next quiesce point?
    pub fn has_pending(&self) -> bool {
        !self.lock().pending.is_empty()
    }

    /// Has a fold published after `version` changed an edge, or is a
    /// mutation pending? `false` means every answer computed at `version` is
    /// still fresh; `true` makes them all stale, whatever their source. One
    /// lock section, so the answer is atomic with publication: a mutation
    /// logged before the call is seen either pending or folded.
    pub fn changed_since(&self, version: u64) -> bool {
        let inner = self.lock();
        inner.last_changed > version || !inner.pending.is_empty()
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
        let n = inner.graph.graph().num_vertices();
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
        Ok(inner.version + 1)
    }

    /// Block until the snapshot version reaches `version` (i.e. every
    /// mutation logged before the corresponding call has been applied).
    pub fn wait_for_version(&self, version: u64) {
        let mut inner = self.lock();
        while inner.version < version {
            inner = self.applied.wait(inner).expect(POISONED);
        }
    }

    /// Fold a prefix of the pending log into the next snapshot **without
    /// draining the log or swapping anything**. Returns `None` when the log
    /// is empty. The fold runs entirely outside the locks, so readers keep
    /// taking and querying the current epoch while it materializes — and
    /// because the prefix stays pending,
    /// [`changed_since`](Self::changed_since) keeps reporting every cached
    /// answer stale until [`publish`](Self::publish) lands the new version.
    ///
    /// The next CSR is merged from the current one and the final state of
    /// every pair the prefix touched, both directions row by row with
    /// untouched rows copied as slices — equal to
    /// [`crate::CsrGraph::from_sorted_edges`] over the mutated edge set, at
    /// the cost of about one copy of each direction (0.3 ms for 8 edits on
    /// an R-MAT 2^13 graph, 2-core Xeon). Only dirty partitions' stores
    /// (those containing the source endpoint of an effective change) are
    /// rebuilt from it; every clean partition's store, and the partition
    /// plan, are `Arc`-shared with the current snapshot. A net-no-op prefix
    /// reuses the whole snapshot `Arc`.
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
            (Arc::clone(&inner.graph), inner.pending.clone(), inner.version)
        };

        // Replay the prefix to a net effect per touched endpoint pair.
        let csr = old.graph();
        let before_weight = |u: VertexId, v: VertexId| -> Option<Weight> {
            let row = csr.out_neighbors(u);
            let i = row.partition_point(|&t| t < v);
            (row.get(i) == Some(&v)).then(|| csr.out_weights(u).map_or(1, |w| w[i]))
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
            Arc::new(old.with_stores(next, stores))
        };

        let rematerialized = dirty_partitions.len();
        Some(PreparedFold {
            base_version,
            consumed: batch.len(),
            seed_edges,
            raised_edges,
            dirty_partitions,
            graph,
            partitions_rematerialized: rematerialized,
            partitions_shared: parts - rematerialized,
        })
    }

    /// Swap in a [`prepare`](Self::prepare)d fold: drain the consumed log
    /// prefix, publish the new snapshot as the next epoch (retiring the
    /// current one), record its version if it changed an edge and log those
    /// changes, count it, and wake [`wait_for_version`](Self::wait_for_version)
    /// waiters. One short lock section; never materializes anything.
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
            partitions_rematerialized,
            partitions_shared,
        } = fold;
        let version = base_version + 1;
        {
            let mut guard = self.lock();
            let inner = &mut *guard;
            assert_eq!(
                inner.version, base_version,
                "PreparedFold published against a stale base (concurrent fold drivers?)"
            );
            inner.pending.drain(..consumed);
            inner.version = version;
            let old = mem::replace(&mut inner.graph, Arc::clone(&graph));
            inner.retired.retain(|(_, weak)| weak.strong_count() > 0);
            // A net-no-op fold republishes the same snapshot: nothing retires.
            if !Arc::ptr_eq(&old, &graph) {
                inner.retired.push((base_version, Arc::downgrade(&old)));
            }
            inner.totals.mutations_applied += consumed as u64;
            inner.totals.partitions_rematerialized += partitions_rematerialized as u64;
            inner.totals.partitions_shared += partitions_shared as u64;
            if !seed_edges.is_empty() || !raised_edges.is_empty() {
                inner.last_changed = version;
                inner.fold_log.push_back((version, seed_edges.clone(), raised_edges.clone()));
                let mut logged: usize = inner.fold_log.iter().map(|f| f.1.len() + f.2.len()).sum();
                while logged > FOLD_LOG_EDGES {
                    let (oldest, seeds, raised) = inner.fold_log.pop_front().expect("edges logged");
                    logged -= seeds.len() + raised.len();
                    inner.fold_log_since = oldest;
                }
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{PartitionConfig, PartitionMethod, PartitionPlan};
    use crate::{CsrGraph, StorageConfig};

    /// Fixed even chunking: vertex `v` lands in partition `v / (n / parts)`,
    /// so tests know which partitions a batch dirties.
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
        let (_, g) = vg.snapshot();
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
        let (_, g) = vg.snapshot();
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
        assert_eq!(vg.snapshot().1.graph().num_edges(), 2);
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

    /// A pending mutation makes every cached answer stale, even one from a
    /// source that cannot reach it, and its fold keeps it stale; an answer at
    /// the fold's version is fresh. A net no-op is stale while pending, but
    /// its fold changes no edge and leaves answers fresh; a deletion makes
    /// them stale like an insertion.
    #[test]
    fn changed_since_follows_every_effective_fold() {
        // Chunked over 8 vertices / 4 partitions: {0,1} {2,3} {4,5} {6,7}.
        let vg = VersionedGraph::new(pg(&[(0, 1, 5)], 8, 4));
        assert!(!vg.changed_since(0), "nothing logged");
        vg.insert_edge(6, 7, 1).unwrap(); // unreachable from 0
        assert!(vg.changed_since(0), "pending");
        vg.advance().unwrap();
        assert!(vg.changed_since(0), "folded");
        assert!(!vg.changed_since(1), "an answer at the fold's version is fresh");
        vg.delete_edge(0, 1).unwrap();
        vg.insert_edge(0, 1, 5).unwrap(); // restores the original weight
        assert!(vg.changed_since(1), "a pending net no-op");
        vg.advance().unwrap();
        assert!(!vg.changed_since(1), "a net-no-op fold changes no edge");
        vg.delete_edge(0, 1).unwrap();
        vg.advance().unwrap();
        assert!(vg.changed_since(2), "a deletion");
        assert!(!vg.changed_since(3));
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
        let vg = VersionedGraph::new(Arc::clone(&base));
        vg.insert_edge(1, 4, 2).unwrap();
        let applied = vg.advance().unwrap();
        assert_eq!(applied.graph.plan(), &plan_before);
        assert!(std::ptr::eq(applied.graph.plan(), base.plan()), "a fold shares the plan");
        assert_eq!(applied.graph.num_partitions(), 4);
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
                    assert_eq!(a.compressed, b.compressed);
                }
            }
        }
    }

    /// Deletions rebuild the owning partition too, and a net-no-op batch
    /// shares the entire snapshot, so a reader holding it holds the current
    /// epoch: nothing retires.
    #[test]
    fn fold_reuse_extends_to_whole_snapshot_on_net_noop() {
        let base = pg(&[(0, 1, 5), (4, 5, 1)], 8, 4);
        let vg = VersionedGraph::new(Arc::clone(&base));
        let held = vg.snapshot();
        vg.delete_edge(0, 1).unwrap();
        vg.insert_edge(0, 1, 5).unwrap();
        let applied = vg.advance().unwrap();
        assert_eq!(applied.version, 1, "net no-op still bumps the version");
        assert_eq!(applied.partitions_rematerialized, 0);
        assert_eq!(applied.partitions_shared, 4);
        assert!(Arc::ptr_eq(&applied.graph, &base), "whole snapshot shared");
        let stats = vg.epoch_stats();
        assert_eq!(stats.live_epochs, 1, "the held snapshot is the current one");
        assert_eq!(stats.oldest_pinned_epoch_lag, 0);
        assert_eq!(stats.snapshots_reclaimed, 1);
        drop(held);

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
        // Mid-fold: still pending, so every answer stays stale.
        assert!(vg.has_pending());
        assert!(vg.changed_since(0), "stale mid-fold");
        assert_eq!(vg.version(), 0);
        // A mutation logged mid-fold survives the publish drain.
        vg.insert_edge(6, 7, 1).unwrap();
        let applied = vg.publish(fold);
        assert_eq!(applied.version, 1);
        assert_eq!(applied.mutations, 1);
        assert_eq!(vg.pending_mutations(), 1, "mid-fold log entry still pending");
        assert!(vg.changed_since(1), "stale while the mid-fold entry is pending");
        let applied = vg.advance().unwrap();
        assert_eq!(applied.version, 2);
        assert!(!vg.has_pending());
        assert!(!vg.changed_since(2));
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
        let (epoch, old) = vg.snapshot();
        assert_eq!(epoch, 0);
        fold_one(&vg, 1);
        let stats = vg.epoch_stats();
        assert_eq!(stats.epochs_advanced, 1);
        assert_eq!(stats.live_epochs, 2, "epoch 0 held across the advance");
        assert_eq!(stats.oldest_pinned_epoch_lag, 1);
        let (epoch, fresh) = vg.snapshot();
        assert_eq!(epoch, vg.version());
        assert!(!Arc::ptr_eq(&old, &fresh), "the old holder reads its own snapshot");
        assert_eq!(old.graph().num_edges(), 1, "a held snapshot is immutable");
        assert_eq!(fresh.graph().num_edges(), 2);
        drop(old);
        let stats = vg.epoch_stats();
        assert_eq!((stats.live_epochs, stats.snapshots_reclaimed), (1, 1));
        assert_eq!(stats.oldest_pinned_epoch_lag, 0, "the other holder reads the current epoch");
    }

    /// A retired epoch outlives any number of folds while held, and its
    /// storage is freed when the last `Arc` drops.
    #[test]
    fn a_retired_epoch_is_reclaimed_at_its_last_unpin() {
        let vg = VersionedGraph::new(pg(&[(0, 1, 1)], 8, 2));
        let (_, old) = vg.snapshot();
        let weak = Arc::downgrade(&old);
        fold_one(&vg, 1);
        fold_one(&vg, 2);
        let stats = vg.epoch_stats();
        assert_eq!(stats.live_epochs, 2, "epoch 0 and the current one");
        assert_eq!(stats.snapshots_reclaimed, 1, "epoch 1 went unheld at the second fold");
        assert_eq!(stats.oldest_pinned_epoch_lag, 2);
        drop(old);
        assert!(weak.upgrade().is_none(), "epoch 0 storage freed with its last Arc");
        assert_eq!(vg.epoch_stats().snapshots_reclaimed, 2);
    }

    /// Nothing holds an epoch: the fold that retires it reclaims it, and the
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

    /// A traced store reports each fold with its payload: the new epoch, the
    /// fold's rebuilt and shared partitions, its mutations and dirty
    /// partitions over its base version.
    #[test]
    fn a_traced_store_emits_its_epoch_and_fold_events() {
        let sink = TraceSink::new();
        let vg = VersionedGraph::new(pg(&[(0, 1, 1)], 8, 4)).with_trace(Arc::clone(&sink));
        vg.insert_edge(2, 3, 1).unwrap();
        vg.insert_edge(2, 5, 1).unwrap();
        vg.advance().unwrap();
        let events: Vec<_> =
            sink.merged_events().into_iter().map(|(_, e)| (e.kind, e.a, e.b, e.c)).collect();
        assert_eq!(
            events,
            vec![(EventKind::EpochAdvance, 1, 1, 3), (EventKind::DeltaFold, 2, 1, 0)]
        );
    }

    /// Two holders of one epoch keep it alive until both drop, in either
    /// order.
    #[test]
    fn pins_nest_and_release_in_any_order() {
        let vg = VersionedGraph::new(pg(&[(0, 1, 1)], 8, 2));
        let (a, b) = (vg.snapshot(), vg.snapshot());
        fold_one(&vg, 1);
        drop(a);
        assert_eq!(vg.epoch_stats().live_epochs, 2, "the second holder keeps epoch 0 alive");
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
