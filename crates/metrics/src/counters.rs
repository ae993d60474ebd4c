//! Thread-safe work counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters updated concurrently by engine worker threads.
///
/// All counters use relaxed atomics: they are statistics, not synchronisation.
#[derive(Debug, Default)]
pub struct WorkCounters {
    edges_processed: AtomicU64,
    operations_processed: AtomicU64,
    operations_buffered: AtomicU64,
    operations_pruned: AtomicU64,
    partition_visits: AtomicU64,
    yields: AtomicU64,
    iterations: AtomicU64,
    queries_completed: AtomicU64,
    steals: AtomicU64,
    idle_waits: AtomicU64,
}

impl WorkCounters {
    /// Create zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` relaxed/processed edges.
    #[inline]
    pub fn add_edges(&self, n: u64) {
        self.edges_processed.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` executed operations (the ⟨q, v, val⟩ triples of the paper).
    #[inline]
    pub fn add_operations(&self, n: u64) {
        self.operations_processed.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` operations entering a partition buffer (see
    /// [`WorkSnapshot::operations_buffered`]).
    #[inline]
    pub fn add_buffered(&self, n: u64) {
        self.operations_buffered.fetch_add(n, Ordering::Relaxed);
    }

    /// Record everything one query's share of one partition visit did, in one
    /// go: the engine's visit loop accumulates a [`VisitWork`] in locals and
    /// flushes it here once per (query, visit) instead of touching the shared
    /// counters per operation.
    #[inline]
    pub fn add_visit(&self, work: &VisitWork) {
        self.operations_processed.fetch_add(work.operations, Ordering::Relaxed);
        self.edges_processed.fetch_add(work.edges, Ordering::Relaxed);
        self.operations_pruned.fetch_add(work.pruned, Ordering::Relaxed);
        self.operations_buffered.fetch_add(work.buffered, Ordering::Relaxed);
    }

    /// Record one scheduled partition visit.
    #[inline]
    pub fn add_partition_visit(&self) {
        self.partition_visits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one yield (early termination of a query inside a partition).
    #[inline]
    pub fn add_yield(&self) {
        self.yields.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one engine iteration (frontier step or partition drain).
    #[inline]
    pub fn add_iteration(&self) {
        self.iterations.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` completed queries.
    #[inline]
    pub fn add_queries_completed(&self, n: u64) {
        self.queries_completed.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one partition stolen from another worker's runnable set.
    #[inline]
    pub fn add_steal(&self) {
        self.steals.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one idle wait (a worker parked with no runnable partition).
    #[inline]
    pub fn add_idle_wait(&self) {
        self.idle_waits.fetch_add(1, Ordering::Relaxed);
    }

    /// Take a consistent-enough snapshot of the counters.
    pub fn snapshot(&self) -> WorkSnapshot {
        WorkSnapshot {
            edges_processed: self.edges_processed.load(Ordering::Relaxed),
            operations_processed: self.operations_processed.load(Ordering::Relaxed),
            operations_buffered: self.operations_buffered.load(Ordering::Relaxed),
            operations_pruned: self.operations_pruned.load(Ordering::Relaxed),
            partition_visits: self.partition_visits.load(Ordering::Relaxed),
            yields: self.yields.load(Ordering::Relaxed),
            iterations: self.iterations.load(Ordering::Relaxed),
            queries_completed: self.queries_completed.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            idle_waits: self.idle_waits.load(Ordering::Relaxed),
            workers: Vec::new(),
        }
    }
}

/// What one query's share of one partition visit did; see
/// [`WorkCounters::add_visit`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VisitWork {
    /// Operations executed.
    pub operations: u64,
    /// Edges relaxed/traversed.
    pub edges: u64,
    /// Executed operations that turned out stale or dominated (no edge work).
    pub pruned: u64,
    /// Operations emitted, each of which enters exactly one buffer.
    pub buffered: u64,
}

/// Per-worker statistics of one engine run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// Worker index within the pool.
    pub worker: u32,
    /// Partition visits this worker performed.
    pub visits: u64,
    /// Partitions this worker stole from another worker's runnable set.
    pub steals: u64,
    /// Times this worker parked because no partition was runnable.
    pub idle_waits: u64,
    /// Operations this worker executed.
    pub operations: u64,
}

/// A point-in-time copy of [`WorkCounters`].
///
/// For a ForkGraph engine run `workers` holds one entry per worker of the
/// run, one-worker runs included; baselines leave it empty.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkSnapshot {
    /// Edges relaxed/traversed.
    pub edges_processed: u64,
    /// Operations (⟨q, v, val⟩ triples) executed.
    pub operations_processed: u64,
    /// Operations that entered a partition buffer. For the ForkGraph engine
    /// that is every operation entering a per-(partition, query) lane, once:
    /// the seeds, and each emitted operation on arrival at its target —
    /// another partition's lane or the emitting visit's own. A yield
    /// re-buffers nothing (the lane stays resident), so this is also the
    /// number of operations the run ever created.
    pub operations_buffered: u64,
    /// Executed operations that did no edge work: stale or dominated by the
    /// time they were popped (or, for PPR, a seed below its threshold, an
    /// operation past `max_pushes`, or a push at a dangling vertex).
    pub operations_pruned: u64,
    /// Partition visits scheduled by the inter-partition scheduler.
    pub partition_visits: u64,
    /// Yields taken by the yielding optimisation.
    pub yields: u64,
    /// Engine iterations (frontier steps for the baselines).
    pub iterations: u64,
    /// Queries completed.
    pub queries_completed: u64,
    /// Partitions claimed from another worker's runnable set.
    pub steals: u64,
    /// Worker park events with no runnable partition.
    pub idle_waits: u64,
    /// Per-worker breakdown (one entry per engine worker; empty for the
    /// baselines).
    pub workers: Vec<WorkerSnapshot>,
}

impl WorkSnapshot {
    /// Element-wise sum of two snapshots (per-worker breakdowns concatenate).
    pub fn merge(&self, other: &WorkSnapshot) -> WorkSnapshot {
        let mut workers = self.workers.clone();
        workers.extend(other.workers.iter().copied());
        WorkSnapshot {
            edges_processed: self.edges_processed + other.edges_processed,
            operations_processed: self.operations_processed + other.operations_processed,
            operations_buffered: self.operations_buffered + other.operations_buffered,
            operations_pruned: self.operations_pruned + other.operations_pruned,
            partition_visits: self.partition_visits + other.partition_visits,
            yields: self.yields + other.yields,
            iterations: self.iterations + other.iterations,
            queries_completed: self.queries_completed + other.queries_completed,
            steals: self.steals + other.steals,
            idle_waits: self.idle_waits + other.idle_waits,
            workers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let c = WorkCounters::new();
        c.add_edges(10);
        c.add_edges(5);
        c.add_operations(3);
        c.add_partition_visit();
        c.add_yield();
        c.add_iteration();
        c.add_queries_completed(2);
        c.add_buffered(7);
        c.add_visit(&VisitWork { operations: 2, edges: 4, pruned: 1, buffered: 3 });
        let s = c.snapshot();
        assert_eq!(s.edges_processed, 19);
        assert_eq!(s.operations_processed, 5);
        assert_eq!(s.partition_visits, 1);
        assert_eq!(s.yields, 1);
        assert_eq!(s.iterations, 1);
        assert_eq!(s.queries_completed, 2);
        assert_eq!(s.operations_buffered, 10);
        assert_eq!(s.operations_pruned, 1);
    }

    #[test]
    fn counters_are_thread_safe() {
        let c = WorkCounters::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.add_edges(1);
                    }
                });
            }
        });
        assert_eq!(c.snapshot().edges_processed, 8000);
    }

    #[test]
    fn snapshots_merge() {
        let a = WorkSnapshot { edges_processed: 1, partition_visits: 2, ..Default::default() };
        let b = WorkSnapshot { edges_processed: 3, yields: 4, ..Default::default() };
        let m = a.merge(&b);
        assert_eq!(m.edges_processed, 4);
        assert_eq!(m.partition_visits, 2);
        assert_eq!(m.yields, 4);
    }
}
