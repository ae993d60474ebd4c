//! Work tallies: the per-worker tallies an engine run sums, and the totals
//! of one run.

/// One engine worker's own tally of a run. The worker is its only writer,
/// so every field is a plain integer; [`WorkSnapshot::from_workers`] sums
/// them into the run's totals.
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
    /// Edges this worker's operations relaxed/traversed.
    pub edges: u64,
    /// Operations this worker executed that did no edge work, arrivals a
    /// lane found dead when it merged them at visit start included.
    pub pruned: u64,
    /// Operations this worker's operations emitted, each of which enters
    /// exactly one lane.
    pub emitted: u64,
    /// Yields this worker's lanes took.
    pub yields: u64,
    /// Lanes this worker processed, summed over its visits: one per query
    /// with operations in a visited partition.
    pub lane_visits: u64,
}

/// The work totals of one run.
///
/// For a ForkGraph engine run they are the sum of its workers' tallies and
/// `workers` holds one entry per worker of the run, one-worker runs
/// included ([`Self::from_workers`]). For a baseline they are the sum of
/// its queries' own tallies, each kept by the one thread that ran the query,
/// and `workers` is empty.
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
    /// time they were popped or merged into a lane (or, for PPR, a seed
    /// below its threshold, an operation past `max_pushes`, or a push at a
    /// dangling vertex).
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
    /// The totals of an engine run: the sum of its `workers`' tallies, with
    /// `seeds` operations buffered before any worker ran and `queries`
    /// queries completed.
    pub fn from_workers(workers: Vec<WorkerSnapshot>, seeds: u64, queries: u64) -> WorkSnapshot {
        let sum = |field: fn(&WorkerSnapshot) -> u64| workers.iter().map(field).sum::<u64>();
        WorkSnapshot {
            edges_processed: sum(|w| w.edges),
            operations_processed: sum(|w| w.operations),
            operations_buffered: seeds + sum(|w| w.emitted),
            operations_pruned: sum(|w| w.pruned),
            partition_visits: sum(|w| w.visits),
            yields: sum(|w| w.yields),
            iterations: 0,
            queries_completed: queries,
            steals: sum(|w| w.steals),
            idle_waits: sum(|w| w.idle_waits),
            workers,
        }
    }

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
    fn worker_tallies_sum_to_the_run_totals() {
        let a = WorkerSnapshot {
            worker: 0,
            visits: 2,
            operations: 5,
            edges: 9,
            emitted: 4,
            ..Default::default()
        };
        let b = WorkerSnapshot {
            worker: 1,
            steals: 1,
            pruned: 2,
            yields: 3,
            idle_waits: 1,
            ..Default::default()
        };
        let s = WorkSnapshot::from_workers(vec![a, b], 3, 2);
        assert_eq!((s.edges_processed, s.operations_processed), (9, 5));
        assert_eq!((s.operations_buffered, s.operations_pruned), (7, 2));
        assert_eq!((s.partition_visits, s.yields, s.steals, s.idle_waits), (2, 3, 1, 1));
        assert_eq!((s.iterations, s.queries_completed), (0, 2));
        assert_eq!(s.workers, vec![a, b]);
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
