//! Inter-partition scheduling (Section 5.2 of the paper).
//!
//! When a partition visit finishes, the scheduler picks the next partition with
//! a non-empty buffer. Four policies are provided, matching Table 4A:
//!
//! * [`SchedulingPolicy::Random`] — an arbitrary non-empty partition,
//! * [`SchedulingPolicy::MaxOperations`] — the partition with the most
//!   buffered operations (GraphM-style; cache friendly but work inefficient),
//! * [`SchedulingPolicy::Fifo`] — partitions in the order their buffers became
//!   non-empty (the default when no priority functor is supplied),
//! * [`SchedulingPolicy::Priority`] — the partition whose best buffered
//!   operation has the highest priority (lowest value), the paper's default.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use fg_graph::partition::PartitionId;

use crate::buffer::PartitionBuffer;
use crate::operation::Priority;

/// A scheduler's view of one candidate partition's pending work: the metadata
/// every policy of Table 4A needs to rank candidates. Produced by the serial
/// engine's [`PartitionBuffer`] ([`PartitionBuffer::sched_key`], kept exact
/// from the lane tops) and by the parallel executor's mailboxes (arrivals
/// plus resident lanes, as hints), so both execution modes share one
/// selection rule ([`select_by_policy`]).
#[derive(Clone, Copy, Debug)]
pub struct SchedKey {
    /// Number of pending operations.
    pub len: usize,
    /// Best (lowest) pending priority, `Priority::MAX` when unknown/empty.
    pub priority: Priority,
    /// Tick at which the partition last became runnable (FIFO order).
    pub stamp: u64,
}

/// Apply `policy` to `num_candidates` candidate partitions (metadata for
/// position `i` resolved through `key_of(i)`), returning the winning
/// *position* in `0..num_candidates`, or `None` when there are no candidates.
///
/// Positional (rather than slice-based) so callers holding a lock over their
/// candidate list — the executor picks from a mutex-guarded runnable set —
/// can select without copying the list out first.
///
/// This is the single selection rule of Table 4A, shared by the serial
/// [`Scheduler`] and every worker of the parallel executor.
pub fn select_by_policy(
    policy: SchedulingPolicy,
    rng: &mut SmallRng,
    num_candidates: usize,
    key_of: impl Fn(usize) -> SchedKey,
) -> Option<usize> {
    if num_candidates == 0 {
        return None;
    }
    let pos = match policy {
        SchedulingPolicy::Random { .. } => rng.gen_range(0..num_candidates),
        SchedulingPolicy::MaxOperations => {
            (0..num_candidates).max_by_key(|&i| key_of(i).len).expect("non-empty")
        }
        SchedulingPolicy::Fifo => {
            (0..num_candidates).min_by_key(|&i| key_of(i).stamp).expect("non-empty")
        }
        SchedulingPolicy::Priority => {
            (0..num_candidates).min_by_key(|&i| key_of(i).priority).expect("non-empty")
        }
    };
    Some(pos)
}

/// Inter-partition scheduling policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SchedulingPolicy {
    /// Pick an arbitrary non-empty partition.
    Random {
        /// RNG seed, for reproducibility.
        seed: u64,
    },
    /// Pick the partition with the most buffered operations.
    MaxOperations,
    /// Pick partitions in the order their buffers became non-empty.
    Fifo,
    /// Pick the partition with the best (lowest) buffered priority.
    #[default]
    Priority,
}

impl SchedulingPolicy {
    /// All policies, for the Table 4A sweep.
    pub fn all() -> [SchedulingPolicy; 4] {
        [
            SchedulingPolicy::Random { seed: 7 },
            SchedulingPolicy::MaxOperations,
            SchedulingPolicy::Fifo,
            SchedulingPolicy::Priority,
        ]
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulingPolicy::Random { .. } => "random",
            SchedulingPolicy::MaxOperations => "max-operations",
            SchedulingPolicy::Fifo => "fifo",
            SchedulingPolicy::Priority => "priority",
        }
    }
}

/// Scheduler state: picks the next partition to process.
#[derive(Debug)]
pub struct Scheduler {
    policy: SchedulingPolicy,
    rng: SmallRng,
    /// Monotonically increasing stamp handed to buffers as they become
    /// runnable, so FIFO order can be recovered.
    next_stamp: u64,
    /// Candidate list of [`Self::next`], kept so a pick allocates nothing.
    non_empty: Vec<usize>,
}

impl Scheduler {
    /// Create a scheduler with the given policy.
    pub fn new(policy: SchedulingPolicy) -> Self {
        let seed = match policy {
            SchedulingPolicy::Random { seed } => seed,
            _ => 0,
        };
        Scheduler {
            policy,
            rng: SmallRng::seed_from_u64(seed),
            next_stamp: 1,
            non_empty: Vec::new(),
        }
    }

    /// The policy in use.
    pub fn policy(&self) -> SchedulingPolicy {
        self.policy
    }

    /// Stamp a buffer that just became runnable — it went from empty to
    /// non-empty, or a visit ended with operations still resident, which
    /// sends it to the back of the line (used by the FIFO policy).
    pub fn stamp<V: Copy>(&mut self, buffer: &mut PartitionBuffer<V>) {
        buffer.fifo_stamp = self.next_stamp;
        self.next_stamp += 1;
    }

    /// Select the next partition among those with non-empty buffers.
    /// Returns `None` when every buffer is empty (the FPP has converged).
    pub fn next<V: Copy>(&mut self, buffers: &[PartitionBuffer<V>]) -> Option<PartitionId> {
        self.non_empty.clear();
        self.non_empty.extend((0..buffers.len()).filter(|&i| !buffers[i].is_empty()));
        let non_empty = &self.non_empty;
        let pos = select_by_policy(self.policy, &mut self.rng, non_empty.len(), |i| {
            buffers[non_empty[i]].sched_key()
        })?;
        Some(non_empty[pos] as PartitionId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operation::Operation;

    fn buffer_with(ops: &[(u32, u64)]) -> PartitionBuffer<u64> {
        let mut b = PartitionBuffer::new(4);
        for &(q, p) in ops {
            b.push(Operation::new(q, q, p, p));
        }
        b
    }

    #[test]
    fn returns_none_when_all_buffers_empty() {
        let buffers: Vec<PartitionBuffer<u64>> =
            vec![PartitionBuffer::new(2), PartitionBuffer::new(2)];
        let mut s = Scheduler::new(SchedulingPolicy::Priority);
        assert_eq!(s.next(&buffers), None);
    }

    #[test]
    fn priority_picks_partition_with_best_operation() {
        let buffers = vec![
            buffer_with(&[(0, 50), (1, 40)]),
            buffer_with(&[(0, 5)]),
            buffer_with(&[(2, 20), (3, 90)]),
        ];
        let mut s = Scheduler::new(SchedulingPolicy::Priority);
        assert_eq!(s.next(&buffers), Some(1));
    }

    #[test]
    fn max_operations_picks_largest_buffer() {
        let buffers = vec![
            buffer_with(&[(0, 1)]),
            buffer_with(&[(0, 99), (1, 99), (2, 99)]),
            PartitionBuffer::new(2),
        ];
        let mut s = Scheduler::new(SchedulingPolicy::MaxOperations);
        assert_eq!(s.next(&buffers), Some(1));
    }

    #[test]
    fn fifo_respects_stamp_order() {
        let mut s = Scheduler::new(SchedulingPolicy::Fifo);
        let mut b0 = buffer_with(&[(0, 9)]);
        let mut b1 = buffer_with(&[(0, 1)]);
        // b1 became non-empty first.
        s.stamp(&mut b1);
        s.stamp(&mut b0);
        let buffers = vec![b0, b1];
        assert_eq!(s.next(&buffers), Some(1));
    }

    #[test]
    fn random_is_deterministic_given_seed_and_always_valid() {
        let buffers = vec![
            buffer_with(&[(0, 1)]),
            PartitionBuffer::new(2),
            buffer_with(&[(1, 2)]),
            buffer_with(&[(2, 3)]),
        ];
        let picks_a: Vec<_> = {
            let mut s = Scheduler::new(SchedulingPolicy::Random { seed: 11 });
            (0..20).map(|_| s.next(&buffers).unwrap()).collect()
        };
        let picks_b: Vec<_> = {
            let mut s = Scheduler::new(SchedulingPolicy::Random { seed: 11 });
            (0..20).map(|_| s.next(&buffers).unwrap()).collect()
        };
        assert_eq!(picks_a, picks_b);
        assert!(picks_a.iter().all(|&p| p != 1), "never picks an empty partition");
    }

    #[test]
    fn select_by_policy_matches_metadata_semantics() {
        let keys = [
            SchedKey { len: 3, priority: 50, stamp: 9 },
            SchedKey { len: 1, priority: 5, stamp: 2 },
            SchedKey { len: 7, priority: 20, stamp: 4 },
        ];
        let key_of = |i: usize| keys[i];
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(
            select_by_policy(SchedulingPolicy::Priority, &mut rng, keys.len(), key_of),
            Some(1)
        );
        assert_eq!(
            select_by_policy(SchedulingPolicy::MaxOperations, &mut rng, keys.len(), key_of),
            Some(2)
        );
        assert_eq!(select_by_policy(SchedulingPolicy::Fifo, &mut rng, keys.len(), key_of), Some(1));
        let pick =
            select_by_policy(SchedulingPolicy::Random { seed: 3 }, &mut rng, keys.len(), key_of);
        assert!(pick.is_some_and(|p| p < keys.len()));
        assert_eq!(select_by_policy(SchedulingPolicy::Priority, &mut rng, 0, key_of), None);
    }

    #[test]
    fn policy_metadata() {
        assert_eq!(SchedulingPolicy::all().len(), 4);
        assert_eq!(SchedulingPolicy::Priority.name(), "priority");
        assert_eq!(SchedulingPolicy::default(), SchedulingPolicy::Priority);
        assert_eq!(Scheduler::new(SchedulingPolicy::Fifo).policy(), SchedulingPolicy::Fifo);
    }
}
