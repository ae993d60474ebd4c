//! Inter-partition scheduling (Section 5.2 of the paper).
//!
//! When a worker of the executor ([`crate::executor`]) finishes a partition
//! visit, it picks the next partition among the runnable ones. Four policies
//! are provided, matching Table 4A:
//!
//! * [`SchedulingPolicy::Random`] — an arbitrary runnable partition,
//! * [`SchedulingPolicy::MaxOperations`] — the partition with the most
//!   buffered operations (GraphM-style; cache friendly but work inefficient),
//! * [`SchedulingPolicy::Fifo`] — partitions in the order they became
//!   runnable (the default when no priority functor is supplied),
//! * [`SchedulingPolicy::Priority`] — the partition whose best buffered
//!   operation has the highest priority (lowest value), the paper's default.

use rand::rngs::SmallRng;
use rand::Rng;

use fg_graph::partition::PartitionId;

use crate::operation::Priority;

/// A scheduler's view of one candidate partition's pending work: the metadata
/// every policy of Table 4A needs to rank candidates, as the executor's
/// mailboxes keep it (arrivals plus resident lanes).
#[derive(Clone, Copy, Debug)]
pub(crate) struct SchedKey {
    /// The candidate partition; ties between equal keys go by its id.
    pub(crate) partition: PartitionId,
    /// Number of pending operations.
    pub(crate) len: usize,
    /// Best (lowest) pending priority, `Priority::MAX` when unknown/empty.
    pub(crate) priority: Priority,
    /// Tick at which the partition last became runnable (FIFO order).
    pub(crate) stamp: u64,
}

/// Apply `policy` to `num_candidates` candidate partitions (metadata for
/// position `i` resolved through `key_of(i)`), returning the winning
/// *position* in `0..num_candidates`, or `None` when there are no candidates.
///
/// Positional (rather than slice-based) so that the executor can select from
/// a mutex-guarded runnable set without copying the list out first.
///
/// Ties do not depend on where a candidate sits in the set: among equal
/// priorities the lowest partition id wins, among equal lengths the highest
/// (FIFO stamps are unique). So a one-worker run visits partitions in the
/// same order in every process.
pub(crate) fn select_by_policy(
    policy: SchedulingPolicy,
    rng: &mut SmallRng,
    num_candidates: usize,
    key_of: impl Fn(usize) -> SchedKey,
) -> Option<usize> {
    if num_candidates == 0 {
        return None;
    }
    let candidates = 0..num_candidates;
    let pos = match policy {
        SchedulingPolicy::Random => rng.gen_range(0..num_candidates),
        SchedulingPolicy::MaxOperations => candidates
            .max_by_key(|&i| {
                let key = key_of(i);
                (key.len, key.partition)
            })
            .expect("non-empty"),
        SchedulingPolicy::Fifo => candidates.min_by_key(|&i| key_of(i).stamp).expect("non-empty"),
        SchedulingPolicy::Priority => candidates
            .min_by_key(|&i| {
                let key = key_of(i);
                (key.priority, key.partition)
            })
            .expect("non-empty"),
    };
    Some(pos)
}

/// Inter-partition scheduling policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SchedulingPolicy {
    /// Pick an arbitrary runnable partition, drawn from the run's one RNG
    /// (seeded from a fixed constant), so a one-worker run picks the same
    /// partitions in every process.
    Random,
    /// Pick the partition with the most buffered operations.
    MaxOperations,
    /// Pick partitions in the order they became runnable.
    Fifo,
    /// Pick the partition with the best (lowest) buffered priority.
    #[default]
    Priority,
}

impl SchedulingPolicy {
    /// All policies, in the order Figure 8 compares them.
    pub fn all() -> [SchedulingPolicy; 4] {
        [
            SchedulingPolicy::Random,
            SchedulingPolicy::MaxOperations,
            SchedulingPolicy::Fifo,
            SchedulingPolicy::Priority,
        ]
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulingPolicy::Random => "random",
            SchedulingPolicy::MaxOperations => "max-operations",
            SchedulingPolicy::Fifo => "fifo",
            SchedulingPolicy::Priority => "priority",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn key(partition: PartitionId, len: usize, priority: Priority, stamp: u64) -> SchedKey {
        SchedKey { partition, len, priority, stamp }
    }

    #[test]
    fn select_by_policy_matches_metadata_semantics() {
        let keys = [key(0, 3, 50, 9), key(1, 1, 5, 2), key(2, 7, 20, 4)];
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
        let pick = select_by_policy(SchedulingPolicy::Random, &mut rng, keys.len(), key_of);
        assert!(pick.is_some_and(|p| p < keys.len()));
        assert_eq!(select_by_policy(SchedulingPolicy::Priority, &mut rng, 0, key_of), None);
    }

    #[test]
    fn ties_go_by_partition_id_not_by_position() {
        // Candidates sit in a runnable set in no particular order; neither
        // the first nor the last tied position is the right pick.
        let keys = [key(5, 4, 10, 1), key(9, 4, 10, 2), key(2, 4, 10, 3), key(3, 1, 30, 4)];
        let key_of = |i: usize| keys[i];
        let mut rng = SmallRng::seed_from_u64(1);
        let pick = |policy, rng: &mut SmallRng| {
            select_by_policy(policy, rng, keys.len(), key_of).map(|pos| keys[pos].partition)
        };
        assert_eq!(pick(SchedulingPolicy::Priority, &mut rng), Some(2), "lowest id");
        assert_eq!(pick(SchedulingPolicy::MaxOperations, &mut rng), Some(9), "highest id");
        assert_eq!(pick(SchedulingPolicy::Fifo, &mut rng), Some(5), "earliest stamp");
    }

    #[test]
    fn random_is_deterministic_given_seed() {
        let keys = [key(0, 1, 1, 1), key(2, 1, 2, 2), key(3, 1, 3, 3)];
        let picks = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..20)
                .map(|_| {
                    select_by_policy(SchedulingPolicy::Random, &mut rng, keys.len(), |i| keys[i])
                        .unwrap()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(picks(11), picks(11));
    }

    #[test]
    fn policy_metadata() {
        assert_eq!(SchedulingPolicy::all().len(), 4);
        assert_eq!(SchedulingPolicy::Priority.name(), "priority");
        assert_eq!(SchedulingPolicy::default(), SchedulingPolicy::Priority);
    }
}
