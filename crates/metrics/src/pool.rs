//! Lifetime figures of a persistent executor worker pool.
//!
//! A [`crate::WorkSnapshot`] measures *one* engine run; a persistent worker
//! pool (`forkgraph_core::WorkerPool`) lives across many runs, so its
//! health is described by cross-run figures instead: how many OS threads
//! were ever spawned (steady state must stop growing), how many runs were
//! dispatched, how often workers parked/woke between runs, and how often the
//! partition mailboxes a run needs were recycled from the pool's arena versus
//! built fresh. The pool keeps each figure next to the state it describes,
//! under the lock that state already has, and reads them out as a
//! [`PoolSnapshot`].

use std::fmt;

use crate::family::{self, Family};

/// Point-in-time figures of a persistent worker pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// OS worker threads ever spawned by the pool. Flat in steady state:
    /// repeated runs at or below the pool's capacity must not move this.
    pub threads_spawned: u64,
    /// Engine runs dispatched onto the pool.
    pub dispatches: u64,
    /// Worker park events between runs (waiting for the next dispatch).
    pub parks: u64,
    /// Worker wake events for a dispatched run.
    pub unparks: u64,
    /// Partition mailboxes recycled from the pool arena.
    pub mailboxes_reused: u64,
    /// Partition mailboxes built fresh (first run, value-type change, or
    /// partition-count growth).
    pub mailboxes_rebuilt: u64,
}

impl PoolSnapshot {
    /// Fraction of per-run mailbox allocations served from the recycle arena,
    /// in `[0, 1]` (0 for an unused pool).
    pub fn mailbox_reuse_rate(&self) -> f64 {
        let total = self.mailboxes_reused + self.mailboxes_rebuilt;
        if total == 0 {
            0.0
        } else {
            self.mailboxes_reused as f64 / total as f64
        }
    }

    /// One metric family per field, in field order.
    pub fn families(&self) -> Vec<Family> {
        vec![
            Family::counter(
                "fg_pool_threads_spawned_total",
                "OS worker threads ever spawned by the pool.",
                self.threads_spawned,
            ),
            Family::counter(
                "fg_pool_dispatches_total",
                "Engine runs dispatched onto the pool.",
                self.dispatches,
            ),
            Family::counter("fg_pool_parks_total", "Worker park events between runs.", self.parks),
            Family::counter(
                "fg_pool_unparks_total",
                "Worker wake events for dispatched runs.",
                self.unparks,
            ),
            Family::counter(
                "fg_pool_mailboxes_reused_total",
                "Per-run partition mailboxes recycled from the arena.",
                self.mailboxes_reused,
            ),
            Family::counter(
                "fg_pool_mailboxes_rebuilt_total",
                "Per-run partition mailboxes built fresh.",
                self.mailboxes_rebuilt,
            ),
        ]
    }
}

impl fmt::Display for PoolSnapshot {
    /// The families as a Markdown table (what `examples/serve` prints).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&family::table("pool", &self.families()).to_markdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_reuse_rate_is_zero() {
        let s = PoolSnapshot::default();
        assert_eq!(s.mailbox_reuse_rate(), 0.0);
        assert!(!s.mailbox_reuse_rate().is_nan());
    }

    #[test]
    fn display_is_compact_and_nan_free_when_empty() {
        let text = format!("{}", PoolSnapshot::default());
        assert!(!text.contains("NaN"), "{text}");
        assert_eq!(text.lines().count(), 4 + 6, "{text}");

        let populated = PoolSnapshot {
            threads_spawned: 4,
            dispatches: 9,
            mailboxes_reused: 10,
            mailboxes_rebuilt: 2,
            ..Default::default()
        };
        let text = format!("{populated}");
        assert!(text.contains("| fg_pool_threads_spawned_total | 4 |"), "{text}");
        assert!(text.contains("| fg_pool_mailboxes_reused_total | 10 |"), "{text}");
        assert!(text.contains("| fg_pool_mailboxes_rebuilt_total | 2 |"), "{text}");
    }
}
