//! Lifetime figures of a persistent executor worker pool.
//!
//! A [`crate::WorkSnapshot`] measures *one* engine run; a persistent worker
//! pool (`forkgraph_core::WorkerPool`) lives across many runs, so its
//! health is described by cross-run figures instead: how many OS threads
//! were ever spawned (steady state must stop growing), how many runs were
//! dispatched, and how often workers parked/woke between runs. The pool
//! keeps each figure next to the state it describes, under the lock that
//! state already has, and reads them out as a [`PoolSnapshot`].

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
}

impl PoolSnapshot {
    /// Always `0.0`: every run builds its mailboxes and drops them when it
    /// ends, so the pool reuses none. Kept only because
    /// `fgbench/src/layers.rs` reads it for `core.pool.mailbox_reuse_rate`;
    /// it goes with benchmark PR A (see ROADMAP).
    pub fn mailbox_reuse_rate(&self) -> f64 {
        0.0
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
        assert_eq!(text.lines().count(), 4 + 4, "{text}");

        let populated = PoolSnapshot { threads_spawned: 4, dispatches: 9, parks: 10, unparks: 2 };
        let text = format!("{populated}");
        assert!(text.contains("| fg_pool_threads_spawned_total | 4 |"), "{text}");
        assert!(text.contains("| fg_pool_parks_total | 10 |"), "{text}");
        assert!(text.contains("| fg_pool_unparks_total | 2 |"), "{text}");
    }
}
