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
}

impl fmt::Display for PoolSnapshot {
    /// A compact, human-readable pool health summary (what `examples/serve`
    /// prints). Zero-denominator-safe for an unused pool.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pool: {} threads spawned, {} dispatches, {} parks / {} unparks",
            self.threads_spawned, self.dispatches, self.parks, self.unparks
        )?;
        write!(
            f,
            "  reuse: mailboxes {}/{} ({:.1}%)",
            self.mailboxes_reused,
            self.mailboxes_reused + self.mailboxes_rebuilt,
            100.0 * self.mailbox_reuse_rate()
        )
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
        assert!(text.lines().count() <= 2, "{text}");

        let populated = PoolSnapshot {
            threads_spawned: 4,
            dispatches: 9,
            mailboxes_reused: 10,
            mailboxes_rebuilt: 2,
            ..Default::default()
        };
        let text = format!("{populated}");
        assert!(text.contains("4 threads spawned"), "{text}");
        assert!(text.contains("mailboxes 10/12 (83.3%)"), "{text}");
    }
}
