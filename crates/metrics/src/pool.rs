//! Lifetime counters for a persistent executor worker pool.
//!
//! A [`crate::WorkSnapshot`] measures *one* engine run; a persistent worker
//! pool (`forkgraph_core::WorkerPool`) lives across many runs, so its
//! health is described by cross-run counters instead: how many OS threads
//! were ever spawned (steady state must stop growing), how many runs were
//! dispatched, how often workers parked/woke between runs, and how often the
//! partition mailboxes a run needs were recycled from the pool's arena versus
//! built fresh.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters of a persistent worker pool. All relaxed atomics: they are
/// statistics, not synchronisation.
#[derive(Debug, Default)]
pub struct PoolCounters {
    threads_spawned: AtomicU64,
    dispatches: AtomicU64,
    parks: AtomicU64,
    unparks: AtomicU64,
    mailboxes_reused: AtomicU64,
    mailboxes_rebuilt: AtomicU64,
}

impl PoolCounters {
    /// Create zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` OS worker threads spawned (pool creation or growth).
    #[inline]
    pub fn add_threads_spawned(&self, n: u64) {
        self.threads_spawned.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one run dispatched onto the pool.
    #[inline]
    pub fn add_dispatch(&self) {
        self.dispatches.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one worker parking between runs.
    #[inline]
    pub fn add_park(&self) {
        self.parks.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one worker waking up for a dispatched run.
    #[inline]
    pub fn add_unpark(&self) {
        self.unparks.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` partition mailboxes recycled from the pool arena.
    #[inline]
    pub fn add_mailboxes_reused(&self, n: u64) {
        self.mailboxes_reused.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` partition mailboxes built fresh for a run.
    #[inline]
    pub fn add_mailboxes_rebuilt(&self, n: u64) {
        self.mailboxes_rebuilt.fetch_add(n, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> PoolSnapshot {
        PoolSnapshot {
            threads_spawned: self.threads_spawned.load(Ordering::Relaxed),
            dispatches: self.dispatches.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            unparks: self.unparks.load(Ordering::Relaxed),
            mailboxes_reused: self.mailboxes_reused.load(Ordering::Relaxed),
            mailboxes_rebuilt: self.mailboxes_rebuilt.load(Ordering::Relaxed),
        }
    }
}

/// Immutable snapshot of [`PoolCounters`].
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
    fn counters_accumulate_and_snapshot() {
        let c = PoolCounters::new();
        c.add_threads_spawned(4);
        c.add_dispatch();
        c.add_dispatch();
        c.add_park();
        c.add_unpark();
        c.add_mailboxes_reused(10);
        c.add_mailboxes_rebuilt(2);
        let s = c.snapshot();
        assert_eq!(s.threads_spawned, 4);
        assert_eq!(s.dispatches, 2);
        assert_eq!(s.parks, 1);
        assert_eq!(s.unparks, 1);
        assert_eq!(s.mailboxes_reused, 10);
        assert_eq!(s.mailboxes_rebuilt, 2);
        assert!((s.mailbox_reuse_rate() - 10.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn empty_snapshot_reuse_rate_is_zero() {
        let s = PoolCounters::new().snapshot();
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

    #[test]
    fn counters_are_thread_safe() {
        let c = PoolCounters::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..500 {
                        c.add_dispatch();
                    }
                });
            }
        });
        assert_eq!(c.snapshot().dispatches, 2000);
    }
}
