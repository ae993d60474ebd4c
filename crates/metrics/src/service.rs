//! Service-level metrics for the `fg-service` query-serving layer.
//!
//! The engine-side [`crate::WorkSnapshot`] measures one batch run; the serving
//! layer needs cross-batch operational metrics instead: queue depth,
//! admission/shed counts, batch occupancy (how many queries each consolidated
//! engine run carried — the quantity the paper's batching thesis is about),
//! result-cache hit rate, and end-to-end submit→result latency percentiles.
//!
//! The service counts these itself, in plain fields under the queue lock it
//! already takes for the work being counted; this module holds the shapes it
//! reports them in and the bounded [`LatencyReservoir`] the percentiles come
//! from.

use std::fmt;
use std::time::Duration;

/// Maximum number of latency samples retained; beyond this each sample
/// overwrites the oldest.
const LATENCY_RESERVOIR: usize = 4096;

/// One dispatched batch's sizing decision: how many queries the batch
/// carried and how many engine workers the adaptive policy chose for it.
/// Retained in a bounded ring so tests (and operators) can audit that the
/// sizing policy was actually applied per batch, not just on average.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchRecord {
    /// Queries consolidated into the batch.
    pub batch_size: u32,
    /// Engine worker threads chosen for the batch's run.
    pub workers: u32,
    /// Identity of the kernel registration the batch ran — for a mixed
    /// batch, the *first* (oldest) cohort's registration.
    pub kernel_id: u64,
    /// Number of distinct kernel cohorts (batch keys) the batch carried —
    /// not passes: a cohort whose resumed members run in a pass of their
    /// own still counts once. `1` is a single-kernel batch; `>= 2` is a
    /// mixed batch, its passes run back to back on one pinned epoch.
    pub kernels_in_run: u32,
}

/// The submit→result latencies of the last 4 096 answered queries, kept in a
/// ring. It has no lock of its own: its owner keeps it under the lock it
/// counts under.
#[derive(Clone, Debug, Default)]
pub struct LatencyReservoir {
    samples: Vec<Duration>,
    recorded: usize,
}

impl LatencyReservoir {
    /// Record one query's end-to-end (submit → result available) latency.
    pub fn record(&mut self, latency: Duration) {
        if self.samples.len() < LATENCY_RESERVOIR {
            self.samples.push(latency);
        } else {
            self.samples[self.recorded % LATENCY_RESERVOIR] = latency;
        }
        self.recorded = self.recorded.wrapping_add(1);
    }

    /// `(p50, p99, samples retained)`; zero durations when empty. Consumes
    /// the reservoir to sort it: an owner under a lock clones it out first.
    pub fn percentiles(self) -> (Duration, Duration, u64) {
        let mut samples = self.samples;
        samples.sort_unstable();
        let percentile = |p: f64| -> Duration {
            if samples.is_empty() {
                Duration::ZERO
            } else {
                samples[((samples.len() - 1) as f64 * p).round() as usize]
            }
        };
        (percentile(0.50), percentile(0.99), samples.len() as u64)
    }
}

/// Immutable snapshot of a service's metrics: the service's own counts plus
/// the figures its graph store keeps (`mutations_applied` and the epoch
/// fields).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceSnapshot {
    pub submitted: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub batches_dispatched: u64,
    pub queries_batched: u64,
    pub max_batch_occupancy: u64,
    /// Largest engine worker count any batch ran with (adaptive sizing).
    pub max_batch_workers: u64,
    /// Dispatched batches that carried ≥ 2 distinct kernel cohorts.
    pub mixed_runs: u64,
    /// Edge mutations merged into the served graph at quiesce points.
    pub mutations_applied: u64,
    /// Cached answers found stale at lookup.
    pub cache_invalidations: u64,
    /// Engine passes resumed from cached answers instead of from scratch.
    pub incremental_runs: u64,
    /// Snapshot epochs published (one per non-empty mutation fold).
    pub epochs_advanced: u64,
    /// Dirty partitions re-materialized across all epoch advances.
    pub partitions_rematerialized: u64,
    /// Clean partitions `Arc`-shared with the previous epoch across all
    /// advances.
    pub partitions_shared: u64,
    /// Retired epoch snapshots whose storage has been reclaimed.
    pub snapshots_reclaimed: u64,
    /// Current epoch minus the oldest epoch still pinned (gauge).
    pub oldest_pinned_epoch_lag: u64,
    pub queue_depth: u64,
    pub max_queue_depth: u64,
    /// Median submit→result latency over the last 4 096 answered queries.
    pub latency_p50: Duration,
    /// 99th-percentile submit→result latency over the last 4 096 answered
    /// queries.
    pub latency_p99: Duration,
    /// Number of latency samples the percentiles are computed from.
    pub latency_samples: u64,
}

impl ServiceSnapshot {
    /// Mean queries per dispatched batch (the consolidation win).
    pub fn mean_batch_occupancy(&self) -> f64 {
        if self.batches_dispatched == 0 {
            0.0
        } else {
            self.queries_batched as f64 / self.batches_dispatched as f64
        }
    }

    /// Fraction of dispatched batches that carried ≥ 2 distinct kernel
    /// cohorts, in `[0, 1]`: `0.0` means every batch was a single-kernel
    /// batch.
    pub fn mixed_run_rate(&self) -> f64 {
        if self.batches_dispatched == 0 {
            0.0
        } else {
            self.mixed_runs as f64 / self.batches_dispatched as f64
        }
    }

    /// Cache hit rate in `[0, 1]` over queries that consulted the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Fraction of partition slots re-materialized (vs `Arc`-shared) across
    /// all epoch advances, in `[0, 1]`. `1.0` would mean every advance
    /// rebuilt every partition — the old full-quiesce behaviour; localized
    /// mutation workloads should sit well below it. Zero-denominator-safe.
    pub fn dirty_rematerialize_frac(&self) -> f64 {
        let total = self.partitions_rematerialized + self.partitions_shared;
        if total == 0 {
            0.0
        } else {
            self.partitions_rematerialized as f64 / total as f64
        }
    }
}

impl fmt::Display for ServiceSnapshot {
    /// A compact, human-readable operational summary (what `examples/serve`
    /// prints). One screen; every rate is zero-denominator-safe.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "service: {} submitted ({} admitted, {} rejected), queue {} (max {})",
            self.submitted, self.admitted, self.rejected, self.queue_depth, self.max_queue_depth
        )?;
        writeln!(
            f,
            "  cache  : {} hits / {} misses ({:.1}% hit rate)",
            self.cache_hits,
            self.cache_misses,
            100.0 * self.cache_hit_rate()
        )?;
        writeln!(
            f,
            "  batches: {} runs, {} queries (mean {:.1}/batch, max {}, workers <= {})",
            self.batches_dispatched,
            self.queries_batched,
            self.mean_batch_occupancy(),
            self.max_batch_occupancy,
            self.max_batch_workers
        )?;
        writeln!(
            f,
            "  mixed  : {} mixed batches ({:.1}% of batches)",
            self.mixed_runs,
            100.0 * self.mixed_run_rate()
        )?;
        writeln!(
            f,
            "  dynamic: {} mutations applied, {} invalidations, {} incremental runs",
            self.mutations_applied, self.cache_invalidations, self.incremental_runs
        )?;
        writeln!(
            f,
            "  epochs : {} advanced ({} rematerialized / {} shared, {:.1}% dirty), \
             {} reclaimed, pin lag {}",
            self.epochs_advanced,
            self.partitions_rematerialized,
            self.partitions_shared,
            100.0 * self.dirty_rematerialize_frac(),
            self.snapshots_reclaimed,
            self.oldest_pinned_epoch_lag
        )?;
        write!(
            f,
            "  latency: p50 {:.3?}, p99 {:.3?} ({} samples)",
            self.latency_p50, self.latency_p99, self.latency_samples
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_fields_render_with_their_dirty_rate() {
        let s = ServiceSnapshot {
            mutations_applied: 5,
            epochs_advanced: 4,
            partitions_rematerialized: 6,
            partitions_shared: 10,
            snapshots_reclaimed: 3,
            oldest_pinned_epoch_lag: 1,
            ..Default::default()
        };
        assert!((s.dirty_rematerialize_frac() - 6.0 / 16.0).abs() < 1e-12);
        let text = format!("{s}");
        assert!(text.contains("5 mutations applied"), "{text}");
        assert!(text.contains("4 advanced"), "{text}");
        assert!(text.contains("37.5% dirty"), "{text}");
        assert!(text.contains("3 reclaimed, pin lag 1"), "{text}");
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let mut r = LatencyReservoir::default();
        for ms in 1..=100u64 {
            r.record(Duration::from_millis(ms));
        }
        let (p50, p99, samples) = r.percentiles();
        assert_eq!(samples, 100);
        assert!(p50 >= Duration::from_millis(45));
        assert!(p50 <= Duration::from_millis(55));
        assert!(p99 >= p50);
        assert!(p99 >= Duration::from_millis(95));
    }

    #[test]
    fn latency_reservoir_is_bounded() {
        let mut r = LatencyReservoir::default();
        for i in 0..10_000u64 {
            r.record(Duration::from_micros(i));
        }
        let (p50, p99, samples) = r.percentiles();
        assert_eq!(samples, LATENCY_RESERVOIR as u64);
        assert!(p99 >= p50);
    }

    #[test]
    fn latency_reservoir_keeps_the_last_samples() {
        let mut r = LatencyReservoir::default();
        for ms in 1..=5_000u64 {
            r.record(Duration::from_millis(ms));
        }
        assert_eq!(r.samples.iter().min(), Some(&Duration::from_millis(905)));
        let (p50, p99, samples) = r.percentiles();
        assert_eq!(samples, 4096);
        assert_eq!(p50, Duration::from_millis(905 + 2048));
        assert_eq!(p99, Duration::from_millis(905 + 4054));
    }

    #[test]
    fn mixed_run_rate_is_multi_cohort_runs_over_batches() {
        let s = ServiceSnapshot { mixed_runs: 2, batches_dispatched: 3, ..Default::default() };
        assert!((s.mixed_run_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!(format!("{s}").contains("2 mixed batches (66.7% of batches)"), "{s}");
    }

    #[test]
    fn empty_reservoir_is_zero() {
        assert_eq!(LatencyReservoir::default().percentiles(), (Duration::ZERO, Duration::ZERO, 0));
        let s = ServiceSnapshot::default();
        assert_eq!(s.mean_batch_occupancy(), 0.0);
        assert_eq!(s.cache_hit_rate(), 0.0);
    }

    #[test]
    fn rate_accessors_return_zero_not_nan_on_zero_denominators() {
        let s = ServiceSnapshot::default();
        for rate in [
            s.mean_batch_occupancy(),
            s.mixed_run_rate(),
            s.cache_hit_rate(),
            s.dirty_rematerialize_frac(),
        ] {
            assert!(!rate.is_nan());
            assert_eq!(rate, 0.0);
        }
        // Partially-populated snapshots with a zero denominator stay safe:
        // mixed_runs without dispatches (impossible live, possible in
        // hand-built snapshots) must not divide by zero.
        let s = ServiceSnapshot { mixed_runs: 3, cache_hits: 5, ..Default::default() };
        assert_eq!(s.mixed_run_rate(), 0.0);
        assert_eq!(s.mean_batch_occupancy(), 0.0);
        assert!((s.cache_hit_rate() - 1.0).abs() < 1e-12, "hits with no misses is a 100% rate");
    }

    #[test]
    fn display_is_compact_and_nan_free_when_empty() {
        let text = format!("{}", ServiceSnapshot::default());
        assert!(!text.contains("NaN"), "{text}");
        assert!(text.lines().count() <= 7, "{text}");
        assert!(text.contains("0 submitted"), "{text}");
        assert!(text.contains("pin lag 0"), "{text}");

        let populated = ServiceSnapshot {
            submitted: 10,
            admitted: 8,
            rejected: 2,
            cache_hits: 4,
            cache_misses: 4,
            batches_dispatched: 2,
            queries_batched: 8,
            mixed_runs: 1,
            ..Default::default()
        };
        let text = format!("{populated}");
        assert!(text.contains("10 submitted (8 admitted, 2 rejected)"), "{text}");
        assert!(text.contains("50.0% hit rate"), "{text}");
        assert!(text.contains("mean 4.0/batch"), "{text}");
    }
}
