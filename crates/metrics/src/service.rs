//! Service-level metrics for the `fg-service` query-serving layer.
//!
//! The engine-side [`crate::WorkCounters`] measure one batch run; the serving
//! layer needs cross-batch operational metrics instead: queue depth,
//! admission/shed counts, batch occupancy (how many queries each consolidated
//! engine run carried — the quantity the paper's batching thesis is about),
//! result-cache hit rate, and end-to-end submit→result latency percentiles.
//!
//! All counters are lock-free atomics so the submit path stays cheap; the
//! latency recorder keeps a bounded reservoir behind a mutex taken once per
//! completed query.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Maximum number of latency samples retained; beyond this the recorder
/// overwrites pseudo-randomly (bounded-memory reservoir).
const LATENCY_RESERVOIR: usize = 4096;

/// Maximum number of per-batch sizing records retained (bounded ring).
const BATCH_RECORD_RING: usize = 1024;

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
    /// batch, the *first* (oldest) cohort's registration (`0` when the
    /// serving layer predates kernel ids or did not report one).
    pub kernel_id: u64,
    /// Number of distinct kernel cohorts (batch keys) the batch carried —
    /// not passes: a cohort whose resumed members run in a pass of their
    /// own still counts once. `1` is a single-kernel batch; `>= 2` is a
    /// mixed batch, its passes run back to back on one pinned epoch.
    pub kernels_in_run: u32,
}

/// Live counters of a running service. Shared between the submit path, the
/// batcher thread, and observers via `Arc`.
#[derive(Debug, Default)]
pub struct ServiceCounters {
    /// Queries offered to `submit` (admitted + rejected).
    pub submitted: AtomicU64,
    /// Queries accepted into the pending queue.
    pub admitted: AtomicU64,
    /// Queries refused with a backpressure error (queue saturated).
    pub rejected: AtomicU64,
    /// Queries answered straight from the result cache.
    pub cache_hits: AtomicU64,
    /// Queries that missed the result cache (went to the engine).
    pub cache_misses: AtomicU64,
    /// Consolidated engine runs dispatched.
    pub batches_dispatched: AtomicU64,
    /// Total queries carried by dispatched batches.
    pub queries_batched: AtomicU64,
    /// Largest single-batch occupancy observed.
    pub max_batch_occupancy: AtomicU64,
    /// Current pending-queue depth.
    pub queue_depth: AtomicU64,
    /// High-water mark of the pending queue.
    pub max_queue_depth: AtomicU64,
    /// Largest worker count any dispatched batch ran with.
    pub max_batch_workers: AtomicU64,
    /// Dispatched batches that carried ≥ 2 distinct kernel cohorts.
    pub mixed_runs: AtomicU64,
    /// Cached answers found stale at lookup: a mutation since the graph
    /// version they were computed at could reach their source.
    pub cache_invalidations: AtomicU64,
    /// Engine passes that resumed from cached answers across an edge delta
    /// instead of running the kernel from scratch.
    pub incremental_runs: AtomicU64,
    latencies: Mutex<Vec<Duration>>,
    latency_count: AtomicU64,
    /// Ring of recent per-batch sizing decisions (bounded).
    batch_records: Mutex<Vec<BatchRecord>>,
    batch_record_count: AtomicU64,
}

impl ServiceCounters {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one admitted submission and the resulting queue depth.
    pub fn on_admit(&self, depth_after: usize) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.admitted.fetch_add(1, Ordering::Relaxed);
        self.queue_depth.store(depth_after as u64, Ordering::Relaxed);
        self.max_queue_depth.fetch_max(depth_after as u64, Ordering::Relaxed);
    }

    /// Record one submission shed by admission control.
    pub fn on_reject(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a cache hit (the query never enters the queue).
    pub fn on_cache_hit(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a cache miss for an admitted query.
    pub fn on_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a dispatched batch of `occupancy` queries, and the queue depth
    /// left behind.
    pub fn on_batch(&self, occupancy: usize, depth_after: usize) {
        self.batches_dispatched.fetch_add(1, Ordering::Relaxed);
        self.queries_batched.fetch_add(occupancy as u64, Ordering::Relaxed);
        self.max_batch_occupancy.fetch_max(occupancy as u64, Ordering::Relaxed);
        self.queue_depth.store(depth_after as u64, Ordering::Relaxed);
    }

    /// Record the worker count the adaptive sizing policy chose for one
    /// dispatched run of `batch_size` queries across `kernels_in_run`
    /// cohorts, led by kernel `kernel_id`.
    pub fn on_batch_workers(
        &self,
        batch_size: usize,
        workers: usize,
        kernel_id: u64,
        kernels_in_run: usize,
    ) {
        self.max_batch_workers.fetch_max(workers as u64, Ordering::Relaxed);
        if kernels_in_run >= 2 {
            self.mixed_runs.fetch_add(1, Ordering::Relaxed);
        }
        let record = BatchRecord {
            batch_size: batch_size as u32,
            workers: workers as u32,
            kernel_id,
            kernels_in_run: kernels_in_run as u32,
        };
        let n = self.batch_record_count.fetch_add(1, Ordering::Relaxed) as usize;
        let mut ring = self.batch_records.lock().unwrap_or_else(|p| p.into_inner());
        if ring.len() < BATCH_RECORD_RING {
            ring.push(record);
        } else {
            ring[n % BATCH_RECORD_RING] = record;
        }
    }

    /// The retained per-batch sizing records (bounded ring; oldest entries
    /// are overwritten once `BATCH_RECORD_RING` batches have been seen).
    pub fn batch_records(&self) -> Vec<BatchRecord> {
        self.batch_records.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Record `count` cached answers found stale at lookup.
    pub fn on_cache_invalidations(&self, count: usize) {
        self.cache_invalidations.fetch_add(count as u64, Ordering::Relaxed);
    }

    /// Record one engine run that restarted from a delta frontier instead of
    /// recomputing from scratch.
    pub fn on_incremental_run(&self) {
        self.incremental_runs.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one query's end-to-end (submit → result available) latency.
    pub fn record_latency(&self, latency: Duration) {
        let n = self.latency_count.fetch_add(1, Ordering::Relaxed) as usize;
        let mut samples = self.latencies.lock().unwrap_or_else(|p| p.into_inner());
        if samples.len() < LATENCY_RESERVOIR {
            samples.push(latency);
        } else {
            // Cheap deterministic "random" slot: low bits of a Weyl sequence
            // over the sample index keep the reservoir representative enough
            // for p50/p99 without an RNG dependency.
            let slot = (n.wrapping_mul(0x9E37_79B9)) % LATENCY_RESERVOIR;
            samples[slot] = latency;
        }
    }

    /// Point-in-time snapshot of every counter. The graph-store fields of
    /// [`ServiceSnapshot`] (mutations applied and the epoch figures) are left
    /// zero: the store owns them, and the service fills them in from it.
    pub fn snapshot(&self) -> ServiceSnapshot {
        let samples = {
            let guard = self.latencies.lock().unwrap_or_else(|p| p.into_inner());
            let mut s: Vec<Duration> = guard.clone();
            s.sort_unstable();
            s
        };
        let percentile = |p: f64| -> Duration {
            if samples.is_empty() {
                Duration::ZERO
            } else {
                let idx = ((samples.len() - 1) as f64 * p).round() as usize;
                samples[idx]
            }
        };
        ServiceSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            batches_dispatched: self.batches_dispatched.load(Ordering::Relaxed),
            queries_batched: self.queries_batched.load(Ordering::Relaxed),
            max_batch_occupancy: self.max_batch_occupancy.load(Ordering::Relaxed),
            max_batch_workers: self.max_batch_workers.load(Ordering::Relaxed),
            mixed_runs: self.mixed_runs.load(Ordering::Relaxed),
            cache_invalidations: self.cache_invalidations.load(Ordering::Relaxed),
            incremental_runs: self.incremental_runs.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            latency_p50: percentile(0.50),
            latency_p99: percentile(0.99),
            latency_samples: samples.len() as u64,
            ..ServiceSnapshot::default()
        }
    }
}

/// Immutable snapshot of a service's metrics: its [`ServiceCounters`] plus
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
    /// Median submit→result latency over the retained reservoir.
    pub latency_p50: Duration,
    /// 99th-percentile submit→result latency over the retained reservoir.
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
    fn counters_accumulate_and_snapshot() {
        let c = ServiceCounters::new();
        c.on_cache_hit();
        c.on_admit(1);
        c.on_cache_miss();
        c.on_admit(2);
        c.on_cache_miss();
        c.on_reject();
        c.on_batch(2, 0);
        let s = c.snapshot();
        assert_eq!(s.submitted, 4);
        assert_eq!(s.admitted, 2);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 2);
        assert_eq!(s.batches_dispatched, 1);
        assert_eq!(s.queries_batched, 2);
        assert_eq!(s.max_batch_occupancy, 2);
        assert_eq!(s.max_queue_depth, 2);
        assert_eq!(s.queue_depth, 0);
        assert!((s.mean_batch_occupancy() - 2.0).abs() < 1e-12);
        assert!((s.cache_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn mutation_counters_accumulate() {
        let c = ServiceCounters::new();
        c.on_cache_invalidations(7);
        c.on_incremental_run();
        let s = c.snapshot();
        assert_eq!(s.cache_invalidations, 7);
        assert_eq!(s.incremental_runs, 1);
        assert_eq!(s.mutations_applied, 0, "the graph store counts folds, not the counters");
        let text = format!("{s}");
        assert!(text.contains("7 invalidations, 1 incremental runs"), "{text}");
    }

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
        let c = ServiceCounters::new();
        for ms in 1..=100u64 {
            c.record_latency(Duration::from_millis(ms));
        }
        let s = c.snapshot();
        assert_eq!(s.latency_samples, 100);
        assert!(s.latency_p50 >= Duration::from_millis(45));
        assert!(s.latency_p50 <= Duration::from_millis(55));
        assert!(s.latency_p99 >= s.latency_p50);
        assert!(s.latency_p99 >= Duration::from_millis(95));
    }

    #[test]
    fn latency_reservoir_is_bounded() {
        let c = ServiceCounters::new();
        for i in 0..10_000u64 {
            c.record_latency(Duration::from_micros(i));
        }
        let s = c.snapshot();
        assert!(s.latency_samples <= LATENCY_RESERVOIR as u64);
        assert!(s.latency_p99 >= s.latency_p50);
    }

    #[test]
    fn batch_records_are_retained_and_bounded() {
        let c = ServiceCounters::new();
        c.on_batch_workers(2, 1, 1, 1);
        c.on_batch_workers(64, 8, 17, 3);
        let records = c.batch_records();
        assert_eq!(records.len(), 2);
        assert_eq!(
            records[0],
            BatchRecord { batch_size: 2, workers: 1, kernel_id: 1, kernels_in_run: 1 }
        );
        assert_eq!(
            records[1],
            BatchRecord { batch_size: 64, workers: 8, kernel_id: 17, kernels_in_run: 3 }
        );
        assert_eq!(c.snapshot().max_batch_workers, 8);
        for _ in 0..2 * BATCH_RECORD_RING {
            c.on_batch_workers(4, 2, 1, 1);
        }
        assert_eq!(c.batch_records().len(), BATCH_RECORD_RING);
    }

    #[test]
    fn mixed_run_rate_counts_multi_cohort_runs() {
        let c = ServiceCounters::new();
        assert_eq!(c.snapshot().mixed_run_rate(), 0.0, "no runs yet");
        c.on_batch(3, 0);
        c.on_batch_workers(3, 2, 1, 1);
        c.on_batch(5, 0);
        c.on_batch_workers(5, 2, 1, 2);
        c.on_batch(6, 0);
        c.on_batch_workers(6, 4, 9, 3);
        let s = c.snapshot();
        assert_eq!(s.mixed_runs, 2);
        assert_eq!(s.batches_dispatched, 3);
        assert!((s.mixed_run_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let s = ServiceCounters::new().snapshot();
        assert_eq!(s.latency_p50, Duration::ZERO);
        assert_eq!(s.mean_batch_occupancy(), 0.0);
        assert_eq!(s.cache_hit_rate(), 0.0);
    }

    /// Pins the zero-denominator contract of every rate accessor: a
    /// fresh/idle service must report clean zeros, never NaN (NaN poisons
    /// comparisons, JSON serialisation, and the Prometheus exposition).
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
