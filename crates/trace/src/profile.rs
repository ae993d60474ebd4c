//! Per-run profile summaries: phase wall times and work-shape histograms.
//!
//! A [`RunProfile`] is attached to engine run results when
//! `EngineConfig::profile` is set. It is computed from cheap counters the
//! run maintains anyway (phase stopwatch marks, one histogram record per
//! partition visit) — **not** from the trace event stream — so profiles
//! work with no [`TraceSink`](crate::TraceSink) attached and cost nothing
//! when the flag is off.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `i` holds
/// values in `[2^(i-1), 2^i)`, the last bucket saturates.
const BUCKETS: usize = 17;

/// A compact log2-bucketed histogram of `u64` samples.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

/// Bucket index for a sample: 0 for 0, else `floor(log2(v)) + 1`, clamped.
fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Lower bound of bucket `i` (for display).
fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0.0 when empty — never NaN).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Samples in the bucket whose lower bound is `floor` (a power of two,
    /// or 0). Returns 0 for a non-bucket-boundary argument.
    pub fn bucket_count(&self, floor: u64) -> u64 {
        (0..BUCKETS).find(|&i| bucket_floor(i) == floor).map_or(0, |i| self.buckets[i])
    }
}

impl fmt::Display for Histogram {
    /// One line: `count / mean / max`, then the non-empty buckets as
    /// `lower-bound:count` pairs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n={} mean={:.1} max={}", self.count, self.mean(), self.max)?;
        if self.count > 0 {
            write!(f, " |")?;
            for (i, &n) in self.buckets.iter().enumerate() {
                if n > 0 {
                    write!(f, " {}+:{}", bucket_floor(i), n)?;
                }
            }
        }
        Ok(())
    }
}

/// A [`Histogram`] writable concurrently from many threads (relaxed
/// atomics — per-run totals, not a synchronisation point).
#[derive(Debug, Default)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl AtomicHistogram {
    /// Record one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Materialise the current totals.
    pub fn snapshot(&self) -> Histogram {
        let mut h = Histogram {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            ..Histogram::default()
        };
        for (i, bucket) in self.buckets.iter().enumerate() {
            h.buckets[i] = bucket.load(Ordering::Relaxed);
        }
        h
    }
}

/// Wall time spent in each phase of one engine run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Setup: state/buffer allocation and source seeding.
    pub init: Duration,
    /// The partition-at-a-time main loop, on one worker or a crew.
    pub processing: Duration,
    /// Teardown: storage recycling, measurement assembly.
    pub finalize: Duration,
}

impl PhaseTimes {
    /// Sum of the three phases.
    pub fn total(&self) -> Duration {
        self.init + self.processing + self.finalize
    }
}

/// A per-run profile: where one engine run spent its time and how the work
/// was shaped.
#[derive(Clone, Debug, Default)]
pub struct RunProfile {
    /// Per-phase wall times.
    pub phases: PhaseTimes,
    /// Worker threads that executed the run (1 = the calling thread).
    pub workers: u32,
    /// Partition visits that drained at least one operation.
    pub partition_visits: u64,
    /// Operations consolidated per partition visit.
    pub visit_ops: Histogram,
    /// Partition claims stolen from another worker's runnable set, one
    /// sample per worker (a one-worker run's is 0).
    pub steals_per_worker: Histogram,
    /// Total steals across workers.
    pub steals: u64,
    /// Queries that yielded a partition under the yield policy.
    pub yields: u64,
}

impl fmt::Display for RunProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "run profile ({} worker{}): total {:.3?}",
            self.workers,
            if self.workers == 1 { "" } else { "s" },
            self.phases.total()
        )?;
        writeln!(
            f,
            "  phases     : init {:.3?}, processing {:.3?}, finalize {:.3?}",
            self.phases.init, self.phases.processing, self.phases.finalize
        )?;
        writeln!(f, "  visits     : {} (ops/visit {})", self.partition_visits, self.visit_ops)?;
        write!(f, "  steals     : {}", self.steals)?;
        if self.steals_per_worker.count() > 0 {
            write!(f, " (per worker {})", self.steals_per_worker)?;
        }
        writeln!(f)?;
        write!(f, "  yields     : {}", self.yields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::default();
        for v in [0, 0, 1, 2, 3, 4, 7, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 9);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.bucket_count(0), 2); // the two zeros
        assert_eq!(h.bucket_count(1), 1); // 1
        assert_eq!(h.bucket_count(2), 2); // 2, 3
        assert_eq!(h.bucket_count(4), 2); // 4, 7
        assert_eq!(h.bucket_count(8), 1); // 8
        assert_eq!(h.bucket_count(512), 1); // 1000
        assert!((h.mean() - 1025.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_mean_is_zero_not_nan() {
        let h = Histogram::default();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.count(), 0);
        assert_eq!(format!("{h}"), "n=0 mean=0.0 max=0");
    }

    #[test]
    fn huge_samples_saturate_into_the_last_bucket() {
        let mut h = Histogram::default();
        h.record(u64::MAX);
        h.record(1 << 40);
        assert_eq!(h.bucket_count(1 << 15), 2);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn atomic_histogram_matches_serial_equivalent() {
        let atomic = AtomicHistogram::default();
        let mut serial = Histogram::default();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let atomic = &atomic;
                scope.spawn(move || {
                    for v in 0..64 {
                        atomic.record(t * 64 + v);
                    }
                });
            }
        });
        for t in 0..4u64 {
            for v in 0..64 {
                serial.record(t * 64 + v);
            }
        }
        assert_eq!(atomic.snapshot(), serial);
    }

    #[test]
    fn profile_display_is_one_screen() {
        let mut profile = RunProfile { workers: 2, partition_visits: 12, ..Default::default() };
        profile.phases.processing = Duration::from_millis(5);
        for ops in [1, 10, 100] {
            profile.visit_ops.record(ops);
        }
        profile.steals = 3;
        profile.steals_per_worker.record(1);
        profile.steals_per_worker.record(2);
        let text = format!("{profile}");
        assert!(text.contains("2 workers"), "{text}");
        assert!(text.contains("visits     : 12"), "{text}");
        assert!(text.contains("steals     : 3"), "{text}");
        assert!(text.lines().count() <= 6, "{text}");
    }
}
