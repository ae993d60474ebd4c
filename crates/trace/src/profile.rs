//! Per-run profile summaries: phase wall times and work-shape histograms.
//!
//! A [`RunProfile`] is attached to engine run results when
//! `EngineConfig::profile` is set. It is computed from the run's phase
//! stopwatch marks plus one plain [`Histogram`] per worker, recorded once
//! per partition visit and merged when the run ends — **not** from the trace
//! event stream — so profiles work with no [`TraceSink`](crate::TraceSink)
//! attached and cost nothing when the flag is off.

use std::fmt;
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

    /// Add every sample of `other`, as if each had been recorded here.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
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

/// A per-run profile: where one engine run spent its time and how big its
/// partition visits were. The run's counts (visits, steals, yields, workers)
/// are in its `WorkSnapshot`.
#[derive(Clone, Debug, Default)]
pub struct RunProfile {
    /// Per-phase wall times.
    pub phases: PhaseTimes,
    /// Operations consolidated per partition visit.
    pub visit_ops: Histogram,
}

impl fmt::Display for RunProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "run profile: total {:.3?}", self.phases.total())?;
        writeln!(
            f,
            "  phases     : init {:.3?}, processing {:.3?}, finalize {:.3?}",
            self.phases.init, self.phases.processing, self.phases.finalize
        )?;
        write!(f, "  ops/visit  : {}", self.visit_ops)
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
    fn merging_a_split_stream_equals_recording_it_serially() {
        let mut merged = Histogram::default();
        let mut serial = Histogram::default();
        for t in 0..4u64 {
            let mut part = Histogram::default();
            for v in 0..64 {
                part.record(t * 64 + v);
                serial.record(t * 64 + v);
            }
            merged.merge(&part);
        }
        merged.merge(&Histogram::default());
        assert_eq!(merged, serial);
    }

    #[test]
    fn profile_display_is_one_screen() {
        let mut profile = RunProfile::default();
        profile.phases.processing = Duration::from_millis(5);
        for ops in [1, 10, 100] {
            profile.visit_ops.record(ops);
        }
        let text = format!("{profile}");
        assert!(text.contains("processing 5.000ms"), "{text}");
        assert!(text.contains("ops/visit  : n=3"), "{text}");
        assert!(text.lines().count() <= 3, "{text}");
    }
}
