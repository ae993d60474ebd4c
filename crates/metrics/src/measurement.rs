//! Measurements bundling time, work, and cache behaviour.

use std::time::Duration;

use crate::counters::WorkSnapshot;

/// Cache counters copied from `fg-cachesim` (duplicated here to avoid a
/// circular dependency; conversion helpers live in the engines).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheNumbers {
    /// Total simulated LLC accesses.
    pub accesses: u64,
    /// Simulated LLC loads (reads).
    pub loads: u64,
    /// Simulated LLC misses.
    pub misses: u64,
}

impl CacheNumbers {
    /// Miss ratio in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// One engine run's results.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Measurement {
    /// Label, e.g. `"ForkGraph"` or `"Ligra (t=1)"`.
    pub label: String,
    /// Wall-clock execution time.
    pub wall_time: Duration,
    /// Work counters.
    pub work: WorkSnapshot,
    /// Simulated cache counters (if the run was instrumented).
    pub cache: Option<CacheNumbers>,
}

impl Measurement {
    /// Create a measurement with just a label and a wall time.
    pub fn new(label: impl Into<String>, wall_time: Duration) -> Self {
        Measurement { label: label.into(), wall_time, ..Default::default() }
    }
}

/// Convenience timer that produces a [`Duration`].
#[derive(Debug)]
pub struct Stopwatch {
    start: std::time::Instant,
}

impl Stopwatch {
    /// Start timing.
    pub fn start() -> Self {
        Stopwatch { start: std::time::Instant::now() }
    }

    /// Elapsed time since start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_numbers_miss_ratio() {
        let c = CacheNumbers { accesses: 10, loads: 8, misses: 4 };
        assert!((c.miss_ratio() - 0.4).abs() < 1e-12);
        assert_eq!(CacheNumbers::default().miss_ratio(), 0.0);
    }

    #[test]
    fn stopwatch_moves_forward() {
        let sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(2));
        assert!(sw.elapsed() >= Duration::from_millis(1));
    }

    #[test]
    fn measurement_round_trips_by_value() {
        // A measurement is a plain value: a copy compares equal to it.
        let m = Measurement::new("x", Duration::from_millis(5));
        let back = m.clone();
        assert_eq!(m, back);
    }
}
