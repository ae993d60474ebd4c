//! Order statistics over timing samples. Every timed number the benchmark
//! reports is a median (or a named percentile) of repetitions, never a
//! best-of: a minimum hides the slow half of what a user sees and the
//! maximum of a ratio's denominator. Nor is it a sum: the host this runs on
//! has bad phases of ten seconds and more (README.md, "Noise floor"), a sum
//! takes every one of them in, and a median ignores them until they cover
//! half the run.

/// Median of `values` (mean of the two middle elements for even counts).
///
/// # Panics
/// Panics on an empty slice: every caller passes the samples of a loop that
/// ran at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `p`-th percentile (`0 < p < 1`) by the nearest-rank rule: the
/// smallest sample with at least `p` of the samples at or below it. At
/// `p = 0.9` and 104 samples that leaves ten samples beyond the reported
/// one, which is the most a tail percentile may claim from that count.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First quartile, median and third quartile by the exclusive method — the
/// one Python's `statistics.quantiles(values, n=4)` uses, so the `--noise`
/// table reads the same as the acceptance check that is run on it.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| {
        // Position k*(n+1)/4 on a 1-based axis, linearly interpolated and
        // clamped to the sample range.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        sorted[lo - 1] + (sorted[lo] - sorted[lo - 1]) * frac
    };
    (at(1), at(2), at(3))
}

/// One stretch of a run — an interleaved pair, a segment of requests, a
/// block of rounds: the program's timed work and the `fg-seq` loop that
/// answered the same operations right beside it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stretch {
    /// Wall seconds of the program's work.
    pub wall_s: f64,
    /// Wall seconds of the sequential loop.
    pub seq_s: f64,
}

/// The median stretch of a run: its wall time, and its wall time over the
/// sequential loop's. `None` when there are no stretches.
pub fn typical(stretches: &[Stretch]) -> Option<(f64, f64)> {
    if stretches.is_empty() {
        return None;
    }
    let wall: Vec<f64> = stretches.iter().map(|s| s.wall_s).collect();
    let ratios: Vec<f64> = stretches.iter().map(|s| s.wall_s / s.seq_s).collect();
    Some((median(&wall), median(&ratios)))
}

/// The `p`-th percentile of the latency samples of the median stretch: each
/// stretch's own percentile, then the median of those. A burst of slow
/// samples moves a percentile taken over the whole run as soon as it holds a
/// tenth of them; it moves this one when it reaches half the stretches.
/// Stretches without samples are left out; `None` when none has any.
pub fn typical_percentile(per_stretch: &[Vec<f64>], p: f64) -> Option<f64> {
    let each: Vec<f64> = per_stretch
        .iter()
        .filter(|samples| !samples.is_empty())
        .map(|samples| percentile(samples, p))
        .collect();
    (!each.is_empty()).then(|| median(&each))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_typical_percentile_ignores_a_burst() {
        let calm: Vec<f64> = (1..=10).map(f64::from).collect();
        let burst: Vec<f64> = calm.iter().map(|x| x * 100.0).collect();
        let run = [calm.clone(), burst, calm.clone(), vec![], calm];
        assert_eq!(typical_percentile(&run, 0.9), Some(9.0));
        assert_eq!(typical_percentile(&run, 0.5), Some(5.0));
        assert_eq!(typical_percentile(&[vec![]], 0.5), None);
    }

    #[test]
    fn the_typical_stretch_ignores_a_bad_phase() {
        let calm = Stretch { wall_s: 2.0, seq_s: 1.0 };
        let bad = Stretch { wall_s: 6.0, seq_s: 1.5 };
        assert_eq!(typical(&[calm, bad, calm, calm, bad]), Some((2.0, 2.0)));
        assert_eq!(typical(&[]), None);
    }

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=104).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.5), 52.0);
        // Ten samples lie beyond the reported 90th percentile.
        assert_eq!(percentile(&hundred, 0.9), 94.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 3.0, 4.5));
    }
}
