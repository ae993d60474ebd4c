//! Adaptive per-batch worker sizing.
//!
//! The batcher used to run every micro-batch with the fixed
//! `EngineConfig::num_threads` it was started with — a 2-query batch fanned
//! out to an 8-worker crew (pure coordination overhead), while a 64-query
//! batch on a 2-thread config starved. The persistent
//! [`WorkerPool`](forkgraph_core::WorkerPool) makes varying the worker count
//! per run cheap (non-participating workers just stay parked), so the
//! batcher now picks the effective worker count per micro-batch with
//! [`effective_workers`] — a pure function of batch size, partition count,
//! and the configured cap, kept free of service state so the policy is
//! directly unit- and property-testable.

/// Queries one engine worker can saturate in a micro-batch run.
///
/// Inter-partition parallelism feeds on *concurrently runnable partitions*,
/// and each query contributes roughly one active frontier partition at a
/// time near the start of a run; two queries per worker keeps every worker
/// claiming without splitting the partition stream so thin that workers
/// mostly steal and park.
pub const QUERIES_PER_WORKER: usize = 2;

/// The engine worker count to use for one micro-batch.
///
/// Pure policy function (the whole adaptive-sizing decision lives here):
///
/// * never more workers than `max_workers` (the configured cap — also the
///   persistent pool's steady-state capacity) or than `num_partitions`
///   (the executor cannot use more);
/// * scale with offered load at [`QUERIES_PER_WORKER`] queries per worker,
///   so a 1–2 query batch runs serially (a parallel run would be pure
///   dispatch overhead) and batches grow their crew linearly until they hit
///   a cap;
/// * degenerate cases (`max_workers <= 1`, fewer than 2 partitions, empty
///   batch) run serially.
pub fn effective_workers(batch_size: usize, num_partitions: usize, max_workers: usize) -> usize {
    if max_workers <= 1 || num_partitions < 2 || batch_size == 0 {
        return 1;
    }
    batch_size.div_ceil(QUERIES_PER_WORKER).clamp(1, max_workers.min(num_partitions))
}

/// Kernel-weighted [`effective_workers`] for one batch: `groups` is one
/// `(pass size, kernel batch_weight)` pair per engine pass of the batch —
/// the passes run back to back on one engine, so one crew size serves them
/// all — and the offered load the base policy sees is the *sum* of
/// `size × weight` over all of them. `weight` is the kernel's declared
/// relative per-query work ([`forkgraph_core::FppKernel::batch_weight`],
/// surfaced through [`forkgraph_core::DynKernel::batch_weight`]): a
/// radius-bounded probe kernel with weight `0.5` needs twice the queries to
/// justify the same crew, and a batch of 4 heavy (weight 2.0) and 8 light
/// (weight 0.5) queries offers `4×2 + 8×0.5 = 12` load, not 12 raw queries.
/// Non-finite or non-positive weights are treated as `1.0` per group (a
/// registered kernel must never be able to break sizing), and the caps of
/// the base policy are obeyed unchanged.
pub fn effective_workers_mixed(
    groups: &[(usize, f64)],
    num_partitions: usize,
    max_workers: usize,
) -> usize {
    let total: usize = groups.iter().map(|&(size, _)| size).sum();
    let offered: f64 = groups
        .iter()
        .map(|&(size, weight)| {
            let weight = if weight.is_finite() && weight > 0.0 { weight } else { 1.0 };
            size as f64 * weight
        })
        .sum();
    // Ceil keeps any non-empty batch non-empty, so the degenerate-case
    // handling stays entirely in the base policy.
    let offered = offered.ceil();
    let offered = if offered >= usize::MAX as f64 { usize::MAX } else { offered as usize };
    effective_workers(offered.max(usize::from(total > 0)), num_partitions, max_workers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_batches_run_serially() {
        assert_eq!(effective_workers(1, 24, 8), 1);
        assert_eq!(effective_workers(2, 24, 8), 1);
    }

    #[test]
    fn large_batches_use_the_full_cap() {
        assert_eq!(effective_workers(64, 24, 8), 8);
        assert_eq!(effective_workers(16, 24, 8), 8);
    }

    #[test]
    fn mid_batches_scale_linearly() {
        assert_eq!(effective_workers(4, 24, 8), 2);
        assert_eq!(effective_workers(6, 24, 8), 3);
        assert_eq!(effective_workers(8, 24, 8), 4);
    }

    #[test]
    fn partition_count_caps_the_crew() {
        assert_eq!(effective_workers(64, 3, 8), 3);
        assert_eq!(effective_workers(64, 1, 8), 1);
    }

    #[test]
    fn degenerate_configs_are_serial() {
        assert_eq!(effective_workers(64, 24, 1), 1);
        assert_eq!(effective_workers(64, 24, 0), 1);
        assert_eq!(effective_workers(0, 24, 8), 1);
    }

    #[test]
    fn weighted_sizing_scales_the_offered_load() {
        // Weight 1 is exactly the base policy.
        for batch in 0..100 {
            assert_eq!(
                effective_workers_mixed(&[(batch, 1.0)], 24, 8),
                effective_workers(batch, 24, 8)
            );
        }
        // A half-weight kernel needs twice the batch for the same crew…
        assert_eq!(effective_workers_mixed(&[(8, 0.5)], 24, 8), effective_workers(4, 24, 8));
        // …and a double-weight kernel reaches the cap at half the batch.
        assert_eq!(effective_workers_mixed(&[(4, 2.0)], 24, 8), effective_workers(8, 24, 8));
    }

    #[test]
    fn pathological_weights_fall_back_to_unweighted() {
        for weight in [0.0, -3.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                effective_workers_mixed(&[(6, weight)], 24, 8),
                effective_workers(6, 24, 8),
                "weight {weight}"
            );
        }
        // Huge-but-finite weights saturate at the caps instead of wrapping.
        assert_eq!(effective_workers_mixed(&[(6, 1e300)], 24, 8), 8);
        // An empty batch stays serial regardless of weight.
        assert_eq!(effective_workers_mixed(&[(0, 100.0)], 24, 8), 1);
    }

    #[test]
    fn mixed_sizing_sums_per_group_offered_load() {
        // Two unit-weight cohorts offer the same load as one merged cohort.
        assert_eq!(
            effective_workers_mixed(&[(6, 1.0), (10, 1.0)], 24, 8),
            effective_workers(16, 24, 8)
        );
        // Heterogeneous weights: 4×2.0 + 8×0.5 = 12 offered load — more than
        // the 8 light queries alone justify, less than 12 heavy ones would.
        assert_eq!(
            effective_workers_mixed(&[(4, 2.0), (8, 0.5)], 24, 8),
            effective_workers(12, 24, 8)
        );
        assert!(
            effective_workers_mixed(&[(4, 2.0), (8, 0.5)], 24, 8)
                > effective_workers_mixed(&[(8, 0.5)], 24, 8)
        );
        // A lone heavy cohort joined by a light one can only grow the crew.
        assert!(
            effective_workers_mixed(&[(4, 2.0), (8, 0.5)], 24, 8)
                >= effective_workers_mixed(&[(4, 2.0)], 24, 8)
        );
        // Per-group weight sanitisation: a NaN-weight group counts at 1.0
        // instead of poisoning the whole mix.
        assert_eq!(
            effective_workers_mixed(&[(6, f64::NAN), (4, 2.0)], 24, 8),
            effective_workers_mixed(&[(6, 1.0), (4, 2.0)], 24, 8)
        );
        // Degenerate mixes stay serial.
        assert_eq!(effective_workers_mixed(&[], 24, 8), 1);
        assert_eq!(effective_workers_mixed(&[(0, 1.0), (0, 2.0)], 24, 8), 1);
        // Fractional loads round up: sub-query offered load still runs.
        assert_eq!(effective_workers_mixed(&[(1, 0.25)], 24, 8), 1);
    }

    /// Property sweep: the policy never exceeds any cap, never returns 0,
    /// and is monotone in batch size.
    #[test]
    fn policy_respects_caps_and_is_monotone() {
        for parts in [1usize, 2, 3, 8, 24, 64] {
            for cap in [1usize, 2, 4, 8, 16] {
                let mut previous = 0usize;
                for batch in 0..200usize {
                    let w = effective_workers(batch, parts, cap);
                    assert!(w >= 1, "batch {batch} parts {parts} cap {cap}");
                    assert!(w <= cap.max(1), "batch {batch} parts {parts} cap {cap}");
                    if parts >= 2 && cap >= 2 {
                        assert!(w <= parts, "batch {batch} parts {parts} cap {cap}");
                    }
                    assert!(w >= previous || batch == 0, "monotonicity violated at {batch}");
                    previous = w;
                }
            }
        }
    }
}
