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
/// mostly wait for a runnable partition.
pub const QUERIES_PER_WORKER: usize = 2;

/// The engine worker count to use for one micro-batch.
///
/// Pure policy function (the whole adaptive-sizing decision lives here):
///
/// * never more workers than `max_workers` (the configured cap — also the
///   persistent pool's steady-state capacity) or than `num_partitions`
///   (the executor cannot use more);
/// * scale with offered load at [`QUERIES_PER_WORKER`] queries per worker,
///   so a 1–2 query batch runs on one worker (a crew would be pure
///   dispatch overhead) and batches grow their crew linearly until they hit
///   a cap;
/// * degenerate cases (`max_workers <= 1`, fewer than 2 partitions, empty
///   batch) run on one worker.
pub fn effective_workers(batch_size: usize, num_partitions: usize, max_workers: usize) -> usize {
    if max_workers <= 1 || num_partitions < 2 || batch_size == 0 {
        return 1;
    }
    batch_size.div_ceil(QUERIES_PER_WORKER).clamp(1, max_workers.min(num_partitions))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_batches_run_on_one_worker() {
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
    fn degenerate_configs_run_on_one_worker() {
        assert_eq!(effective_workers(64, 24, 1), 1);
        assert_eq!(effective_workers(64, 24, 0), 1);
        assert_eq!(effective_workers(0, 24, 8), 1);
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
