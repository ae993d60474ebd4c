//! Prometheus-style text exposition of service/pool/trace metrics.
//!
//! [`expose`] renders the standard text format (`# HELP` / `# TYPE` headers,
//! one `name value` sample line per metric) from whichever snapshots the
//! caller has — pass `None` for subsystems that are not running (a pool-less
//! service, an engine with no sink). The output is a complete `/metrics`
//! response body: an HTTP front door only has to put a status line in front
//! of it.

use std::fmt::Write as _;

use fg_metrics::{PoolSnapshot, ServiceSnapshot};

use crate::sink::TraceStats;

/// Append one metric: HELP/TYPE headers plus the sample line. Families
/// rendered outside [`expose`] (a front door's own counters) use it too, so
/// a `/metrics` body has one line format.
pub fn metric(out: &mut String, name: &str, kind: &str, help: &str, value: f64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    if value.fract() == 0.0 && value.abs() < 1e15 {
        let _ = writeln!(out, "{name} {}", value as i64);
    } else {
        let _ = writeln!(out, "{name} {value}");
    }
}

/// Render the Prometheus text exposition for the given snapshots.
pub fn expose(
    service: Option<&ServiceSnapshot>,
    pool: Option<&PoolSnapshot>,
    trace: Option<&TraceStats>,
) -> String {
    let mut out = String::new();
    if let Some(s) = service {
        metric(
            &mut out,
            "fg_service_submitted_total",
            "counter",
            "Queries offered to submit (admitted + rejected + cache hits).",
            s.submitted as f64,
        );
        metric(
            &mut out,
            "fg_service_admitted_total",
            "counter",
            "Queries accepted into the pending queue.",
            s.admitted as f64,
        );
        metric(
            &mut out,
            "fg_service_rejected_total",
            "counter",
            "Queries shed by admission control.",
            s.rejected as f64,
        );
        metric(
            &mut out,
            "fg_service_cache_hits_total",
            "counter",
            "Queries answered from the result cache.",
            s.cache_hits as f64,
        );
        metric(
            &mut out,
            "fg_service_cache_misses_total",
            "counter",
            "Queries that missed the result cache.",
            s.cache_misses as f64,
        );
        metric(
            &mut out,
            "fg_service_batches_dispatched_total",
            "counter",
            "Consolidated engine runs dispatched.",
            s.batches_dispatched as f64,
        );
        metric(
            &mut out,
            "fg_service_queries_batched_total",
            "counter",
            "Queries carried by dispatched batches.",
            s.queries_batched as f64,
        );
        metric(
            &mut out,
            "fg_service_mixed_runs_total",
            "counter",
            "Dispatched runs that consolidated >= 2 kernel cohorts.",
            s.mixed_runs as f64,
        );
        metric(
            &mut out,
            "fg_service_queue_depth",
            "gauge",
            "Current pending-queue depth.",
            s.queue_depth as f64,
        );
        metric(
            &mut out,
            "fg_service_mean_batch_occupancy",
            "gauge",
            "Mean queries per dispatched batch.",
            s.mean_batch_occupancy(),
        );
        metric(
            &mut out,
            "fg_service_cache_hit_rate",
            "gauge",
            "Result-cache hit rate in [0, 1].",
            s.cache_hit_rate(),
        );
        metric(
            &mut out,
            "fg_service_mixed_run_rate",
            "gauge",
            "Fraction of batches that carried cohorts of several kernels, in [0, 1].",
            s.mixed_run_rate(),
        );
        metric(
            &mut out,
            "fg_service_mutations_applied_total",
            "counter",
            "Logged edge mutations folded into a published snapshot.",
            s.mutations_applied as f64,
        );
        metric(
            &mut out,
            "fg_service_cache_invalidations_total",
            "counter",
            "Cached answers found stale at lookup: a mutation since could reach their source.",
            s.cache_invalidations as f64,
        );
        metric(
            &mut out,
            "fg_service_incremental_runs_total",
            "counter",
            "Engine passes resumed from cached answers instead of run from scratch.",
            s.incremental_runs as f64,
        );
        metric(
            &mut out,
            "fg_service_epochs_advanced_total",
            "counter",
            "Snapshot epochs published (one per non-empty mutation fold).",
            s.epochs_advanced as f64,
        );
        metric(
            &mut out,
            "fg_service_partitions_rematerialized_total",
            "counter",
            "Dirty partitions re-materialized across epoch advances.",
            s.partitions_rematerialized as f64,
        );
        metric(
            &mut out,
            "fg_service_partitions_shared_total",
            "counter",
            "Clean partitions Arc-shared with the previous epoch across advances.",
            s.partitions_shared as f64,
        );
        metric(
            &mut out,
            "fg_service_snapshots_reclaimed_total",
            "counter",
            "Retired epoch snapshots whose storage was reclaimed.",
            s.snapshots_reclaimed as f64,
        );
        metric(
            &mut out,
            "fg_service_oldest_pinned_epoch_lag",
            "gauge",
            "Current epoch minus the oldest epoch still pinned by a run.",
            s.oldest_pinned_epoch_lag as f64,
        );
        metric(
            &mut out,
            "fg_service_dirty_rematerialize_frac",
            "gauge",
            "Fraction of partition slots rebuilt (vs shared) across advances, in [0, 1].",
            s.dirty_rematerialize_frac(),
        );
        metric(
            &mut out,
            "fg_service_latency_p50_seconds",
            "gauge",
            "Median submit-to-result latency over the last 4 096 answered queries.",
            s.latency_p50.as_secs_f64(),
        );
        metric(
            &mut out,
            "fg_service_latency_p99_seconds",
            "gauge",
            "99th-percentile submit-to-result latency over the last 4 096 answered queries.",
            s.latency_p99.as_secs_f64(),
        );
    }
    if let Some(p) = pool {
        metric(
            &mut out,
            "fg_pool_threads_spawned_total",
            "counter",
            "OS worker threads ever spawned by the pool.",
            p.threads_spawned as f64,
        );
        metric(
            &mut out,
            "fg_pool_dispatches_total",
            "counter",
            "Engine runs dispatched onto the pool.",
            p.dispatches as f64,
        );
        metric(
            &mut out,
            "fg_pool_parks_total",
            "counter",
            "Worker park events between runs.",
            p.parks as f64,
        );
        metric(
            &mut out,
            "fg_pool_unparks_total",
            "counter",
            "Worker wake events for dispatched runs.",
            p.unparks as f64,
        );
        metric(
            &mut out,
            "fg_pool_mailbox_reuse_rate",
            "gauge",
            "Fraction of per-run mailboxes recycled from the arena, in [0, 1].",
            p.mailbox_reuse_rate(),
        );
    }
    if let Some(t) = trace {
        metric(
            &mut out,
            "fg_trace_threads",
            "gauge",
            "Threads that have registered a trace lane.",
            t.threads as f64,
        );
        metric(
            &mut out,
            "fg_trace_events_retained",
            "gauge",
            "Trace events currently retained across lanes.",
            t.retained as f64,
        );
        metric(
            &mut out,
            "fg_trace_events_dropped_total",
            "counter",
            "Trace events lost to ring wrap-around.",
            t.dropped as f64,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_has_help_type_and_sample_per_metric() {
        let service = ServiceSnapshot {
            submitted: 10,
            cache_hits: 3,
            cache_misses: 7,
            mutations_applied: 4,
            cache_invalidations: 2,
            incremental_runs: 1,
            ..Default::default()
        };
        let pool = PoolSnapshot { threads_spawned: 4, dispatches: 9, ..Default::default() };
        let trace = TraceStats { threads: 2, retained: 100, dropped: 5, lane_capacity: 1024 };
        let text = expose(Some(&service), Some(&pool), Some(&trace));
        for line in text.lines() {
            assert!(
                line.starts_with("# HELP")
                    || line.starts_with("# TYPE")
                    || line.split(' ').count() == 2,
                "malformed line: {line}"
            );
        }
        assert!(text.contains("fg_service_submitted_total 10"), "{text}");
        assert!(text.contains("fg_service_cache_hit_rate 0.3"), "{text}");
        assert!(text.contains("fg_service_mutations_applied_total 4"), "{text}");
        assert!(text.contains("fg_service_cache_invalidations_total 2"), "{text}");
        assert!(text.contains("fg_service_incremental_runs_total 1"), "{text}");
        assert!(text.contains("fg_service_epochs_advanced_total 0"), "{text}");
        assert!(text.contains("fg_service_oldest_pinned_epoch_lag 0"), "{text}");
        assert!(text.contains("fg_pool_dispatches_total 9"), "{text}");
        assert!(text.contains("fg_trace_events_dropped_total 5"), "{text}");
        // Every sample line is preceded by its TYPE line.
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if !line.starts_with('#') {
                let name = line.split(' ').next().unwrap();
                assert!(lines[i - 1].contains(name), "TYPE precedes {name}");
            }
        }
    }

    #[test]
    fn absent_subsystems_are_omitted() {
        assert!(expose(None, None, None).is_empty());
        let text = expose(None, None, Some(&TraceStats::default()));
        assert!(text.contains("fg_trace_threads"));
        assert!(!text.contains("fg_service_"));
        assert!(!text.contains("fg_pool_"));
    }

    #[test]
    fn zero_denominator_rates_expose_as_zero_not_nan() {
        let text = expose(Some(&ServiceSnapshot::default()), Some(&PoolSnapshot::default()), None);
        assert!(!text.contains("NaN"), "{text}");
        assert!(text.contains("fg_service_mixed_run_rate 0"), "{text}");
        assert!(text.contains("fg_service_dirty_rematerialize_frac 0"), "{text}");
        assert!(text.contains("fg_pool_mailbox_reuse_rate 0"), "{text}");
    }
}
