//! Trace-correctness tests: the event stream must agree with the
//! scheduler's and the metrics layer's ground truth, not merely exist.

use std::sync::Arc;

use fg_graph::partition::{PartitionConfig, PartitionMethod};
use fg_graph::partitioned::PartitionedGraph;
use fg_trace::{EventKind, TraceEvent, TraceSink};
use forkgraph_core::{EngineConfig, ForkGraphEngine};

fn partitioned(parts: usize) -> PartitionedGraph {
    let g = fg_graph::gen::rmat(10, 6, 2024).with_random_weights(9, 2024);
    PartitionedGraph::build(
        &g,
        PartitionConfig::with_partitions(PartitionMethod::Multilevel, parts),
    )
}

/// The partition-visit order a one-worker run's event stream reconstructs.
fn visit_order(events: &[TraceEvent]) -> Vec<u32> {
    events.iter().filter(|e| e.kind == EventKind::PartitionVisitBegin).map(|e| e.a).collect()
}

fn sum_of(events: &[TraceEvent], kind: EventKind, field: fn(&TraceEvent) -> u32) -> u64 {
    events.iter().filter(|e| e.kind == kind).map(|e| field(e) as u64).sum()
}

#[test]
fn one_worker_event_stream_reconstructs_the_exact_visit_order() {
    let pg = partitioned(8);
    let sources: Vec<u32> = vec![0, 13, 200, 777];
    let config = EngineConfig::default().with_threads(1);

    let run = |sink: &Arc<TraceSink>| {
        let engine = ForkGraphEngine::new(&pg, config).with_trace_sink(Arc::clone(sink));
        engine.run_sssp(&sources)
    };
    let sink_a = TraceSink::new();
    let result_a = run(&sink_a);
    let sink_b = TraceSink::new();
    let result_b = run(&sink_b);

    // One worker's schedule is deterministic: two identical runs visit the same
    // partitions in the same order, and the event stream captures exactly
    // that order — one Begin per counted visit, same sequence both times.
    let events_a: Vec<TraceEvent> = sink_a.merged_events().into_iter().map(|(_, e)| e).collect();
    let events_b: Vec<TraceEvent> = sink_b.merged_events().into_iter().map(|(_, e)| e).collect();
    let order_a = visit_order(&events_a);
    assert_eq!(order_a, visit_order(&events_b), "one-worker visit order is deterministic");
    assert_eq!(
        order_a.len() as u64,
        result_a.work().partition_visits,
        "one PartitionVisitBegin per counted partition visit"
    );
    assert_eq!(result_a.per_query, result_b.per_query);

    // Begin/End bracket correctly: one worker's visits never nest, and each End
    // names the partition its Begin opened.
    let mut open: Option<u32> = None;
    let mut run_open = false;
    for e in &events_a {
        match e.kind {
            EventKind::RunBegin => run_open = true,
            EventKind::RunEnd => run_open = false,
            EventKind::PartitionVisitBegin => {
                assert!(run_open, "visit outside the run span");
                assert_eq!(open, None, "one worker's visits must not nest");
                open = Some(e.a);
            }
            EventKind::PartitionVisitEnd => {
                assert_eq!(open, Some(e.a), "End names the partition its Begin opened");
                open = None;
            }
            _ => {}
        }
    }
    assert_eq!(open, None, "every visit span is closed");

    // Yield events agree with the yield counter — and there are yields to
    // agree on, each of which left its lane resident instead of re-buffering.
    let work = result_a.work();
    let yields = events_a.iter().filter(|e| e.kind == EventKind::Yield).count() as u64;
    assert_eq!(yields, work.yields);
    assert!(yields > 0, "the default policy yields on this workload");

    // Visit spans account for every operation: what the Ends report as
    // consumed is what was processed, what they report as emitted locally
    // entered a lane without leaving the partition, and a quiesced run has
    // processed everything that was ever buffered.
    assert_eq!(sum_of(&events_a, EventKind::PartitionVisitEnd, |e| e.b), work.operations_processed);
    assert!(sum_of(&events_a, EventKind::PartitionVisitEnd, |e| e.c) <= work.operations_buffered);
    assert_eq!(work.operations_processed, work.operations_buffered);
}

#[test]
fn pool_run_events_pair_claims_with_drains_and_match_steal_counts() {
    let pg = partitioned(8);
    let sources: Vec<u32> = vec![0, 5, 9, 100, 321, 700];
    let sink = TraceSink::new();
    let config = EngineConfig::default().with_threads(3);
    let engine = ForkGraphEngine::new(&pg, config).with_trace_sink(Arc::clone(&sink));
    let result = engine.run_bfs(&sources);
    let work = result.work();

    // Per worker lane: a claimed partition's mailbox is drained before the
    // worker claims anything else (claim → drain pairing, in lane order).
    let lanes = sink.events();
    let mut claims = 0u64;
    let mut drains = 0u64;
    let mut steals = 0u64;
    for lane in &lanes {
        let mut pending_claim: Option<u32> = None;
        for e in &lane.events {
            match e.kind {
                EventKind::Claim | EventKind::Steal => {
                    assert_eq!(
                        pending_claim, None,
                        "worker claimed {} before draining its previous claim",
                        e.a
                    );
                    pending_claim = Some(e.a);
                    claims += 1;
                    if e.kind == EventKind::Steal {
                        steals += 1;
                    }
                }
                EventKind::MailboxDrain => {
                    assert_eq!(
                        pending_claim,
                        Some(e.a),
                        "drain of a partition the worker did not claim"
                    );
                    pending_claim = None;
                    drains += 1;
                }
                _ => {}
            }
        }
        assert_eq!(pending_claim, None, "every claim on a lane is drained");
    }
    assert_eq!(claims, drains, "every claim drains exactly once");
    assert_eq!(steals, work.steals, "Steal events match the steal counter");

    // Operations enter lanes exactly two ways: through a mailbox (seeds and
    // remote emits — the drains) or straight from the visit that emitted
    // them to its own partition (the Ends' `c`). Together that is every
    // buffered operation, and the Ends' `b` is every processed one.
    let all: Vec<TraceEvent> = sink.merged_events().into_iter().map(|(_, e)| e).collect();
    let drained_ops = sum_of(&all, EventKind::MailboxDrain, |e| e.b);
    let local_ops = sum_of(&all, EventKind::PartitionVisitEnd, |e| e.c);
    assert_eq!(drained_ops + local_ops, work.operations_buffered);
    assert_eq!(sum_of(&all, EventKind::PartitionVisitEnd, |e| e.b), work.operations_processed);
    let begins = all.iter().filter(|e| e.kind == EventKind::PartitionVisitBegin).count() as u64;
    assert_eq!(begins, work.partition_visits);

    // Per partition, `PartitionVisitBegin.b` is what was resident when the
    // previous visit ended plus what the drain just before it brought in. A
    // partition's events are totally ordered (its claim is exclusive), and
    // on one worker's ring Drain, Begin and End of a visit are consecutive.
    let mut resident = vec![0u64; pg.num_partitions()];
    let mut by_partition: Vec<Vec<TraceEvent>> = vec![Vec::new(); pg.num_partitions()];
    for e in &all {
        if matches!(
            e.kind,
            EventKind::MailboxDrain | EventKind::PartitionVisitBegin | EventKind::PartitionVisitEnd
        ) {
            by_partition[e.a as usize].push(*e);
        }
    }
    for (p, events) in by_partition.iter().enumerate() {
        let mut arrived = 0u64;
        let mut open_total = 0u64;
        for e in events {
            match e.kind {
                EventKind::MailboxDrain => arrived = e.b as u64,
                EventKind::PartitionVisitBegin => {
                    assert_eq!(e.b as u64, resident[p] + arrived, "partition {p}: Begin total");
                    open_total = e.b as u64;
                }
                _ => {
                    // Add before subtracting: a visit also consumes what it
                    // emitted locally, so `b` can exceed the Begin total.
                    resident[p] = open_total + e.c as u64 - e.b as u64;
                    arrived = 0;
                }
            }
        }
        // A spurious wakeup (nothing arrived, nothing resident) opens no visit.
        assert_eq!(resident[p], 0, "partition {p}: the run quiesced with resident operations");
    }

    // The run span and the pool dispatch are both on the stream.
    assert!(all.iter().any(|e| e.kind == EventKind::RunBegin && e.b == 3));
    assert!(all.iter().any(|e| e.kind == EventKind::RunEnd));
    assert!(all.iter().any(|e| e.kind == EventKind::PoolDispatch && e.b == 3));
}

#[test]
fn profile_is_attached_iff_requested_and_matches_the_counters() {
    let pg = partitioned(6);
    let sources: Vec<u32> = vec![0, 42, 999];

    for threads in [1usize, 3] {
        let mode = if threads == 1 { "one worker" } else { "pool" };
        let base = EngineConfig::default().with_threads(threads);

        let off = ForkGraphEngine::new(&pg, base).run_sssp(&sources);
        assert!(off.profile.is_none(), "{mode:?}: no profile unless requested");

        // No sink attached: profiles come from counters alone.
        let on = ForkGraphEngine::new(&pg, base.with_profile(true)).run_sssp(&sources);
        let profile = on.profile.as_ref().expect("profile requested");
        let work = on.work();
        assert_eq!(profile.visit_ops.count(), work.partition_visits, "{mode:?}");
        assert!(
            profile.phases.total() <= on.measurement.wall_time,
            "{mode:?}: phases partition the measured wall time"
        );
        assert_eq!(work.workers.len(), threads, "{mode:?}");
        // Profiles must not change results.
        assert_eq!(off.per_query, on.per_query, "{mode:?}");

        // The histogram's samples are the visits' `PartitionVisitBegin.b` —
        // operations resident + arrived when the visit began — on one worker
        // and on the pool alike.
        let sink = TraceSink::new();
        let traced = ForkGraphEngine::new(&pg, base.with_profile(true))
            .with_trace_sink(Arc::clone(&sink))
            .run_sssp(&sources);
        let events: Vec<TraceEvent> = sink.merged_events().into_iter().map(|(_, e)| e).collect();
        let profile = traced.profile.as_ref().expect("profile requested");
        assert_eq!(
            profile.visit_ops.sum(),
            sum_of(&events, EventKind::PartitionVisitBegin, |e| e.b),
            "{mode:?}"
        );
        assert_eq!(profile.visit_ops.count(), visit_order(&events).len() as u64, "{mode:?}");
    }
}

/// The Chrome export of a traced two-source SSSP run on a one-partition
/// graph: both queries' lanes are active in the first visit.
fn one_partition_export() -> String {
    let pg = partitioned(1);
    let sink = TraceSink::new();
    let engine = ForkGraphEngine::new(&pg, EngineConfig::default().with_threads(1))
        .with_trace_sink(Arc::clone(&sink));
    engine.run_sssp(&[0, 13]);
    fg_trace::chrome::export(&sink)
}

#[test]
fn partition_visit_slices_label_their_active_lanes() {
    let events = fg_trace::chrome::parse(&one_partition_export()).unwrap();
    let visits: Vec<_> =
        events.iter().filter(|e| e.name == "partition_visit" && e.ph == "B").collect();
    assert!(!visits.is_empty());
    assert_eq!(visits[0].arg_u64("lanes"), Some(2), "both sources' lanes are active");
    assert!(visits.iter().all(|e| matches!(e.arg_u64("lanes"), Some(1 | 2))));
    assert_eq!(visits[0].arg_u64("groups"), None);
    let run = events.iter().find(|e| e.name == "run" && e.ph == "B").expect("a run slice");
    assert_eq!(run.arg_u64("queries"), Some(2));
    assert_eq!(run.arg_u64("groups"), None, "a run has no kernel groups");
}

#[test]
fn every_prefix_of_an_export_fails_to_parse_without_panicking() {
    let export = one_partition_export();
    let export = export.trim_end();
    assert!(fg_trace::chrome::parse(export).is_ok());
    for end in (0..export.len()).filter(|&end| export.is_char_boundary(end)) {
        assert!(fg_trace::chrome::parse(&export[..end]).is_err(), "a {end}-byte prefix parsed");
    }
}
