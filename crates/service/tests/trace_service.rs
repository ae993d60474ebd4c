//! Acceptance test for traced service runs: a burst of queries through a
//! traced [`ForkGraphService`] over a multi-worker pool must yield (a) a
//! parseable Chrome trace whose flow arrows connect submit → batch → resolve
//! per ticket, and (b) a raw event stream in which every ticket's
//! Submit → Enqueue → JoinBatch → Resolve chain is complete, causally
//! ordered, and tied to a batch that actually began and ended.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use fg_graph::gen;
use fg_graph::partition::{PartitionConfig, PartitionMethod};
use fg_graph::partitioned::PartitionedGraph;
use fg_service::{EdgeMutation, ForkGraphService, Query, ServiceConfig};
use fg_trace::{chrome, EventKind, TraceEvent, TraceSink};
use forkgraph_core::EngineConfig;

const QUERIES: u32 = 32;
const WORKERS: usize = 3;

/// One ticket's lifecycle, reconstructed from the raw event stream.
#[derive(Default)]
struct Chain {
    submit_nanos: Option<u64>,
    enqueue_nanos: Option<u64>,
    join_nanos: Option<u64>,
    join_batch: Option<u32>,
    resolve_nanos: Option<u64>,
    resolve_batch: Option<u32>,
}

/// A batch's `(BatchBegin, BatchEnd)` times and how many tickets joined it.
type BatchSpan = (Option<u64>, Option<u64>, u32);

/// Every ticket's chain, keyed by trace id, and every batch's span, keyed by
/// batch id.
fn chains_and_batches(events: &[TraceEvent]) -> (HashMap<u32, Chain>, HashMap<u32, BatchSpan>) {
    let mut chains: HashMap<u32, Chain> = HashMap::new();
    let mut batches: HashMap<u32, BatchSpan> = HashMap::new();
    for e in events {
        match e.kind {
            EventKind::Submit => chains.entry(e.a).or_default().submit_nanos = Some(e.nanos),
            EventKind::Enqueue => chains.entry(e.a).or_default().enqueue_nanos = Some(e.nanos),
            EventKind::JoinBatch => {
                let chain = chains.entry(e.a).or_default();
                chain.join_nanos = Some(e.nanos);
                chain.join_batch = Some(e.b);
                batches.entry(e.b).or_default().2 += 1;
            }
            EventKind::Resolve => {
                let chain = chains.entry(e.a).or_default();
                chain.resolve_nanos = Some(e.nanos);
                chain.resolve_batch = Some(e.b);
            }
            EventKind::BatchBegin => batches.entry(e.a).or_default().0 = Some(e.nanos),
            EventKind::BatchEnd => batches.entry(e.a).or_default().1 = Some(e.nanos),
            _ => {}
        }
    }
    (chains, batches)
}

/// Ticket `tid`'s chain is Submit → Enqueue → JoinBatch → Resolve, causally
/// ordered, resolved by the batch it joined, and that batch began and ended.
fn assert_chain_in_a_batch(tid: u32, chain: &Chain, batches: &HashMap<u32, BatchSpan>) {
    let submit = chain.submit_nanos.unwrap_or_else(|| panic!("ticket {tid}: no Submit"));
    let enqueue = chain.enqueue_nanos.unwrap_or_else(|| panic!("ticket {tid}: no Enqueue"));
    let join = chain.join_nanos.unwrap_or_else(|| panic!("ticket {tid}: no JoinBatch"));
    let resolve = chain.resolve_nanos.unwrap_or_else(|| panic!("ticket {tid}: no Resolve"));
    assert!(
        submit <= enqueue && enqueue <= join && join <= resolve,
        "ticket {tid}: chain is causally ordered"
    );
    assert_eq!(
        chain.join_batch, chain.resolve_batch,
        "ticket {tid}: resolved by the batch it joined"
    );
    let batch = chain.join_batch.expect("joined a batch");
    let (begin, end, joined) = batches[&batch];
    let begin = begin.unwrap_or_else(|| panic!("batch {batch}: no BatchBegin"));
    let end = end.unwrap_or_else(|| panic!("batch {batch}: no BatchEnd"));
    assert!(join <= begin && begin <= end && resolve >= begin, "batch {batch} brackets its run");
    assert!(joined > 0);
}

#[test]
fn traced_service_run_produces_connected_chrome_trace_and_event_chains() {
    let g = gen::rmat(10, 6, 99).with_random_weights(8, 99);
    let pg = Arc::new(PartitionedGraph::build(
        &g,
        PartitionConfig::with_partitions(PartitionMethod::Multilevel, 6),
    ));
    let n = g.num_vertices() as u32;

    let sink = TraceSink::new();
    let service = ForkGraphService::start_traced(
        Arc::clone(&pg),
        // The acceptance check is a service run over >= 2 engine worker
        // threads.
        EngineConfig::default().with_threads(WORKERS),
        ServiceConfig {
            batch_window: Duration::from_millis(1),
            max_batch_size: 64,
            max_queue_depth: 256,
            // No result cache: every ticket must travel the full
            // Submit -> Enqueue -> JoinBatch -> Resolve chain.
            cache_capacity: 0,
        },
        Arc::clone(&sink),
    );

    let handle = service.handle();
    let tickets: Vec<_> = (0..QUERIES)
        .map(|i| {
            let source = (i * 61) % n;
            let query = if i % 2 == 0 {
                Query::kernel("sssp").source(source)
            } else {
                Query::kernel("bfs").source(source)
            };
            handle.submit_query(query).expect("submit")
        })
        .collect();
    for ticket in tickets {
        ticket.wait().expect("service answered");
    }

    let json = service.chrome_trace().expect("started traced");
    let exposition = service.exposition();
    service.shutdown();

    // --- Chrome trace: parses, and every finished flow is connected. ---
    let chrome_events = chrome::parse(&json).expect("chrome trace parses");
    assert!(!chrome_events.is_empty());
    assert!(chrome_events.iter().any(|e| e.ph == "M"), "thread metadata names the lanes");
    let mut flows: HashMap<u64, Vec<&chrome::ChromeEvent>> = HashMap::new();
    for e in chrome_events.iter().filter(|e| matches!(e.ph.as_str(), "s" | "t" | "f")) {
        flows.entry(e.id.expect("flow events carry an id")).or_default().push(e);
    }
    let finished =
        flows.values().filter(|steps| steps.iter().any(|e| e.ph == "f")).collect::<Vec<_>>();
    assert_eq!(finished.len(), QUERIES as usize, "one finished flow per ticket");
    for steps in finished {
        let start = steps.iter().find(|e| e.ph == "s").expect("flow has a start");
        let step = steps.iter().find(|e| e.ph == "t").expect("flow has a batch step");
        let finish = steps.iter().find(|e| e.ph == "f").expect("flow finishes");
        assert!(start.ts <= step.ts && step.ts <= finish.ts, "flow arrows point forward");
        assert_ne!(start.tid, step.tid, "submit and batch live on different threads");
    }

    // --- Raw events: complete, ordered chains tied to real batches. ---
    let events: Vec<_> = sink.merged_events().into_iter().map(|(_, e)| e).collect();
    assert!(
        !events.iter().any(|e| e.kind == EventKind::CacheHit),
        "cache_capacity 0 must not produce cache hits"
    );
    let (chains, batches) = chains_and_batches(&events);
    assert_eq!(chains.len(), QUERIES as usize, "one chain per submitted ticket");
    for (tid, chain) in &chains {
        assert_chain_in_a_batch(*tid, chain, &batches);
    }

    // The engine runs inside the batches really were multi-worker: the batch
    // spans enclose RunBegin events advertising the pinned worker count.
    assert!(
        events.iter().any(|e| e.kind == EventKind::RunBegin && e.b == WORKERS as u32),
        "engine runs under the service report {WORKERS} workers"
    );

    // --- Exposition mirrors the same run. ---
    assert!(exposition.contains("fg_service_submitted_total 32"), "{exposition}");
    assert!(exposition.contains("fg_pool_dispatches_total"), "{exposition}");
    assert!(exposition.contains("fg_trace_events_retained"), "{exposition}");
    assert!(!exposition.contains("NaN"), "{exposition}");
}

/// A service with no pool and no trace sink exposes its own families only,
/// and has no Chrome trace to give.
#[test]
fn absent_subsystems_are_omitted() {
    let g = gen::rmat(8, 4, 3);
    let pg = Arc::new(PartitionedGraph::build(
        &g,
        PartitionConfig::with_partitions(PartitionMethod::Chunked, 2),
    ));
    let service = ForkGraphService::start(pg, EngineConfig::default(), ServiceConfig::default());
    let exposition = service.exposition();
    assert!(service.chrome_trace().is_none());
    service.shutdown();

    assert!(exposition.contains("\nfg_service_submitted_total 0\n"), "{exposition}");
    assert!(!exposition.contains("fg_pool_"), "{exposition}");
    assert!(!exposition.contains("fg_trace_"), "{exposition}");
}

/// A query resumed from an edge delta travels the same traced path as any
/// other: its chain joins a batch that begins and ends, and its Resolve
/// carries that batch's id.
#[test]
fn resumed_query_joins_and_resolves_in_a_traced_batch() {
    let g = gen::rmat(9, 6, 23).with_random_weights(8, 23);
    let pg = Arc::new(PartitionedGraph::build(
        &g,
        PartitionConfig::with_partitions(PartitionMethod::Chunked, 4),
    ));
    let sink = TraceSink::new();
    let service = ForkGraphService::start_traced(
        Arc::clone(&pg),
        EngineConfig::default(),
        ServiceConfig {
            batch_window: Duration::from_millis(1),
            cache_capacity: 16,
            ..ServiceConfig::default()
        },
        Arc::clone(&sink),
    );
    let handle = service.handle();

    let query = || Query::kernel("sssp").source(0);
    handle.submit_query(query()).expect("submit").wait().expect("service answered");
    let (u, v) = (1, (g.num_vertices() - 1) as u32);
    handle.mutate(EdgeMutation::Insert { u, v, w: 1 }).expect("mutate");
    handle.flush_mutations();
    handle.submit_query(query()).expect("submit").wait().expect("service answered");
    let metrics = handle.metrics();
    service.shutdown();
    assert_eq!(metrics.incremental_runs, 1, "the re-query resumed");

    let events: Vec<_> = sink.merged_events().into_iter().map(|(_, e)| e).collect();
    let resumed =
        events.iter().filter(|e| e.kind == EventKind::Submit).nth(1).expect("two submissions").a;
    let (chains, batches) = chains_and_batches(&events);
    assert_chain_in_a_batch(resumed, &chains[&resumed], &batches);
}

/// The epoch lifecycle events the graph store emits must reconcile exactly
/// with the epoch figures the service reads from it: one advance per
/// published epoch, one fold event per advance, and per-advance
/// rematerialized/shared payloads and per-fold mutation counts summing to the
/// store's totals.
#[test]
fn epoch_trace_events_reconcile_with_epoch_counters() {
    let g = gen::rmat(9, 6, 17).with_random_weights(8, 17);
    let pg = Arc::new(PartitionedGraph::build(
        &g,
        PartitionConfig::with_partitions(PartitionMethod::Chunked, 4),
    ));
    let n = g.num_vertices() as u32;

    let sink = TraceSink::new();
    let service = ForkGraphService::start_traced(
        Arc::clone(&pg),
        EngineConfig::default(),
        ServiceConfig {
            batch_window: Duration::from_millis(1),
            cache_capacity: 16,
            ..ServiceConfig::default()
        },
        Arc::clone(&sink),
    );
    let handle = service.handle();

    // Four mutate → query rounds. The batcher folds before it dispatches, so
    // each answer arrives after its round's epoch is published and counted.
    for round in 0..4u32 {
        handle.mutate(EdgeMutation::Insert { u: round, v: (round + 7) % n, w: 3 }).expect("mutate");
        handle
            .submit_query(Query::kernel("sssp").source(round % n))
            .expect("submit")
            .wait()
            .expect("service answered");
        assert_eq!(handle.metrics().epochs_advanced, u64::from(round) + 1, "round {round}");
    }

    let metrics = handle.metrics();
    let json = service.chrome_trace().expect("started traced");
    service.shutdown();

    let events: Vec<_> = sink.merged_events().into_iter().map(|(_, e)| e).collect();
    let count = |k: EventKind| events.iter().filter(|e| e.kind == k).count() as u64;
    let advances = count(EventKind::EpochAdvance);
    let folds = count(EventKind::DeltaFold);

    assert_eq!(advances, metrics.epochs_advanced, "one EpochAdvance per published epoch");
    assert_eq!(folds, advances, "one DeltaFold per advance");
    assert_eq!(metrics.epochs_advanced, 4, "each round folded once");

    // Per-advance payloads (b = rematerialized, c = shared) and per-fold
    // mutation counts (a) sum to the totals the service reads from its store.
    let sum = |kind: EventKind, field: fn(&TraceEvent) -> u32| -> u64 {
        events.iter().filter(|e| e.kind == kind).map(|e| field(e) as u64).sum()
    };
    let remat = sum(EventKind::EpochAdvance, |e| e.b);
    let shared = sum(EventKind::EpochAdvance, |e| e.c);
    assert_eq!(remat, metrics.partitions_rematerialized);
    assert_eq!(shared, metrics.partitions_shared);
    assert_eq!(sum(EventKind::DeltaFold, |e| e.a), metrics.mutations_applied);
    assert_eq!(metrics.mutations_applied, 4, "one mutation per round");
    assert!(remat >= advances, "every advance rebuilt at least one dirty partition");
    assert!(shared > 0, "single-edge folds must share clean partitions");

    // The Chrome export names the new instants so the events are visible in
    // a trace viewer, not just in the raw stream.
    for name in ["epoch_advance", "delta_fold"] {
        assert!(json.contains(name), "chrome export carries {name}: {json}");
    }
}
