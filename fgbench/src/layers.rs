//! The traced pass: per-layer metrics, measured from outside by timing calls
//! into public functions and reading the counters they return. Each ratio
//! row is timed interleaved with the row it is divided by, repetition by
//! repetition, and reported as the median of the per-repetition ratios, so
//! that host drift cancels.
//!
//! Every workload reports every per-layer metric. Rows a workload's own
//! traffic does not exercise (the wire rows on a fork-processing workload,
//! the engine ladder on a serving workload) come from a short probe of that
//! layer on the workload's graph; README.md says which is which.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use fg_baselines::{ExecutionScheme, FppDriver, LigraEngine, QueryKind};
use fg_cachesim::CacheConfig;
use fg_graph::partition::{PartitionConfig, PartitionMethod, PartitionPlan, PartitionTarget};
use fg_graph::partitioned::PartitionedGraph;
use fg_graph::{StorageConfig, VersionedGraph, VertexId};
use fg_metrics::{ServiceSnapshot, WorkSnapshot};
use fg_server::{Request, Response};
use fg_service::{ForkGraphService, Query, ServiceConfig};
use fg_trace::{RunProfile, TraceSink};
use forkgraph_core::buffer::ConsolidationMethod;
use forkgraph_core::kernels::{BfsKernel, PprKernel, SsspKernel};
use forkgraph_core::{
    erase, DynKernel, EngineConfig, ForkGraphEngine, Operation, PartitionBuffer, SchedulingPolicy,
    YieldPolicy,
};

use crate::env;
use crate::fpp::{self, exact_work, FppShape, Kernel, SetupTimes};
use crate::inputs::{pick_sources, GraphKind, ReadKey, Rng};
use crate::outcome::Outcome;
use crate::serve::{self, MutatePass, ReadPass, Stack};
use crate::spans::Recorder;
use crate::spec::Scale;
use crate::stats::{median, percentile};

/// What the engine rows (`seq.*`, `core.engine.*`) are computed from: the
/// full batch of a fork-processing workload's own pairs, or the ladder's
/// base row where the workload is a serving one.
struct EngineFacts {
    queries: usize,
    seq_s: Vec<f64>,
    seq_edges: u64,
    engine_s: Vec<f64>,
    work: WorkSnapshot,
    settles: u64,
    profiles: Vec<RunProfile>,
    caller_cpu_frac: Vec<f64>,
    /// Single-query engine seconds, for `batch_slowdown`.
    single_s: Vec<f64>,
}

/// Sizes of the serving probes on a workload's graph.
#[derive(Clone, Copy)]
struct ProbeSize {
    requests: usize,
    pool: usize,
    rounds: usize,
    hot_keys: usize,
    rtt_calls: usize,
    cachesim_reps: usize,
}

fn probe_size(kind: GraphKind, scale: &Scale) -> ProbeSize {
    match kind {
        GraphKind::Social { .. } => ProbeSize {
            requests: scale.probe_requests,
            pool: scale.read_pool / 8,
            rounds: scale.probe_rounds,
            hot_keys: scale.hot_keys,
            rtt_calls: scale.rtt_calls,
            cachesim_reps: scale.ladder_reps,
        },
        // One answer on the road graph is 2 MiB and a tenth of a second of
        // engine time: the probes shrink so the pass stays inside its budget.
        GraphKind::Road { .. } => ProbeSize {
            requests: (scale.probe_requests / 15).max(4),
            pool: 16,
            rounds: 4,
            hot_keys: 4,
            rtt_calls: (scale.rtt_calls / 5).max(10),
            cachesim_reps: 1,
        },
    }
}

fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

fn ratios(numerator: &[f64], denominator: &[f64]) -> f64 {
    median(&numerator.iter().zip(denominator).map(|(n, d)| n / d).collect::<Vec<_>>())
}

/// `fg-graph` rows that need nothing but the graph: partition shape, payload
/// sizes, the cost of reading adjacency through `AdjacencyView`, and the
/// Multilevel partitioner as a set-up cost.
fn graph_rows(
    kind: GraphKind,
    pg: &PartitionedGraph,
    compressed: &PartitionedGraph,
    setup: &[SetupTimes],
    scale: &Scale,
    rec: &Recorder,
    out: &mut Outcome,
) {
    let column = |f: fn(&SetupTimes) -> f64| median(&setup.iter().map(f).collect::<Vec<_>>());
    out.push("graph.gen_s", column(|t| t.gen_s));
    out.push("graph.partition_s", column(|t| t.partition_s));
    out.push("graph.build_s", column(|t| t.build_s));
    for name in ["graph.gen_s", "graph.partition_s", "graph.build_s"] {
        out.samples(name, setup.len());
    }

    // Multilevel is not used for timed work (its layout differs from process
    // to process); what it costs to compute is still a set-up number.
    let multilevel = PartitionConfig {
        method: PartitionMethod::Multilevel,
        ..kind.partition_config(StorageConfig::Raw)
    };
    let start = Instant::now();
    rec.scope("graph.partition_multilevel", None, || {
        black_box(PartitionPlan::compute(pg.graph(), &multilevel));
    });
    out.push("graph.partition_multilevel_s", start.elapsed().as_secs_f64());
    out.samples("graph.partition_multilevel_s", 1);

    out.push("graph.partitions", pg.num_partitions() as f64);
    out.push("graph.cut_ratio", pg.cut_ratio());
    out.push("graph.max_partition_kib", pg.max_footprint_bytes() as f64 / 1024.0);
    out.push("graph.bytes_per_edge_raw", pg.bytes_per_edge());
    out.push("graph.bytes_per_edge_compressed", compressed.bytes_per_edge());

    // Scan every partition's adjacency through its view, as a visit would.
    let scan = |store: &PartitionedGraph| {
        let start = Instant::now();
        let mut edges = 0u64;
        let mut sum = 0u64;
        for info in store.partitions() {
            let view = store.adjacency_view(info.id);
            for &v in &info.vertices {
                for (target, weight) in view.out_edges(v) {
                    edges += 1;
                    sum = sum.wrapping_add(target as u64 + weight as u64);
                }
            }
        }
        black_box(sum);
        start.elapsed().as_secs_f64() * 1e9 / edges.max(1) as f64
    };
    let reps = scale.ladder_reps.max(3);
    let raw: Vec<f64> = (0..reps).map(|_| scan(pg)).collect();
    let packed: Vec<f64> = (0..reps).map(|_| scan(compressed)).collect();
    out.push("graph.view_raw_ns_per_edge", median(&raw));
    out.push("graph.view_compressed_ns_per_edge", median(&packed));
    out.samples("graph.view_raw_ns_per_edge", reps);
    out.samples("graph.view_compressed_ns_per_edge", reps);
}

/// `fg-graph` mutation rows: logging one insertion, folding an 8-mutation
/// batch into the next epoch, and the share of partitions that fold rebuilt.
fn mutation_rows(pg: &Arc<PartitionedGraph>, seed: u64, scale: &Scale, out: &mut Outcome) {
    let store = VersionedGraph::new(Arc::clone(pg));
    let n = pg.graph().num_vertices() as u64;
    let mut rng = Rng::new(seed, "layer-mutations");
    let mut log_us = Vec::new();
    let mut advance_ms = Vec::new();
    let mut dirty_frac = None;
    let reps = if scale.quick { 2 } else { 9 };
    for _ in 0..reps {
        for _ in 0..scale.mutations_per_round.max(1) {
            let u = rng.below(n);
            let v = (u + 1 + rng.below(n - 1)) % n;
            let start = Instant::now();
            store
                .insert_edge(u as VertexId, v as VertexId, 1)
                .expect("endpoints in range, never a self-loop");
            log_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        let start = Instant::now();
        let applied = store.advance().expect("a pending batch");
        advance_ms.push(ms(start.elapsed().as_secs_f64()));
        dirty_frac.get_or_insert(
            applied.partitions_rematerialized as f64
                / (applied.partitions_rematerialized + applied.partitions_shared).max(1) as f64,
        );
    }
    out.push("graph.mutation_log_us", median(&log_us));
    out.samples("graph.mutation_log_us", log_us.len());
    out.push("graph.epoch_advance_ms", median(&advance_ms));
    out.samples("graph.epoch_advance_ms", advance_ms.len());
    out.push("graph.epoch_dirty_frac", dirty_frac.expect("at least one fold"));
}

/// `core.buffer.consolidate_ns_per_op`: a seeded stream of operations of 32
/// queries pushed into a `PartitionBuffer` and drained consolidated, in
/// visit-sized chunks of 4096.
fn buffer_row(seed: u64, scale: &Scale, out: &mut Outcome) {
    let mut rng = Rng::new(seed, "buffer-stream");
    let ops: Vec<Operation<u64>> = (0..scale.consolidate_ops)
        .map(|_| {
            let priority = rng.below(1 << 20);
            Operation::new(rng.below(32) as u32, rng.below(1 << 13) as VertexId, priority, priority)
        })
        .collect();
    let reps = scale.ladder_reps.max(3);
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let mut buffer = PartitionBuffer::new(EngineConfig::default().num_buckets);
            let start = Instant::now();
            for chunk in ops.chunks(4096) {
                buffer.push_batch(chunk.iter().copied());
                black_box(buffer.drain_consolidated(ConsolidationMethod::Sort));
            }
            start.elapsed().as_secs_f64() * 1e9 / ops.len() as f64
        })
        .collect();
    out.push("core.buffer.consolidate_ns_per_op", median(&samples));
    out.samples("core.buffer.consolidate_ns_per_op", reps);
}

/// `fg-cachesim` rows on a 4-source sub-batch with the scaled LLC geometry:
/// simulated misses per thousand edges for the engine, and for the
/// one-query-at-a-time scheme of `FppDriver`.
fn cachesim_rows(
    pg: &PartitionedGraph,
    kernel: Kernel,
    sources: &[VertexId],
    reps: usize,
    out: &mut Outcome,
) {
    let sources = &sources[..sources.len().min(4)];
    let llc = CacheConfig::scaled_llc();
    let per_kedge = |misses: u64, edges: u64| misses as f64 * 1e3 / edges.max(1) as f64;

    // The engine's serial loop hands the queries of one visit to the rayon
    // stand-in's threads, which feed one shared simulated cache: the miss
    // count depends on how they interleave, so it is a median, not exact.
    let engine = ForkGraphEngine::new(pg, EngineConfig::default().with_cache(llc));
    let measured: Vec<f64> = (0..reps)
        .map(|_| {
            let run = kernel.engine_run(&engine, sources);
            let misses = run.cache_misses.expect("cache simulation was configured");
            per_kedge(misses, run.work.edges_processed)
        })
        .collect();
    out.push("cachesim.engine_miss_per_kedge", median(&measured));
    out.samples("cachesim.engine_miss_per_kedge", reps);

    let driver = FppDriver::new(LigraEngine::new(), pg.graph_arc()).with_cache(llc);
    let kind = match kernel {
        Kernel::Sssp => QueryKind::Sssp,
        Kernel::Ppr(config) => QueryKind::Ppr(config),
    };
    let baseline = driver.run(&kind, sources, ExecutionScheme::SingleThreaded).measurement;
    let cache = baseline.cache.expect("cache simulation was configured");
    out.push(
        "cachesim.baseline_miss_per_kedge",
        per_kedge(cache.misses, baseline.work.edges_processed),
    );
}

/// The erased kernel and wire parameters of a workload's query type.
fn erased(kernel: Kernel) -> Arc<dyn DynKernel> {
    match kernel {
        Kernel::Sssp => erase(SsspKernel),
        Kernel::Ppr(config) => erase(PprKernel::new(config)),
    }
}

fn service_query(kernel: Kernel, source: VertexId) -> Query {
    match kernel {
        Kernel::Sssp => Query::kernel("sssp").source(source),
        Kernel::Ppr(config) => Query::kernel("ppr")
            .source(source)
            .param("alpha", config.alpha)
            .param("epsilon", config.epsilon),
    }
}

fn wire_request(kernel: Kernel, correlation: u32, source: VertexId) -> Request {
    match kernel {
        Kernel::Sssp => Request::new(correlation, "sssp", source),
        Kernel::Ppr(config) => Request::new(correlation, "ppr", source)
            .param("alpha", config.alpha)
            .param("epsilon", config.epsilon),
    }
}

/// The cost ladder on `sources`: one timed call per row per repetition, the
/// rows of one repetition back to back. Returns the base row as
/// [`EngineFacts`] for workloads that have no batch of their own.
#[allow(clippy::too_many_arguments)]
fn ladder_rows(
    kind: GraphKind,
    pg: &Arc<PartitionedGraph>,
    compressed: &PartitionedGraph,
    kernel: Kernel,
    sources: &[VertexId],
    scale: &Scale,
    rec: &Recorder,
    out: &mut Outcome,
) -> EngineFacts {
    let graph = pg.graph();
    let reps = scale.ladder_reps;
    let one_partition = PartitionedGraph::build_arc(
        pg.graph_arc(),
        PartitionConfig {
            target: PartitionTarget::NumPartitions(1),
            ..kind.partition_config(StorageConfig::Raw)
        },
    );
    let base = ForkGraphEngine::new(pg, EngineConfig::default());
    let p1 = ForkGraphEngine::new(&one_partition, EngineConfig::default());
    let no_yield =
        ForkGraphEngine::new(pg, EngineConfig::default().with_yield_policy(YieldPolicy::None));
    let fifo =
        ForkGraphEngine::new(pg, EngineConfig::default().with_scheduling(SchedulingPolicy::Fifo));
    let pool2 = ForkGraphEngine::new(pg, EngineConfig::default().with_threads(2));
    let packed = ForkGraphEngine::new(compressed, EngineConfig::default());
    let sink = TraceSink::new();
    let traced = ForkGraphEngine::new(pg, EngineConfig::default().with_profile(true))
        .with_trace_sink(Arc::clone(&sink));
    let erased_kernel = erased(kernel);
    let erased_sssp = erase(SsspKernel);
    let erased_bfs = erase(BfsKernel);
    let (first_half, second_half) = sources.split_at(sources.len().div_ceil(2));

    // Service and server for the in-process and wire rows: cache off, so
    // that every repetition costs real engine work.
    let uncached = ServiceConfig { cache_capacity: 0, ..ServiceConfig::default() };
    let inproc = ForkGraphService::start(Arc::clone(pg), EngineConfig::default(), uncached);
    let handle = inproc.handle();
    let (mut wire, _) =
        serve::set_up_on(Arc::clone(pg), uncached, None, &Recorder::new(false), None);

    // Warm the pool's threads and the server's connection before timing.
    black_box(kernel.engine_run(&pool2, sources));
    black_box(wire_batch(&mut wire, kernel, sources));

    let mut t: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    let mut base_run = None;
    let mut caller_cpu_frac = Vec::new();
    let mut profiles = Vec::new();
    let mut steals = Vec::new();
    let mut idle_waits = Vec::new();
    let mut traced_events = 0u64;
    for _ in 0..reps {
        let rep = rec.begin("ladder", None);
        let mut time = |name: &'static str, f: &mut dyn FnMut() -> f64| {
            let open = rec.begin(name, rep.id());
            let seconds = f();
            rec.end(open);
            t.entry(name).or_default().push(seconds);
        };
        time("seq.loop", &mut || kernel.seq_loop(graph, sources, 1));
        time("engine.run", &mut || {
            let cpu_before = env::thread_cpu_ns();
            let run = kernel.engine_run(&base, sources);
            if let (Some(before), Some(after)) = (cpu_before, env::thread_cpu_ns()) {
                caller_cpu_frac.push((after - before) as f64 * 1e-9 / run.seconds);
            }
            let seconds = run.seconds;
            base_run.get_or_insert(run);
            seconds
        });
        time("engine.one_partition", &mut || kernel.engine_run(&p1, sources).seconds);
        time("engine.yield_none", &mut || kernel.engine_run(&no_yield, sources).seconds);
        time("engine.sched_fifo", &mut || kernel.engine_run(&fifo, sources).seconds);
        time("engine.run_dyn", &mut || {
            let start = Instant::now();
            black_box(base.run_dyn(&*erased_kernel, black_box(sources)));
            start.elapsed().as_secs_f64()
        });
        time("engine.back_to_back", &mut || {
            let start = Instant::now();
            black_box(base.run_dyn(&*erased_sssp, black_box(first_half)));
            black_box(base.run_dyn(&*erased_bfs, black_box(second_half)));
            start.elapsed().as_secs_f64()
        });
        time("engine.run_multi", &mut || {
            let start = Instant::now();
            black_box(base.run_multi(&[(&*erased_sssp, first_half), (&*erased_bfs, second_half)]));
            start.elapsed().as_secs_f64()
        });
        time("engine.pool2", &mut || {
            let run = kernel.engine_run(&pool2, sources);
            steals.push(run.work.steals as f64);
            idle_waits.push(run.work.idle_waits as f64);
            run.seconds
        });
        time("engine.compressed", &mut || kernel.engine_run(&packed, sources).seconds);
        time("engine.traced", &mut || {
            let before = sink.stats();
            let run = kernel.engine_run(&traced, sources);
            let after = sink.stats();
            traced_events +=
                (after.retained + after.dropped).saturating_sub(before.retained + before.dropped);
            profiles.extend(run.profile);
            run.seconds
        });
        time("seq.single", &mut || kernel.seq_loop(graph, &sources[..1], 1));
        time("engine.single", &mut || kernel.engine_run(&base, &sources[..1]).seconds);
        time("service.inproc", &mut || {
            let start = Instant::now();
            let tickets: Vec<_> = sources
                .iter()
                .map(|&s| handle.submit_query(service_query(kernel, s)).expect("admitted"))
                .collect();
            for ticket in tickets {
                black_box(ticket.wait().expect("answered"));
            }
            start.elapsed().as_secs_f64()
        });
        time("server.wire", &mut || wire_batch(&mut wire, kernel, sources));
        rec.end(rep);
    }
    let pool_metrics = pool2.worker_pool().map(|pool| pool.metrics());
    drop(wire);
    inproc.shutdown();

    let row = |name: &str| t[name].as_slice();
    out.push("core.engine.p1_vs_seq", ratios(row("engine.one_partition"), row("seq.loop")));
    out.push("core.engine.batch_vs_p1", ratios(row("engine.run"), row("engine.one_partition")));
    out.push("core.engine.single_vs_seq", ratios(row("engine.single"), row("seq.single")));
    out.push("core.yield.none_vs_default", ratios(row("engine.yield_none"), row("engine.run")));
    out.push("core.sched.fifo_vs_priority", ratios(row("engine.sched_fifo"), row("engine.run")));
    out.push("core.dyn.vs_direct", ratios(row("engine.run_dyn"), row("engine.run")));
    out.push(
        "core.multi.vs_back2back",
        ratios(row("engine.run_multi"), row("engine.back_to_back")),
    );
    out.push("core.executor.pool2_vs_serial", ratios(row("engine.pool2"), row("engine.run")));
    out.push("core.executor.steals", median(&steals));
    out.push("core.executor.idle_waits", median(&idle_waits));
    out.push(
        "core.pool.mailbox_reuse_rate",
        pool_metrics.map_or(0.0, |metrics| metrics.mailbox_reuse_rate()),
    );
    out.push("graph.compressed_vs_raw", ratios(row("engine.compressed"), row("engine.run")));
    out.push("service.inproc_vs_engine", ratios(row("service.inproc"), row("engine.run")));
    out.push("server.wire_vs_inproc", ratios(row("server.wire"), row("service.inproc")));
    out.push("trace.overhead_frac", ratios(row("engine.traced"), row("engine.run")) - 1.0);
    // A serving workload has already reported the events of its own traced
    // service; the engine's events per query stand in elsewhere.
    if out.get("trace.events_per_query").is_none() {
        out.push(
            "trace.events_per_query",
            traced_events as f64 / (reps * sources.len()).max(1) as f64,
        );
    }
    for name in [
        "core.engine.p1_vs_seq",
        "core.engine.batch_vs_p1",
        "core.engine.single_vs_seq",
        "core.yield.none_vs_default",
        "core.sched.fifo_vs_priority",
        "core.dyn.vs_direct",
        "core.multi.vs_back2back",
        "core.executor.pool2_vs_serial",
        "core.executor.steals",
        "core.executor.idle_waits",
        "graph.compressed_vs_raw",
        "service.inproc_vs_engine",
        "server.wire_vs_inproc",
        "trace.overhead_frac",
    ] {
        out.samples(name, reps);
    }

    let run = base_run.expect("the ladder ran at least once");
    EngineFacts {
        queries: sources.len(),
        seq_s: t["seq.loop"].clone(),
        seq_edges: sources.iter().map(|&s| kernel.seq_one(graph, s).1).sum(),
        engine_s: t["engine.run"].clone(),
        settles: kernel.settles(&run.answers),
        work: run.work,
        profiles,
        caller_cpu_frac,
        single_s: t["engine.single"].clone(),
    }
}

/// One pass of `sources` over the wire on connection 0, all pipelined, as
/// the in-process row submits them all at once.
fn wire_batch(stack: &mut Stack, kernel: Kernel, sources: &[VertexId]) -> f64 {
    let client = &mut stack.clients[0];
    let start = Instant::now();
    for &source in sources {
        let correlation = client.peek_correlation();
        client.send_request(&wire_request(kernel, correlation, source)).expect("send");
    }
    client.flush().expect("flush");
    for _ in sources {
        match client.recv().expect("recv") {
            Response::Result { payload, .. } => {
                black_box(payload);
            }
            other => panic!("ladder request over the wire failed: {other:?}"),
        }
    }
    start.elapsed().as_secs_f64()
}

/// `seq.*` and `core.engine.*` from a batch's facts.
fn engine_rows(facts: &EngineFacts, out: &mut Outcome) {
    let seq_s = median(&facts.seq_s);
    let engine_s = median(&facts.engine_s);
    let work = &facts.work;
    out.push("seq.batch_s", seq_s);
    out.samples("seq.batch_s", facts.seq_s.len());
    out.push("seq.ns_per_edge", seq_s * 1e9 / facts.seq_edges.max(1) as f64);
    out.push("seq.edges", facts.seq_edges as f64);
    out.push("core.engine.ns_per_edge", engine_s * 1e9 / work.edges_processed.max(1) as f64);
    out.samples("core.engine.ns_per_edge", facts.engine_s.len());
    out.push("core.engine.edges", work.edges_processed as f64);
    out.push("core.engine.work_amp", work.edges_processed as f64 / facts.seq_edges.max(1) as f64);
    out.push("core.engine.ops_processed", work.operations_processed as f64);
    out.push("core.engine.ops_buffered", work.operations_buffered as f64);
    out.push("core.engine.ops_pruned", work.operations_pruned as f64);
    out.push(
        "core.engine.ops_per_settle",
        work.operations_processed as f64 / facts.settles.max(1) as f64,
    );
    out.push("core.engine.visits", work.partition_visits as f64);
    out.push("core.engine.yields", work.yields as f64);
    out.push(
        "core.engine.ops_per_visit",
        work.operations_processed as f64 / work.partition_visits.max(1) as f64,
    );
    let phase = |f: fn(&RunProfile) -> std::time::Duration| {
        if facts.profiles.is_empty() {
            f64::NAN
        } else {
            median(&facts.profiles.iter().map(|p| ms(f(p).as_secs_f64())).collect::<Vec<_>>())
        }
    };
    out.push("core.engine.init_ms", phase(|p| p.phases.init));
    out.push("core.engine.processing_ms", phase(|p| p.phases.processing));
    out.push("core.engine.finalize_ms", phase(|p| p.phases.finalize));
    for name in ["core.engine.init_ms", "core.engine.processing_ms", "core.engine.finalize_ms"] {
        out.samples(name, facts.profiles.len());
    }
    out.push(
        "core.engine.caller_cpu_frac",
        if facts.caller_cpu_frac.is_empty() { f64::NAN } else { median(&facts.caller_cpu_frac) },
    );
    out.samples("core.engine.caller_cpu_frac", facts.caller_cpu_frac.len());
    out.push(
        "core.engine.batch_slowdown",
        engine_s / facts.queries.max(1) as f64 / median(&facts.single_s),
    );
    out.samples("core.engine.batch_slowdown", facts.single_s.len());

    for (name, value) in exact_work(work) {
        out.exact(name, value);
    }
    out.exact("seq.edges", facts.seq_edges);
}

/// `service.*` and `server.*` counters of the read path, from a read pass.
fn read_rows(pass: &ReadPass, out: &mut Outcome) {
    let delta = |f: fn(&ServiceSnapshot) -> u64| (f(&pass.after) - f(&pass.before)) as f64;
    let batches = delta(|s| s.batches_dispatched);
    out.push("service.batches", batches);
    out.push("service.batch_occupancy", delta(|s| s.queries_batched) / batches.max(1.0));
    let hits = delta(|s| s.cache_hits);
    out.push("service.cache_hit_rate", hits / (hits + delta(|s| s.cache_misses)).max(1.0));
    out.push("service.mixed_run_rate", delta(|s| s.mixed_runs) / batches.max(1.0));
    out.push("service.shed_frac", delta(|s| s.rejected) / delta(|s| s.submitted).max(1.0));
    let latency_ms = pass.latency_ms.concat();
    out.push("service.read_p99_ms", percentile(&latency_ms, 0.99));
    out.samples("service.read_p99_ms", latency_ms.len());
    out.push("server.retry_after_frac", pass.retry_afters as f64 / pass.requests.max(1) as f64);
    out.push(
        "server.response_kib",
        pass.response_bytes as f64 / 1024.0 / pass.requests.max(1) as f64,
    );
}

/// `service.*` counters of the write path, from a mutate pass.
fn mutate_rows(pass: &MutatePass, out: &mut Outcome) {
    let delta = |f: fn(&ServiceSnapshot) -> u64| (f(&pass.after) - f(&pass.before)) as f64;
    out.push("service.incremental_runs", delta(|s| s.incremental_runs));
    out.push("service.cache_invalidations", delta(|s| s.cache_invalidations));
    out.push("service.epochs_advanced", delta(|s| s.epochs_advanced));
    let or_nan = |values: &[f64]| if values.is_empty() { f64::NAN } else { median(values) };
    out.push("service.mutate_ack_p50_ms", or_nan(&pass.ack_ms));
    out.push("service.round_monotone_ms", or_nan(&pass.monotone_round_ms));
    out.push("service.round_delete_ms", or_nan(&pass.delete_round_ms));
    out.samples("service.mutate_ack_p50_ms", pass.ack_ms.len());
    out.samples("service.round_monotone_ms", pass.monotone_round_ms.len());
    out.samples("service.round_delete_ms", pass.delete_round_ms.len());
}

/// `server.rtt_hit_us`: one cached key, one request in flight at a time.
fn rtt_row(stack: &mut Stack, key: ReadKey, calls: usize, out: &mut Outcome) {
    let client = &mut stack.clients[0];
    let call = |client: &mut fg_server::WireClient| {
        let request = Request::new(client.peek_correlation(), key.kernel(), key.source);
        let start = Instant::now();
        let response = client.call(&request, |_| {}).expect("round trip");
        let seconds = start.elapsed().as_secs_f64();
        assert!(matches!(response, Response::Result { .. }), "cached read failed: {response:?}");
        seconds * 1e6
    };
    call(client); // fills the cache
    let samples: Vec<f64> = (0..calls).map(|_| call(client)).collect();
    out.push("server.rtt_hit_us", median(&samples));
    out.samples("server.rtt_hit_us", samples.len());
}

/// Rows every traced pass measures on its graph besides the workload's own
/// traffic. `read` and `mutate` are the workload's own passes where it has
/// them; otherwise a probe stands in.
#[allow(clippy::too_many_arguments)]
fn common_rows(
    kind: GraphKind,
    pg: Arc<PartitionedGraph>,
    kernel: Kernel,
    ladder_sources: usize,
    own_facts: Option<EngineFacts>,
    setup: &[SetupTimes],
    read: Option<&ReadPass>,
    mutate: Option<&MutatePass>,
    seed: u64,
    scale: &Scale,
    rec: &Recorder,
    out: &mut Outcome,
) {
    let compressed = PartitionedGraph::from_plan(
        pg.graph_arc(),
        pg.plan().clone(),
        kind.partition_config(StorageConfig::Compressed),
    );
    graph_rows(kind, &pg, &compressed, setup, scale, rec, out);
    rec.scope("graph.mutation", None, || mutation_rows(&pg, seed, scale, out));
    rec.scope("core.buffer", None, || buffer_row(seed, scale, out));

    let sources = pick_sources(pg.graph(), ladder_sources, &mut Rng::new(seed, "ladder-sources"));
    let probe = probe_size(kind, scale);
    rec.scope("cachesim", None, || {
        cachesim_rows(&pg, kernel, &sources, probe.cachesim_reps, out);
    });
    let ladder_facts = ladder_rows(kind, &pg, &compressed, kernel, &sources, scale, rec, out);
    engine_rows(&own_facts.unwrap_or(ladder_facts), out);
    drop(compressed);

    let quiet = Recorder::new(false);
    let (mut stack, _) =
        serve::set_up_on(Arc::clone(&pg), ServiceConfig::default(), None, &quiet, None);
    let hot = ReadKey { bfs: false, source: sources[0] };
    rec.scope("server.rtt", None, || rtt_row(&mut stack, hot, probe.rtt_calls, out));
    match read {
        Some(pass) => read_rows(pass, out),
        None => {
            let span = rec.begin("probe.read", None);
            let pass = serve::read_pass(
                &mut stack,
                seed,
                probe.pool,
                probe.requests / 4,
                probe.requests,
                &quiet,
                out,
            );
            rec.end(span);
            read_rows(&pass, out);
        }
    }
    match mutate {
        Some(pass) => mutate_rows(pass, out),
        None => {
            let span = rec.begin("probe.mutate", None);
            let pass = serve::mutate_pass(
                &mut stack,
                seed,
                probe.hot_keys,
                scale.mutations_per_round,
                0,
                probe.rounds,
                &quiet,
                out,
            );
            rec.end(span);
            mutate_rows(&pass, out);
        }
    }
    drop(stack);

    out.exact("graph.partitions", pg.num_partitions());
    out.exact("graph.edges", pg.graph().num_edges());
    for metric in crate::spec::PER_LAYER.iter().filter(|m| m.exact) {
        // The work counters and seq.edges were added with their integer
        // values above; the rest are recorded by their bit pattern.
        if out.exact.iter().any(|(name, _)| name == metric.name) {
            continue;
        }
        if let Some(value) = out.get(metric.name) {
            out.exact(metric.name, format!("{:016x}", value.to_bits()));
        }
    }
}

/// The traced pass of a fork-processing workload.
pub fn run_traced_fpp(shape: FppShape, scale: &Scale, seed: u64, rec: &Recorder) -> Outcome {
    let mut own = Outcome::default();
    // Fewer pairs than the untraced pass: this pass reads counters and
    // profiles, and leaves the timing of the batch to the untraced one.
    let traced_shape = FppShape {
        pairs: scale.ladder_reps.max(if scale.quick { 1 } else { 3 }),
        latency_passes: 1,
        latency_sources: shape.sources,
        ..shape
    };
    let context = fpp::run_own(
        traced_shape,
        scale,
        seed,
        EngineConfig::default().with_profile(true),
        rec,
        &mut own,
    );
    let facts = EngineFacts {
        queries: context.sources.len(),
        seq_s: context.pairs.iter().map(|&(seq_s, _)| seq_s).collect(),
        seq_edges: context.seq_edges,
        engine_s: context.pairs.iter().map(|&(_, engine_s)| engine_s).collect(),
        work: context.work.clone(),
        settles: context.settles,
        profiles: context.profiles.clone(),
        caller_cpu_frac: context.caller_cpu_frac.clone(),
        single_s: context.single_latency_s.concat(),
    };
    let mut out = carry_over(own);
    common_rows(
        shape.graph,
        Arc::new(context.pg),
        shape.kernel,
        shape.ladder_sources,
        Some(facts),
        &context.setup,
        None,
        None,
        seed,
        scale,
        rec,
        &mut out,
    );
    out
}

/// Keep what the own-traffic run established about correctness, drop its
/// end-to-end metrics (the traced pass reports per-layer ones only).
fn carry_over(own: Outcome) -> Outcome {
    Outcome { metrics: Vec::new(), samples: Vec::new(), exact: Vec::new(), ..own }
}

/// Events per request of a service started with `start_traced`, from a
/// short read pass against it.
///
/// The workloads' own traffic is not run under `start_traced`: a sink keeps
/// one ring per OS thread that ever emitted into it (1.5 MiB at the default
/// capacity, found by a linear search under a lock), and the engine's
/// serial loop hands every partition visit to freshly spawned threads. At
/// full scale `serve-read` under `start_traced` was killed for memory after
/// 139 s and `serve-mutate` took 88 s instead of 20. The probe is short and
/// gives its sink small rings.
fn traced_service_probe(
    pg: &Arc<PartitionedGraph>,
    seed: u64,
    scale: &Scale,
    out: &mut Outcome,
) -> f64 {
    let sink = TraceSink::with_capacity(256);
    let quiet = Recorder::new(false);
    let (mut stack, _) = serve::set_up_on(
        Arc::clone(pg),
        ServiceConfig::default(),
        Some(Arc::clone(&sink)),
        &quiet,
        None,
    );
    let requests = (scale.probe_requests / 4).max(4);
    let pass = serve::read_pass(&mut stack, seed, scale.read_pool / 8, 0, requests, &quiet, out);
    drop(stack);
    let stats = sink.stats();
    (stats.retained + stats.dropped) as f64 / pass.requests.max(1) as f64
}

/// The traced pass of a serving workload (`serve-mutate` when `mutate`,
/// else `serve-read`): its own traffic with the benchmark's spans around
/// it, then the common rows on its graph.
pub fn run_traced_serve(mutate: bool, scale: &Scale, seed: u64, rec: &Recorder) -> Outcome {
    let mut own = Outcome::default();
    let kind = GraphKind::social(scale);
    let graph_seed = if mutate { serve::HOT_SET_SEED } else { seed };
    let (mut stack, setup) = serve::repeated_set_up(kind, graph_seed, scale, rec, &mut own);
    let (read, mutated) = if mutate {
        let pass = serve::mutate_pass(
            &mut stack,
            seed,
            scale.hot_keys,
            scale.mutations_per_round,
            scale.mutate_warmup_rounds,
            scale.mutate_rounds,
            rec,
            &mut own,
        );
        (None, Some(pass))
    } else {
        let pass = serve::read_pass(
            &mut stack,
            seed,
            scale.read_pool,
            scale.read_warmup,
            scale.read_measured,
            rec,
            &mut own,
        );
        (Some(pass), None)
    };
    let pg = Arc::clone(&stack.pg);
    drop(stack);
    let mut out = carry_over(own);
    let events_per_query = traced_service_probe(&pg, seed, scale, &mut out);
    out.push("trace.events_per_query", events_per_query);
    common_rows(
        kind,
        pg,
        Kernel::Sssp,
        scale.resident_ladder_sources,
        None,
        &setup,
        read.as_ref(),
        mutated.as_ref(),
        seed,
        scale,
        rec,
        &mut out,
    );
    out
}
