//! The three fork-processing workloads: one batch of queries through
//! `ForkGraphEngine`, timed in interleaved pairs against a single-threaded
//! `fg-seq` loop over the same sources, then the same queries one at a time
//! for latency.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use fg_graph::partition::PartitionPlan;
use fg_graph::partitioned::PartitionedGraph;
use fg_graph::{CsrGraph, Dist, StorageConfig, VertexId};
use fg_metrics::WorkSnapshot;
use fg_seq::ppr::PprConfig;
use fg_trace::RunProfile;
use forkgraph_core::kernels::PprState;
use forkgraph_core::{EngineConfig, ForkGraphEngine};

use crate::env;
use crate::inputs::{pick_sources, GraphKind, Rng};
use crate::outcome::Outcome;
use crate::spans::Recorder;
use crate::spec::{Scale, FPP_PPR, FPP_ROAD, FPP_SOCIAL};
use crate::stats::{median, typical, Stretch};

/// The query type of a fork-processing workload.
#[derive(Clone, Copy, Debug)]
pub enum Kernel {
    Sssp,
    Ppr(PprConfig),
}

/// One query's answer from the `fg-seq` oracle.
pub enum SeqAnswer {
    Dist(Vec<Dist>),
    /// Dense PPR estimates.
    Ppr(Vec<f64>),
}

/// A batch's answers from the engine.
pub enum EngineAnswers {
    Dist(Vec<Vec<Dist>>),
    Ppr(Vec<PprState>),
}

/// One timed engine run.
pub struct EngineRun {
    pub seconds: f64,
    pub work: WorkSnapshot,
    pub profile: Option<RunProfile>,
    /// Simulated LLC misses, when the engine was configured with a cache.
    pub cache_misses: Option<u64>,
    pub answers: EngineAnswers,
}

impl Kernel {
    /// Answer one query with the sequential oracle; returns the edges it
    /// relaxed alongside.
    pub fn seq_one(&self, graph: &CsrGraph, source: VertexId) -> (SeqAnswer, u64) {
        match self {
            Kernel::Sssp => {
                let result = fg_seq::dijkstra(graph, source);
                (SeqAnswer::Dist(result.dist), result.edges_processed)
            }
            Kernel::Ppr(config) => {
                let result = fg_seq::ppr_push(graph, source, config);
                let edges = result.edges_processed;
                (SeqAnswer::Ppr(result.dense(graph.num_vertices())), edges)
            }
        }
    }

    /// The timed sequential loop: every source, `repeats` times over, one
    /// thread, nothing cached. Returns seconds per pass over the sources.
    pub fn seq_loop(&self, graph: &CsrGraph, sources: &[VertexId], repeats: usize) -> f64 {
        let start = Instant::now();
        for _ in 0..repeats {
            for &source in sources {
                match self {
                    Kernel::Sssp => {
                        black_box(fg_seq::dijkstra(black_box(graph), source));
                    }
                    Kernel::Ppr(config) => {
                        black_box(fg_seq::ppr_push(black_box(graph), source, config));
                    }
                }
            }
        }
        start.elapsed().as_secs_f64() / repeats as f64
    }

    /// One timed engine batch. The clock covers the call only; the answers
    /// are dropped (or checked) by the caller afterwards.
    pub fn engine_run(&self, engine: &ForkGraphEngine<'_>, sources: &[VertexId]) -> EngineRun {
        match self {
            Kernel::Sssp => {
                let start = Instant::now();
                let result = engine.run_sssp(black_box(sources));
                let seconds = start.elapsed().as_secs_f64();
                EngineRun {
                    seconds,
                    cache_misses: result.measurement.cache.map(|cache| cache.misses),
                    work: result.measurement.work,
                    profile: result.profile,
                    answers: EngineAnswers::Dist(result.per_query),
                }
            }
            Kernel::Ppr(config) => {
                let start = Instant::now();
                let result = engine.run_ppr(black_box(sources), config);
                let seconds = start.elapsed().as_secs_f64();
                EngineRun {
                    seconds,
                    cache_misses: result.measurement.cache.map(|cache| cache.misses),
                    work: result.measurement.work,
                    profile: result.profile,
                    answers: EngineAnswers::Ppr(result.per_query),
                }
            }
        }
    }

    /// How many of `got`'s answers differ from the oracle's. SSSP must be
    /// byte-identical. PPR is an approximation whose final state depends on
    /// the push schedule, so it is held to its contract instead: mass is
    /// conserved to 1e-9, and the estimates lie within the L1 distance two
    /// quiescent push states can have — every residual is below
    /// `epsilon · degree`, so twice the sum of those thresholds.
    pub fn wrong_answers(
        &self,
        graph: &CsrGraph,
        oracle: &[SeqAnswer],
        got: &EngineAnswers,
    ) -> u64 {
        match (self, got) {
            (Kernel::Sssp, EngineAnswers::Dist(per_query)) => oracle
                .iter()
                .zip(per_query)
                .filter(|(expected, got)| !matches!(expected, SeqAnswer::Dist(d) if d == *got))
                .count() as u64,
            (Kernel::Ppr(config), EngineAnswers::Ppr(per_query)) => {
                let budget: f64 = (0..graph.num_vertices())
                    .map(|v| config.epsilon * graph.out_degree(v as VertexId).max(1) as f64)
                    .sum::<f64>()
                    * 2.0;
                oracle
                    .iter()
                    .zip(per_query)
                    .filter(|(expected, got)| {
                        let SeqAnswer::Ppr(expected) = expected else { return true };
                        let l1: f64 =
                            expected.iter().zip(&got.estimate).map(|(a, b)| (a - b).abs()).sum();
                        (got.total_mass() - 1.0).abs() >= 1e-9 || l1 > budget
                    })
                    .count() as u64
            }
            _ => oracle.len() as u64,
        }
    }

    /// Vertex settles behind a batch's answers: reached vertices for SSSP,
    /// pushes for PPR. The denominator of `ops_per_settle`.
    pub fn settles(&self, got: &EngineAnswers) -> u64 {
        match got {
            EngineAnswers::Dist(per_query) => per_query
                .iter()
                .map(|dist| dist.iter().filter(|&&d| d != fg_graph::INF_DIST).count() as u64)
                .sum(),
            EngineAnswers::Ppr(per_query) => per_query.iter().map(|state| state.pushes).sum(),
        }
    }
}

/// Shape of one fork-processing workload at a given scale.
#[derive(Clone, Copy, Debug)]
pub struct FppShape {
    pub graph: GraphKind,
    pub kernel: Kernel,
    pub sources: usize,
    pub pairs: usize,
    pub seq_repeats: usize,
    /// Distinct sources of the single-query latency samples, and passes
    /// over them. Where the count equals `sources`, the batch's own sources
    /// are used.
    pub latency_sources: usize,
    pub latency_passes: usize,
    pub ladder_sources: usize,
}

impl FppShape {
    pub fn of(name: &str, scale: &Scale) -> Option<FppShape> {
        let social = GraphKind::social(scale);
        match name {
            FPP_SOCIAL => Some(FppShape {
                graph: social,
                kernel: Kernel::Sssp,
                sources: scale.resident_sources,
                pairs: scale.social_pairs,
                seq_repeats: scale.social_seq_repeats,
                latency_sources: scale.resident_latency_sources,
                latency_passes: scale.resident_latency_passes,
                ladder_sources: scale.resident_ladder_sources,
            }),
            FPP_ROAD => Some(FppShape {
                graph: GraphKind::road(scale),
                kernel: Kernel::Sssp,
                sources: scale.road_sources,
                pairs: scale.road_pairs,
                seq_repeats: scale.road_seq_repeats,
                latency_sources: scale.road_sources,
                latency_passes: scale.road_latency_passes,
                ladder_sources: scale.road_ladder_sources,
            }),
            FPP_PPR => Some(FppShape {
                graph: social,
                kernel: Kernel::Ppr(PprConfig {
                    alpha: 0.15,
                    epsilon: scale.ppr_epsilon,
                    max_pushes: 0,
                }),
                sources: scale.resident_sources,
                pairs: scale.ppr_pairs,
                seq_repeats: scale.ppr_seq_repeats,
                latency_sources: scale.resident_latency_sources,
                latency_passes: scale.resident_latency_passes,
                ladder_sources: scale.resident_ladder_sources,
            }),
            _ => None,
        }
    }
}

/// Wall time of each set-up step of one cold set-up.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub gen_s: f64,
    pub partition_s: f64,
    pub build_s: f64,
    pub total_s: f64,
}

/// One cold set-up of the graph side: generate and weight the graph,
/// compute the Chunked plan, build the partitioned graph.
pub fn build_graph(
    kind: GraphKind,
    seed: u64,
    rec: &Recorder,
    parent: Option<u32>,
) -> (PartitionedGraph, SetupTimes) {
    let start = Instant::now();
    let graph = rec.scope("graph.gen", parent, || Arc::new(kind.generate(seed)));
    let gen_s = start.elapsed().as_secs_f64();
    let config = kind.partition_config(StorageConfig::Raw);
    let plan = rec.scope("graph.partition", parent, || PartitionPlan::compute(&graph, &config));
    let partition_s = start.elapsed().as_secs_f64() - gen_s;
    let pg = rec.scope("graph.build", parent, || PartitionedGraph::from_plan(graph, plan, config));
    let total_s = start.elapsed().as_secs_f64();
    let times = SetupTimes { gen_s, partition_s, build_s: total_s - gen_s - partition_s, total_s };
    (pg, times)
}

/// Cold set-ups repeated until the median means something: at least nine
/// that add up to 0.3 s, or at least five once 1.5 s have gone into them. `set_up` builds
/// everything and returns it with its wall time; all but the last product
/// are torn down, the last one is what the workload then runs on.
pub fn repeat_setup<T>(quick: bool, mut set_up: impl FnMut() -> (T, f64)) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut spent = 0.0;
    loop {
        let (product, seconds) = set_up();
        times.push(seconds);
        spent += seconds;
        let enough = if quick {
            times.len() >= 2
        } else {
            (times.len() >= 9 && spent >= 0.3) || (times.len() >= 5 && spent >= 1.5)
        };
        if enough {
            return (product, times);
        }
        drop(product);
    }
}

/// The work counters that must repeat exactly from run to run.
pub fn exact_work(work: &WorkSnapshot) -> [(&'static str, u64); 6] {
    [
        ("core.engine.edges", work.edges_processed),
        ("core.engine.ops_processed", work.operations_processed),
        ("core.engine.ops_buffered", work.operations_buffered),
        ("core.engine.ops_pruned", work.operations_pruned),
        ("core.engine.visits", work.partition_visits),
        ("core.engine.yields", work.yields),
    ]
}

/// Everything the traced pass needs from the workload's own run.
pub struct FppContext {
    pub pg: PartitionedGraph,
    pub sources: Vec<VertexId>,
    pub seq_edges: u64,
    pub setup: Vec<SetupTimes>,
    /// Per pair: seconds of one sequential pass, seconds of the engine run.
    pub pairs: Vec<(f64, f64)>,
    pub work: WorkSnapshot,
    pub settles: u64,
    pub profiles: Vec<RunProfile>,
    /// Calling thread's on-CPU share of each engine run's wall time.
    pub caller_cpu_frac: Vec<f64>,
    /// Single-query engine seconds, one list per slice (the samples taken
    /// after one pair).
    pub single_latency_s: Vec<Vec<f64>>,
}

/// Run the workload's own traffic: repeated set-ups, then interleaved
/// {sequential loop, engine batch, a slice of the single-query latency
/// samples} rounds, every answer checked. `engine_config` is the default
/// except in the traced pass, which turns profiling on.
pub fn run_own(
    shape: FppShape,
    scale: &Scale,
    seed: u64,
    engine_config: EngineConfig,
    rec: &Recorder,
    out: &mut Outcome,
) -> FppContext {
    let mut setups = Vec::new();
    let (pg, setup_s) = repeat_setup(scale.quick, || {
        let span = rec.begin("setup", None);
        let (pg, mut times) = build_graph(shape.graph, seed, rec, span.id());
        let start = Instant::now();
        rec.scope("engine.new", span.id(), || {
            black_box(ForkGraphEngine::new(&pg, engine_config));
        });
        times.total_s += start.elapsed().as_secs_f64();
        rec.end(span);
        setups.push(times);
        (pg, times.total_s)
    });
    out.push("setup_s", median(&setup_s));
    out.samples("setup_s", setup_s.len());

    let graph = pg.graph();
    let sources = pick_sources(graph, shape.sources, &mut Rng::new(seed, "sources"));
    let (oracle, seq_edges): (Vec<SeqAnswer>, Vec<u64>) =
        sources.iter().map(|&s| shape.kernel.seq_one(graph, s)).unzip();
    let seq_edges: u64 = seq_edges.iter().sum();

    // Single-query latency samples: one engine run per source. The resident
    // workloads sample more distinct sources than the batch holds, so that
    // the percentiles describe the graph and not the draw. The samples are
    // taken in slices, one slice after each pair: the host this runs on has
    // slow phases of several seconds, and a block of samples taken in one go
    // would sit inside one or outside all of them.
    let own_sources;
    let own_oracle: Vec<SeqAnswer>;
    let (latency_sources, latency_oracle) = if shape.latency_sources == shape.sources {
        (&sources, &oracle)
    } else {
        own_sources =
            pick_sources(graph, shape.latency_sources, &mut Rng::new(seed, "latency-sources"));
        own_oracle = own_sources.iter().map(|&s| shape.kernel.seq_one(graph, s).0).collect();
        (&own_sources, &own_oracle)
    };
    let mut latency_plan: Vec<usize> =
        (0..shape.latency_passes).flat_map(|_| 0..latency_sources.len()).collect();
    let slice_len = latency_plan.len().div_ceil(shape.pairs.max(1));

    let engine = ForkGraphEngine::new(&pg, engine_config);
    let mut pairs = Vec::new();
    let mut first: Option<(WorkSnapshot, u64)> = None;
    let mut profiles = Vec::new();
    let mut caller_cpu_frac = Vec::new();
    let mut single_latency_s = Vec::new();
    let mut wrong_singles = 0;
    for _ in 0..shape.pairs {
        let span = rec.begin("pair", None);
        let seq_s = rec.scope("seq.loop", span.id(), || {
            shape.kernel.seq_loop(graph, &sources, shape.seq_repeats)
        });
        let open = rec.begin("engine.run", span.id());
        let cpu_before = env::thread_cpu_ns();
        let run = shape.kernel.engine_run(&engine, &sources);
        let cpu_after = env::thread_cpu_ns();
        rec.end(open);
        rec.end(span);
        if let (Some(before), Some(after)) = (cpu_before, cpu_after) {
            caller_cpu_frac.push((after - before) as f64 * 1e-9 / run.seconds);
        }
        pairs.push((seq_s, run.seconds));
        let wrong = shape.kernel.wrong_answers(graph, &oracle, &run.answers);
        out.checked(sources.len() as u64, wrong, "batch answers differ from the fg-seq oracle");
        match &first {
            None => first = Some((run.work.clone(), shape.kernel.settles(&run.answers))),
            Some((work, _)) => {
                for ((name, a), (_, b)) in exact_work(work).iter().zip(exact_work(&run.work)) {
                    if *a != b {
                        out.broken(format!("{name} did not repeat across pairs: {a} then {b}"));
                    }
                }
            }
        }
        profiles.extend(run.profile);

        let span = rec.begin("singles", None);
        let mut slice = Vec::new();
        for i in latency_plan.drain(..slice_len.min(latency_plan.len())) {
            let run = shape.kernel.engine_run(&engine, &latency_sources[i..=i]);
            slice.push(run.seconds);
            wrong_singles +=
                shape.kernel.wrong_answers(graph, &latency_oracle[i..=i], &run.answers);
        }
        single_latency_s.push(slice);
        rec.end(span);
    }
    let (work, settles) = first.expect("at least one pair ran");

    let stretches: Vec<Stretch> =
        pairs.iter().map(|&(seq_s, wall_s)| Stretch { wall_s, seq_s }).collect();
    let (batch_s, vs_seq) = typical(&stretches).expect("at least one pair ran");
    out.push("batch_s", batch_s);
    out.samples("batch_s", stretches.len());
    out.push("vs_seq", vs_seq);
    out.samples("vs_seq", stretches.len());

    let singles: usize = single_latency_s.iter().map(Vec::len).sum();
    out.checked(
        singles as u64,
        wrong_singles,
        "single-query answers differ from the fg-seq oracle",
    );
    let latency_ms: Vec<Vec<f64>> = single_latency_s
        .iter()
        .map(|slice| slice.iter().map(|seconds| seconds * 1e3).collect())
        .collect();
    out.push_latencies(&latency_ms);

    for (name, value) in exact_work(&work) {
        out.exact(name, value);
    }
    out.exact("seq.edges", seq_edges);
    out.exact("graph.partitions", pg.num_partitions());
    out.exact("graph.edges", graph.num_edges());

    drop(engine);
    FppContext {
        pg,
        sources,
        seq_edges,
        setup: setups,
        pairs,
        work,
        settles,
        profiles,
        caller_cpu_frac,
        single_latency_s,
    }
}

/// The untraced pass of a fork-processing workload.
pub fn run_untraced(shape: FppShape, scale: &Scale, seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let rec = Recorder::new(false);
    let context = run_own(shape, scale, seed, EngineConfig::default(), &rec, &mut out);
    drop(context);
    out.push("peak_rss_mib", env::peak_rss_mib());
    out
}
