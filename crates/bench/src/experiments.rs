//! One function per table / figure of the paper's evaluation.
//!
//! Every function returns the Markdown tables that the `repro` binary prints
//! and writes under `target/repro/`. Workloads are scaled down (the dataset
//! stand-ins of `fg_graph::datasets`); each experiment states its scaled
//! parameters in the table title.

use std::sync::Arc;
use std::time::Instant;

use fg_baselines::atomic_free::atomic_free_sssp;
use fg_baselines::fpp::ExecutionScheme;
use fg_cachesim::StallModel;
use fg_graph::datasets::{self, DatasetSpec};
use fg_graph::partition::{PartitionConfig, PartitionMethod, PartitionPlan};
use fg_graph::partitioned::PartitionedGraph;
use fg_graph::{CsrGraph, VertexId};
use fg_metrics::report::fmt_f64;
use fg_metrics::{Measurement, Table, WorkCounters};
use fg_seq::ppr::PprConfig;
use forkgraph_core::buffer::{consolidate, ConsolidationMethod};
use forkgraph_core::{
    AblationLevel, EngineConfig, ForkGraphEngine, Operation, SchedulingPolicy, YieldPolicy,
};

use crate::runner::{
    forkgraph_ppr_config, forkgraph_sssp_config, run_baseline, run_forkgraph, scaled_llc, System,
    Workload,
};

// Scales used throughout; small enough that `repro all` finishes in minutes.
const ROAD_SCALE: f64 = 0.05;
const SOCIAL_SCALE: f64 = 0.08;

fn scale_for(spec: &DatasetSpec) -> f64 {
    if spec.is_road() {
        ROAD_SCALE
    } else {
        SOCIAL_SCALE
    }
}

fn weighted(spec: &DatasetSpec) -> CsrGraph {
    spec.generate_weighted(scale_for(spec))
}

fn unweighted(spec: &DatasetSpec) -> CsrGraph {
    spec.scaled(scale_for(spec))
}

fn sources(graph: &CsrGraph, count: usize, seed: u64) -> Vec<VertexId> {
    fg_apps::sample_sources(graph.num_vertices(), count, seed)
}

fn ppr_config() -> PprConfig {
    PprConfig { epsilon: 1e-4, ..Default::default() }
}

fn secs(m: &Measurement) -> String {
    fmt_f64(m.seconds())
}

// ---------------------------------------------------------------------------
// Table 1 & Figure 1: profiling the baselines on an NCP-style PPR batch
// ---------------------------------------------------------------------------

/// Table 1: profiling of a PPR batch on the LiveJournal stand-in for the three
/// baselines under single-threaded, intra-query (t = cores), and inter-query
/// (t = 1) schemes — edges processed (instruction proxy), simulated LLC loads,
/// miss ratio, and runtime.
pub fn table1() -> Vec<Table> {
    let graph = Arc::new(unweighted(&datasets::LJ));
    let workload = Workload::ppr(sources(&graph, 32, 1), ppr_config());
    let llc = scaled_llc();
    let mut table = Table::new(
        format!(
            "Table 1 — profiling {} PPR queries on Lj-scaled ({} vertices, {} edges)",
            workload.sources.len(),
            graph.num_vertices(),
            graph.num_edges()
        ),
        &["system", "scheme", "edges processed", "LLC loads", "LLC miss ratio", "runtime (s)"],
    );
    for system in System::baselines() {
        for scheme in [
            ExecutionScheme::SingleThreaded,
            ExecutionScheme::IntraQuery,
            ExecutionScheme::InterQuery,
        ] {
            let m = run_baseline(system, &graph, &workload, scheme, Some(llc));
            let cache = m.cache.unwrap();
            table.push_row([
                system.name().to_string(),
                scheme.label(),
                m.work.edges_processed.to_string(),
                cache.loads.to_string(),
                format!("{:.1}%", cache.miss_ratio() * 100.0),
                secs(&m),
            ]);
        }
    }
    vec![table]
}

/// Figure 1: normalised execution time and normalised LLC misses as the number
/// of threads per query varies (t = cores, 2, 1).
pub fn figure1() -> Vec<Table> {
    let graph = Arc::new(unweighted(&datasets::LJ));
    let workload = Workload::ppr(sources(&graph, 32, 1), ppr_config());
    let llc = scaled_llc();
    let schemes = [
        ("t=cores", ExecutionScheme::IntraQuery),
        ("t=2", ExecutionScheme::Hybrid { threads_per_query: 2 }),
        ("t=1", ExecutionScheme::InterQuery),
    ];
    let mut time_table = Table::new(
        "Figure 1a — normalised execution time vs threads per query (lower is better)",
        &["system", "t=cores", "t=2", "t=1"],
    );
    let mut miss_table = Table::new(
        "Figure 1b — normalised #LLC misses vs threads per query",
        &["system", "t=cores", "t=2", "t=1"],
    );
    for system in System::baselines() {
        let runs: Vec<Measurement> = schemes
            .iter()
            .map(|(_, scheme)| run_baseline(system, &graph, &workload, *scheme, Some(llc)))
            .collect();
        let base_time = runs[0].seconds().max(1e-9);
        let base_miss = runs[0].cache.unwrap().misses.max(1) as f64;
        time_table.push_row(
            std::iter::once(system.name().to_string())
                .chain(runs.iter().map(|m| fmt_f64(m.seconds() / base_time))),
        );
        miss_table.push_row(
            std::iter::once(system.name().to_string())
                .chain(runs.iter().map(|m| fmt_f64(m.cache.unwrap().misses as f64 / base_miss))),
        );
    }
    vec![time_table, miss_table]
}

// ---------------------------------------------------------------------------
// Figure 8: scheduling-policy worked example
// ---------------------------------------------------------------------------

/// Figure 8: number of operations processed under the four scheduling methods
/// for a small multi-source SSSP workload on a road-like graph.
pub fn figure8() -> Vec<Table> {
    let graph = datasets::CA.generate_weighted(0.02);
    let pg = PartitionedGraph::build(
        &graph,
        PartitionConfig::with_partitions(PartitionMethod::Multilevel, 4),
    );
    let srcs = sources(&graph, 2, 8);
    let mut table = Table::new(
        "Figure 8 — operations processed under different scheduling methods (2 SSSP queries)",
        &["scheduling", "operations processed", "partition visits"],
    );
    for policy in SchedulingPolicy::all() {
        let config =
            EngineConfig::default().with_scheduling(policy).with_yield_policy(YieldPolicy::None);
        let result = ForkGraphEngine::new(&pg, config).run_sssp(&srcs);
        table.push_row([
            policy.name().to_string(),
            result.work().operations_processed.to_string(),
            result.work().partition_visits.to_string(),
        ]);
    }
    vec![table]
}

// ---------------------------------------------------------------------------
// Figure 9: overall performance on BC / NCP / LL
// ---------------------------------------------------------------------------

fn normalised_table(label: &str) -> Table {
    Table::new(
        label,
        &[
            "graph",
            "Ligra (t=1)",
            "Gemini (t=1)",
            "GraphIt",
            "ForkGraph",
            "ForkGraph speedup vs best GPS",
        ],
    )
}

/// Figure 9: overall execution time of BC, NCP, and LL, normalised to
/// Ligra (t = 1), for the four systems.
pub fn figure9() -> Vec<Table> {
    let mut tables = Vec::new();

    // (a) BC on all eight graphs: a batch of SSSPs from sampled sources.
    {
        let mut table =
            normalised_table("Figure 9a — BC (normalised to Ligra t=1, lower is better)");
        for spec in datasets::all() {
            let graph = Arc::new(weighted(&spec));
            let workload = Workload::sssp(sources(&graph, 8, 9));
            let ligra =
                run_baseline(System::Ligra, &graph, &workload, ExecutionScheme::InterQuery, None);
            let gemini =
                run_baseline(System::Gemini, &graph, &workload, ExecutionScheme::InterQuery, None);
            let graphit =
                run_baseline(System::GraphIt, &graph, &workload, ExecutionScheme::IntraQuery, None);
            let fork = run_forkgraph(
                &graph,
                &workload,
                scaled_llc().capacity_bytes,
                forkgraph_sssp_config(),
                None,
            );
            let base = ligra.seconds().max(1e-9);
            let best_gps = ligra.seconds().min(gemini.seconds()).min(graphit.seconds());
            table.push_row([
                spec.name.to_string(),
                "1.00".to_string(),
                fmt_f64(gemini.seconds() / base),
                fmt_f64(graphit.seconds() / base),
                fmt_f64(fork.seconds() / base),
                format!("{}x", fmt_f64(best_gps / fork.seconds().max(1e-9))),
            ]);
        }
        tables.push(table);
    }

    // (b) NCP on the five social/web graphs: a batch of PPRs.
    {
        let mut table = normalised_table("Figure 9b — NCP (normalised to Ligra t=1)");
        for spec in datasets::ncp_graphs() {
            let graph = Arc::new(unweighted(&spec));
            let workload = Workload::ppr(sources(&graph, 16, 11), ppr_config());
            let ligra =
                run_baseline(System::Ligra, &graph, &workload, ExecutionScheme::InterQuery, None);
            let gemini =
                run_baseline(System::Gemini, &graph, &workload, ExecutionScheme::InterQuery, None);
            let graphit =
                run_baseline(System::GraphIt, &graph, &workload, ExecutionScheme::InterQuery, None);
            let fork = run_forkgraph(
                &graph,
                &workload,
                scaled_llc().capacity_bytes,
                forkgraph_ppr_config(),
                None,
            );
            let base = ligra.seconds().max(1e-9);
            let best_gps = ligra.seconds().min(gemini.seconds()).min(graphit.seconds());
            table.push_row([
                spec.name.to_string(),
                "1.00".to_string(),
                fmt_f64(gemini.seconds() / base),
                fmt_f64(graphit.seconds() / base),
                fmt_f64(fork.seconds() / base),
                format!("{}x", fmt_f64(best_gps / fork.seconds().max(1e-9))),
            ]);
        }
        tables.push(table);
    }

    // (c) LL on the road networks + Wk/Pt: a batch of SSSPs from landmarks.
    {
        let mut table = normalised_table("Figure 9c — LL (normalised to Ligra t=1)");
        for spec in [datasets::CA, datasets::US, datasets::EU, datasets::WK, datasets::PT] {
            let graph = Arc::new(weighted(&spec));
            let workload = Workload::sssp(sources(&graph, 16, 13));
            let ligra =
                run_baseline(System::Ligra, &graph, &workload, ExecutionScheme::InterQuery, None);
            let gemini =
                run_baseline(System::Gemini, &graph, &workload, ExecutionScheme::InterQuery, None);
            let graphit =
                run_baseline(System::GraphIt, &graph, &workload, ExecutionScheme::IntraQuery, None);
            let fork = run_forkgraph(
                &graph,
                &workload,
                scaled_llc().capacity_bytes,
                forkgraph_sssp_config(),
                None,
            );
            let base = ligra.seconds().max(1e-9);
            let best_gps = ligra.seconds().min(gemini.seconds()).min(graphit.seconds());
            table.push_row([
                spec.name.to_string(),
                "1.00".to_string(),
                fmt_f64(gemini.seconds() / base),
                fmt_f64(graphit.seconds() / base),
                fmt_f64(fork.seconds() / base),
                format!("{}x", fmt_f64(best_gps / fork.seconds().max(1e-9))),
            ]);
        }
        tables.push(table);
    }
    tables
}

// ---------------------------------------------------------------------------
// Table 3: NCP execution time and memory consumption
// ---------------------------------------------------------------------------

/// Table 3: NCP execution time (A) and memory consumption (B) per system and
/// dataset.
pub fn table3() -> Vec<Table> {
    let mut time_table = Table::new(
        "Table 3A — NCP execution time (seconds, scaled workload)",
        &["system", "Or", "Wk", "Lj", "Pt", "Tw"],
    );
    let mut mem_table = Table::new(
        "Table 3B — memory consumption (MiB, scaled workload)",
        &["system", "Or", "Wk", "Lj", "Pt", "Tw"],
    );
    let specs = datasets::ncp_graphs();
    let graphs: Vec<Arc<CsrGraph>> = specs.iter().map(|s| Arc::new(unweighted(s))).collect();
    let workloads: Vec<Workload> =
        graphs.iter().map(|g| Workload::ppr(sources(g, 16, 17), ppr_config())).collect();

    let mut rows: Vec<(String, Vec<Measurement>)> = Vec::new();
    for system in System::baselines() {
        for (label, scheme) in
            [("t=cores", ExecutionScheme::IntraQuery), ("t=1", ExecutionScheme::InterQuery)]
        {
            let runs: Vec<Measurement> = graphs
                .iter()
                .zip(workloads.iter())
                .map(|(g, w)| run_baseline(system, g, w, scheme, None))
                .collect();
            rows.push((format!("{} ({label})", system.name()), runs));
        }
    }
    let fork_runs: Vec<Measurement> = graphs
        .iter()
        .zip(workloads.iter())
        .map(|(g, w)| {
            run_forkgraph(g, w, scaled_llc().capacity_bytes, forkgraph_ppr_config(), None)
        })
        .collect();
    rows.push(("ForkGraph".to_string(), fork_runs));

    for (label, runs) in &rows {
        time_table.push_row(std::iter::once(label.clone()).chain(runs.iter().map(secs)));
        mem_table.push_row(std::iter::once(label.clone()).chain(runs.iter().map(|m| {
            fmt_f64(m.memory.map(|mem| mem.total_bytes() as f64 / (1024.0 * 1024.0)).unwrap_or(0.0))
        })));
    }
    vec![time_table, mem_table]
}

// ---------------------------------------------------------------------------
// Figure 10: LLC misses and edges processed
// ---------------------------------------------------------------------------

/// Figure 10: simulated LLC misses (a) and edges processed (b) for LL on road
/// graphs and NCP on social graphs, across all systems plus the sequential
/// algorithm.
pub fn figure10() -> Vec<Table> {
    let llc = scaled_llc();
    let cases: Vec<(String, Arc<CsrGraph>, Workload, EngineConfig)> = vec![
        {
            let g = Arc::new(datasets::CA.generate_weighted(ROAD_SCALE));
            let w = Workload::sssp(sources(&g, 8, 21));
            ("LL on Ca".to_string(), g, w, forkgraph_sssp_config())
        },
        {
            let g = Arc::new(datasets::US.generate_weighted(0.03));
            let w = Workload::sssp(sources(&g, 8, 22));
            ("LL on Us".to_string(), g, w, forkgraph_sssp_config())
        },
        {
            let g = Arc::new(datasets::LJ.scaled(0.06));
            let w = Workload::ppr(sources(&g, 8, 23), ppr_config());
            ("NCP on Lj".to_string(), g, w, forkgraph_ppr_config())
        },
        {
            let g = Arc::new(datasets::TW.scaled(0.04));
            let w = Workload::ppr(sources(&g, 8, 24), ppr_config());
            ("NCP on Tw".to_string(), g, w, forkgraph_ppr_config())
        },
    ];
    let mut miss_table = Table::new(
        "Figure 10a — simulated #LLC misses",
        &[
            "workload",
            "Ligra (t=cores)",
            "Ligra (t=1)",
            "Gemini (t=1)",
            "GraphIt (t=1)",
            "ForkGraph",
            "Sequential",
        ],
    );
    let mut work_table = Table::new(
        "Figure 10b — #edges processed",
        &[
            "workload",
            "Ligra (t=cores)",
            "Ligra (t=1)",
            "Gemini (t=1)",
            "GraphIt (t=1)",
            "ForkGraph",
            "Sequential",
        ],
    );
    for (label, graph, workload, fork_config) in cases {
        let runs = [
            run_baseline(System::Ligra, &graph, &workload, ExecutionScheme::IntraQuery, Some(llc)),
            run_baseline(System::Ligra, &graph, &workload, ExecutionScheme::InterQuery, Some(llc)),
            run_baseline(System::Gemini, &graph, &workload, ExecutionScheme::InterQuery, Some(llc)),
            run_baseline(
                System::GraphIt,
                &graph,
                &workload,
                ExecutionScheme::InterQuery,
                Some(llc),
            ),
            run_forkgraph(&graph, &workload, llc.capacity_bytes, fork_config, Some(llc)),
        ];
        // Sequential baseline: the best sequential algorithm per query.
        let seq_edges: u64 = workload
            .sources
            .iter()
            .map(|&s| match &workload.kind {
                fg_baselines::fpp::QueryKind::Sssp => {
                    fg_seq::dijkstra::dijkstra(&graph, s).edges_processed
                }
                fg_baselines::fpp::QueryKind::Bfs => fg_seq::bfs::bfs(&graph, s).edges_processed,
                fg_baselines::fpp::QueryKind::Ppr(c) => {
                    fg_seq::ppr::ppr_push(&graph, s, c).edges_processed
                }
            })
            .sum();
        miss_table.push_row(
            std::iter::once(label.clone())
                .chain(runs.iter().map(|m| m.cache.unwrap().misses.to_string()))
                .chain(std::iter::once("—".to_string())),
        );
        work_table.push_row(
            std::iter::once(label)
                .chain(runs.iter().map(|m| m.work.edges_processed.to_string()))
                .chain(std::iter::once(seq_edges.to_string())),
        );
    }
    vec![miss_table, work_table]
}

// ---------------------------------------------------------------------------
// Figure 11: cumulative optimisation ablation
// ---------------------------------------------------------------------------

/// Figure 11: speedups over Ligra (t = cores) as the ForkGraph optimisations
/// are enabled cumulatively (+buffer, +consolidation, +priority scheduling,
/// +yielding).
pub fn figure11() -> Vec<Table> {
    let cases: Vec<(String, Arc<CsrGraph>, Workload)> = vec![
        {
            let g = Arc::new(datasets::CA.generate_weighted(ROAD_SCALE));
            let w = Workload::sssp(sources(&g, 8, 31));
            ("LL on Ca".to_string(), g, w)
        },
        {
            let g = Arc::new(datasets::US.generate_weighted(0.03));
            let w = Workload::sssp(sources(&g, 8, 32));
            ("LL on Us".to_string(), g, w)
        },
        {
            let g = Arc::new(datasets::LJ.scaled(0.06));
            let w = Workload::ppr(sources(&g, 8, 33), ppr_config());
            ("NCP on Lj".to_string(), g, w)
        },
        {
            let g = Arc::new(datasets::TW.scaled(0.04));
            let w = Workload::ppr(sources(&g, 8, 34), ppr_config());
            ("NCP on Tw".to_string(), g, w)
        },
    ];
    let mut table = Table::new(
        "Figure 11 — speedups over Ligra (t=cores) with cumulative optimisations",
        &["workload", "+buffer", "+consolidation", "+priority scheduling", "+yielding"],
    );
    for (label, graph, workload) in cases {
        let baseline =
            run_baseline(System::Ligra, &graph, &workload, ExecutionScheme::IntraQuery, None);
        let mut cells = vec![label];
        for level in AblationLevel::all() {
            let mut config = EngineConfig::for_ablation(level);
            if matches!(workload.kind, fg_baselines::fpp::QueryKind::Ppr(_))
                && level == AblationLevel::Full
            {
                config = config.with_yield_policy(YieldPolicy::EdgeBudgetAuto { factor: 100.0 });
            }
            let m = run_forkgraph(&graph, &workload, scaled_llc().capacity_bytes, config, None);
            cells.push(format!("{}x", fmt_f64(baseline.seconds() / m.seconds().max(1e-9))));
        }
        table.push_row(cells);
    }
    vec![table]
}

// ---------------------------------------------------------------------------
// Table 4: scheduling and yielding parameter sweeps
// ---------------------------------------------------------------------------

fn bc_on_us() -> (Arc<CsrGraph>, Workload) {
    let g = Arc::new(datasets::US.generate_weighted(0.03));
    let w = Workload::sssp(sources(&g, 16, 41));
    (g, w)
}

/// Table 4A: impact of the priority functor / scheduling policy on BC.
pub fn table4a() -> Vec<Table> {
    let (graph, workload) = bc_on_us();
    let mut table = Table::new(
        "Table 4A — impact of inter-partition scheduling (BC on Us-scaled, yielding enabled)",
        &["priority functor", "execution time (s)", "edges processed"],
    );
    for policy in SchedulingPolicy::all() {
        let config = EngineConfig::default().with_scheduling(policy);
        let m = run_forkgraph(&graph, &workload, scaled_llc().capacity_bytes, config, None);
        table.push_row([
            match policy {
                SchedulingPolicy::Priority => "Shortest".to_string(),
                other => other.name().to_string(),
            },
            secs(&m),
            m.work.edges_processed.to_string(),
        ]);
    }
    vec![table]
}

/// Table 4B: yielding heuristic 1 (edge budget) threshold sweep.
pub fn table4b() -> Vec<Table> {
    let (graph, workload) = bc_on_us();
    let mut table = Table::new(
        "Table 4B — yielding heuristic 1 (edge budget, multiples of mu = |E_P|/|Q|)",
        &["threshold", "execution time (s)", "edges processed", "yields"],
    );
    let factors = [("0.25mu", 0.25), ("0.5mu", 0.5), ("mu", 1.0), ("2mu", 2.0), ("4mu", 4.0)];
    for (label, factor) in factors {
        let config =
            EngineConfig::default().with_yield_policy(YieldPolicy::EdgeBudgetAuto { factor });
        let m = run_forkgraph(&graph, &workload, scaled_llc().capacity_bytes, config, None);
        table.push_row([
            label.to_string(),
            secs(&m),
            m.work.edges_processed.to_string(),
            m.work.yields.to_string(),
        ]);
    }
    let none = run_forkgraph(
        &graph,
        &workload,
        scaled_llc().capacity_bytes,
        EngineConfig::default().with_yield_policy(YieldPolicy::None),
        None,
    );
    table.push_row([
        "No yielding".to_string(),
        secs(&none),
        none.work.edges_processed.to_string(),
        "0".to_string(),
    ]);
    vec![table]
}

/// Table 4C: yielding heuristic 2 (value range, multiples of Δ) sweep.
pub fn table4c() -> Vec<Table> {
    let (graph, workload) = bc_on_us();
    // Base Δ: a few multiples of the maximum edge weight, in the spirit of
    // Δ-stepping's tuning on road networks.
    let base_delta: u64 = 16;
    let mut table = Table::new(
        "Table 4C — yielding heuristic 2 (value range, multiples of delta)",
        &["threshold", "execution time (s)", "edges processed", "yields"],
    );
    for (label, mult) in
        [("0.25delta", 0.25), ("0.5delta", 0.5), ("delta", 1.0), ("2delta", 2.0), ("4delta", 4.0)]
    {
        let delta = ((base_delta as f64) * mult).ceil() as u64;
        let config = EngineConfig::default().with_yield_policy(YieldPolicy::ValueRange { delta });
        let m = run_forkgraph(&graph, &workload, scaled_llc().capacity_bytes, config, None);
        table.push_row([
            label.to_string(),
            secs(&m),
            m.work.edges_processed.to_string(),
            m.work.yields.to_string(),
        ]);
    }
    let none = run_forkgraph(
        &graph,
        &workload,
        scaled_llc().capacity_bytes,
        EngineConfig::default().with_yield_policy(YieldPolicy::None),
        None,
    );
    table.push_row([
        "No yielding".to_string(),
        secs(&none),
        none.work.edges_processed.to_string(),
        "0".to_string(),
    ]);
    vec![table]
}

// ---------------------------------------------------------------------------
// Table 5: consolidation complexity
// ---------------------------------------------------------------------------

/// Table 5: time to consolidate a buffer of R operations by sorting vs
/// scanning, with a single buffer vs K buckets.
pub fn table5() -> Vec<Table> {
    let num_ops = 200_000usize;
    let num_queries = 256usize;
    let ops: Vec<Operation<u64>> = (0..num_ops)
        .map(|i| {
            let q = ((i * 2654435761) % num_queries) as u32;
            Operation::new(q, i as u32, i as u64, (i as u64 * 37) % 1000)
        })
        .collect();
    let mut table = Table::new(
        format!("Table 5 — consolidation of {num_ops} operations over {num_queries} queries (milliseconds)"),
        &["method", "single buffer", "K=16 buckets", "K=|Q| buckets"],
    );
    let time_it = |method: ConsolidationMethod, buckets: usize| -> f64 {
        // Split operations into buckets by query id, then consolidate each
        // bucket independently, as the multi-bucket buffer does.
        let start = Instant::now();
        let mut grouped = 0usize;
        if buckets <= 1 {
            grouped += consolidate(&ops, num_queries, method).len();
        } else {
            let mut parts: Vec<Vec<Operation<u64>>> = vec![Vec::new(); buckets];
            for op in &ops {
                parts[(op.query as usize) % buckets].push(*op);
            }
            for part in &parts {
                grouped += consolidate(part, num_queries, method).len();
            }
        }
        assert!(grouped >= num_queries.min(num_ops));
        start.elapsed().as_secs_f64() * 1e3
    };
    for (label, method) in
        [("Sort", ConsolidationMethod::Sort), ("Scan", ConsolidationMethod::Scan)]
    {
        table.push_row([
            label.to_string(),
            fmt_f64(time_it(method, 1)),
            fmt_f64(time_it(method, 16)),
            fmt_f64(time_it(method, num_queries)),
        ]);
    }
    vec![table]
}

// ---------------------------------------------------------------------------
// Figure 13: memory stall breakdown
// ---------------------------------------------------------------------------

/// Figure 13: fraction of memory-unit time stalled, per system, on the NCP
/// workload (derived from the simulated cache counters and the stall model).
pub fn figure13() -> Vec<Table> {
    let graph = Arc::new(datasets::LJ.scaled(0.06));
    let workload = Workload::ppr(sources(&graph, 16, 51), ppr_config());
    let llc = scaled_llc();
    let model = StallModel::default();
    let mut table = Table::new(
        "Figure 13 — memory-unit stall breakdown (NCP on Lj-scaled)",
        &["system", "LLC miss ratio", "stalled fraction of memory time"],
    );
    let mut push = |label: String, m: &Measurement| {
        let cache = m.cache.unwrap();
        let stats = fg_cachesim::CacheStats {
            accesses: cache.accesses,
            hits: cache.accesses - cache.misses,
            misses: cache.misses,
            loads: cache.loads,
            stores: cache.accesses - cache.loads,
        };
        let breakdown = model.breakdown(&stats);
        table.push_row([
            label,
            format!("{:.1}%", cache.miss_ratio() * 100.0),
            format!("{:.1}%", breakdown.stalled_fraction() * 100.0),
        ]);
    };
    for system in System::baselines() {
        for (label, scheme) in
            [("t=cores", ExecutionScheme::IntraQuery), ("t=1", ExecutionScheme::InterQuery)]
        {
            let m = run_baseline(system, &graph, &workload, scheme, Some(llc));
            push(format!("{} ({label})", system.name()), &m);
        }
    }
    let fork =
        run_forkgraph(&graph, &workload, llc.capacity_bytes, forkgraph_ppr_config(), Some(llc));
    push("ForkGraph".to_string(), &fork);
    vec![table]
}

// ---------------------------------------------------------------------------
// Figure 14: thread scalability
// ---------------------------------------------------------------------------

/// Figure 14's columns: the PPR engine configuration at 1..=`max_threads`
/// workers, one column each.
fn figure14_configs(max_threads: usize) -> Vec<EngineConfig> {
    (1..=max_threads).map(|threads| forkgraph_ppr_config().with_threads(threads)).collect()
}

/// Figure 14: ForkGraph speedup as the number of worker threads grows.
pub fn figure14() -> Vec<Table> {
    let specs = [datasets::OR, datasets::LJ, datasets::PT];
    let max_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
    let configs = figure14_configs(max_threads);
    let mut headers: Vec<String> = vec!["graph".to_string()];
    headers.extend(configs.iter().map(|c| format!("{} thread(s)", c.num_threads)));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Figure 14 — ForkGraph speedup vs number of threads (NCP workload)",
        &header_refs,
    );
    let ppr = ppr_config();
    for spec in specs {
        let graph = unweighted(&spec);
        let srcs = sources(&graph, 16, 61);
        // One layout per graph: the columns differ only in worker count.
        let pg = PartitionedGraph::build(
            &graph,
            PartitionConfig::llc_sized(scaled_llc().capacity_bytes),
        );
        let times: Vec<f64> = configs
            .iter()
            .map(|&config| {
                ForkGraphEngine::new(&pg, config).run_ppr(&srcs, &ppr).measurement.seconds()
            })
            .collect();
        let base = times[0].max(1e-9);
        table.push_row(
            std::iter::once(spec.name.to_string())
                .chain(times.iter().map(|t| format!("{}x", fmt_f64(base / t.max(1e-9))))),
        );
    }
    vec![table]
}

// ---------------------------------------------------------------------------
// Figure 15: throughput vs number of queries
// ---------------------------------------------------------------------------

/// Figure 15: normalised throughput (queries per second, relative to a single
/// query) as the number of FPP queries grows, for five query types.
pub fn figure15() -> Vec<Table> {
    let counts = [1usize, 4, 16, 64];
    let mut headers: Vec<String> = vec!["query type".to_string()];
    headers.extend(counts.iter().map(|c| format!("|Q|={c}")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table =
        Table::new("Figure 15 — normalised throughput vs number of queries", &header_refs);

    let social = datasets::LJ.scaled(0.06);
    let road = datasets::US.generate_weighted(0.03);
    let pg_social =
        PartitionedGraph::build(&social, PartitionConfig::llc_sized(scaled_llc().capacity_bytes));
    let pg_road =
        PartitionedGraph::build(&road, PartitionConfig::llc_sized(scaled_llc().capacity_bytes));

    let mut run_series = |label: &str, run: &mut dyn FnMut(&[VertexId]) -> f64| {
        let graph_n =
            if label.contains("Us") { road.num_vertices() } else { social.num_vertices() };
        let mut throughputs = Vec::new();
        for &count in &counts {
            let srcs: Vec<VertexId> = fg_apps::sample_sources(graph_n, count, 71);
            let secs = run(&srcs).max(1e-9);
            throughputs.push(count as f64 / secs);
        }
        let base = throughputs[0].max(1e-9);
        table.push_row(
            std::iter::once(label.to_string()).chain(throughputs.iter().map(|t| fmt_f64(t / base))),
        );
    };

    let ppr = ppr_config();
    run_series("PPR on Lj", &mut |srcs| {
        ForkGraphEngine::new(&pg_social, forkgraph_ppr_config())
            .run_ppr(srcs, &ppr)
            .measurement
            .seconds()
    });
    run_series("DFS on Lj", &mut |srcs| {
        ForkGraphEngine::new(&pg_social, forkgraph_sssp_config())
            .run_dfs(srcs)
            .measurement
            .seconds()
    });
    run_series("RW on Us", &mut |srcs| {
        let config = fg_seq::random_walk::RandomWalkConfig {
            num_walks: 8,
            walk_length: 32,
            restart_prob: 0.0,
            seed: 5,
        };
        ForkGraphEngine::new(&pg_road, forkgraph_sssp_config())
            .run_random_walks(srcs, &config)
            .measurement
            .seconds()
    });
    run_series("SSSP on Us", &mut |srcs| {
        ForkGraphEngine::new(&pg_road, forkgraph_sssp_config()).run_sssp(srcs).measurement.seconds()
    });
    run_series("BFS on Lj", &mut |srcs| {
        ForkGraphEngine::new(&pg_social, forkgraph_sssp_config())
            .run_bfs(srcs)
            .measurement
            .seconds()
    });
    vec![table]
}

// ---------------------------------------------------------------------------
// Figure 16: partition size sweep
// ---------------------------------------------------------------------------

/// Figure 16: execution time of ForkGraph with partition sizes of ¼×, ½×, 1×,
/// 2×, and 4× the simulated LLC, normalised to the 1× setting.
pub fn figure16() -> Vec<Table> {
    let llc_bytes = scaled_llc().capacity_bytes;
    let cases: Vec<(String, CsrGraph, Workload, EngineConfig)> = vec![
        {
            let g = datasets::CA.generate_weighted(ROAD_SCALE);
            let w = Workload::sssp(sources(&g, 8, 81));
            ("LL on Ca".to_string(), g, w, forkgraph_sssp_config())
        },
        {
            let g = datasets::US.generate_weighted(0.03);
            let w = Workload::sssp(sources(&g, 8, 82));
            ("LL on Us".to_string(), g, w, forkgraph_sssp_config())
        },
        {
            let g = datasets::LJ.scaled(0.06);
            let w = Workload::ppr(sources(&g, 8, 83), ppr_config());
            ("NCP on Lj".to_string(), g, w, forkgraph_ppr_config())
        },
        {
            let g = datasets::TW.scaled(0.04);
            let w = Workload::ppr(sources(&g, 8, 84), ppr_config());
            ("NCP on Tw".to_string(), g, w, forkgraph_ppr_config())
        },
    ];
    let mut table = Table::new(
        "Figure 16 — normalised execution time vs partition size (1.0 = LLC-sized)",
        &["workload", "1/4 LLC", "1/2 LLC", "LLC", "2x LLC", "4x LLC"],
    );
    for (label, graph, workload, config) in cases {
        let times: Vec<f64> = [0.25, 0.5, 1.0, 2.0, 4.0]
            .iter()
            .map(|factor| {
                let bytes = ((llc_bytes as f64) * factor) as usize;
                run_forkgraph(&graph, &workload, bytes.max(4096), config, None).seconds()
            })
            .collect();
        let base = times[2].max(1e-9);
        table.push_row(std::iter::once(label).chain(times.iter().map(|t| fmt_f64(t / base))));
    }
    vec![table]
}

// ---------------------------------------------------------------------------
// §C.3: partitioning methods, and Appendix E: atomic-free sanity check
// ---------------------------------------------------------------------------

/// Partition-method comparison (§C.3): execution time and edge cut of
/// ForkGraph under different partitioners.
pub fn partition_methods() -> Vec<Table> {
    let graph = datasets::CA.generate_weighted(ROAD_SCALE);
    let shared = Arc::new(graph.clone());
    let workload = Workload::sssp(sources(&graph, 8, 91));
    let llc_bytes = scaled_llc().capacity_bytes;
    let k = PartitionConfig::llc_sized(llc_bytes).resolve_num_partitions(&graph);
    let mut table = Table::new(
        "Partition methods (LL on Ca-scaled)",
        &["method", "edge cut", "cut ratio", "execution time (s)", "edges processed"],
    );
    for method in PartitionMethod::all() {
        let config = PartitionConfig::with_partitions(method, k);
        let plan = PartitionPlan::compute(&graph, &config);
        let cut = plan.edge_cut(&graph);
        let pg = PartitionedGraph::from_plan(Arc::clone(&shared), plan, config);
        let engine = ForkGraphEngine::new(&pg, forkgraph_sssp_config());
        let start = Instant::now();
        let result = engine.run_sssp(&workload.sources);
        let elapsed = start.elapsed().as_secs_f64();
        table.push_row([
            method.name().to_string(),
            cut.to_string(),
            format!("{:.1}%", cut as f64 / graph.num_edges() as f64 * 100.0),
            fmt_f64(elapsed),
            result.work().edges_processed.to_string(),
        ]);
    }
    vec![table]
}

/// Appendix E: atomic-free (topology-driven) SSSP sanity check against the
/// frontier-based Ligra SSSP and the sequential Dijkstra baseline.
pub fn atomic_free() -> Vec<Table> {
    let graph = Arc::new(datasets::WK.scaled(SOCIAL_SCALE).with_random_weights(10, 3));
    let srcs = sources(&graph, 8, 95);
    let mut table = Table::new(
        "Appendix E — atomic-free SSSP sanity check",
        &["implementation", "execution time (s)", "edges processed"],
    );
    // Atomic-based frontier SSSP (Ligra).
    let workload = Workload::sssp(srcs.clone());
    let ligra = run_baseline(System::Ligra, &graph, &workload, ExecutionScheme::InterQuery, None);
    table.push_row([
        "Ligra frontier (atomic, t=1)".to_string(),
        secs(&ligra),
        ligra.work.edges_processed.to_string(),
    ]);
    // Atomic-free topology-driven SSSP.
    let counters = WorkCounters::new();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let start = Instant::now();
    for &s in &srcs {
        let _ = atomic_free_sssp(&graph, s, cores, &counters);
    }
    let elapsed = start.elapsed().as_secs_f64();
    table.push_row([
        "Atomic-free Bellman-Ford (topology-driven)".to_string(),
        fmt_f64(elapsed),
        counters.snapshot().edges_processed.to_string(),
    ]);
    // Sequential Dijkstra.
    let start = Instant::now();
    let seq_edges: u64 =
        srcs.iter().map(|&s| fg_seq::dijkstra::dijkstra(&graph, s).edges_processed).sum();
    table.push_row([
        "Sequential Dijkstra".to_string(),
        fmt_f64(start.elapsed().as_secs_f64()),
        seq_edges.to_string(),
    ]);
    vec![table]
}

/// Table 2 counterpart: the scaled dataset registry actually used by the
/// harness.
pub fn table2() -> Vec<Table> {
    let mut table = Table::new(
        "Table 2 — scaled synthetic stand-ins for the paper's datasets",
        &["graph", "family", "|V|", "|E|", "avg degree", "size (MiB)"],
    );
    for spec in datasets::all() {
        let g = unweighted(&spec);
        table.push_row([
            spec.name.to_string(),
            format!("{:?}", spec.family),
            g.num_vertices().to_string(),
            g.num_edges().to_string(),
            fmt_f64(g.avg_degree()),
            fmt_f64(g.size_bytes() as f64 / (1024.0 * 1024.0)),
        ]);
    }
    vec![table]
}

/// A named paper-reproduction experiment.
pub type Experiment = (&'static str, fn() -> Vec<Table>);

/// All experiments with their canonical names, in paper order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        ("table1", table1),
        ("figure1", figure1),
        ("table2", table2),
        ("figure8", figure8),
        ("figure9", figure9),
        ("table3", table3),
        ("figure10", figure10),
        ("figure11", figure11),
        ("table4a", table4a),
        ("table4b", table4b),
        ("table4c", table4c),
        ("table5", table5),
        ("figure13", figure13),
        ("figure14", figure14),
        ("figure15", figure15),
        ("figure16", figure16),
        ("partition_methods", partition_methods),
        ("atomic_free", atomic_free),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_registry_is_complete_and_named_uniquely() {
        let experiments = all_experiments();
        assert_eq!(experiments.len(), 18);
        let mut names: Vec<&str> = experiments.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 18);
    }

    #[test]
    fn figure14_column_t_runs_t_worker_threads() {
        for (column, config) in figure14_configs(4).iter().enumerate() {
            assert_eq!(config.num_threads, column + 1);
            assert_eq!(config.yield_policy, forkgraph_ppr_config().yield_policy);
        }
    }

    #[test]
    fn fast_experiments_produce_tables() {
        // Exercise the cheapest experiments end-to-end; the expensive ones are
        // covered by the repro binary run recorded in EXPERIMENTS.md.
        for (name, f) in
            [("figure8", figure8 as fn() -> Vec<Table>), ("table5", table5), ("table2", table2)]
        {
            let tables = f();
            assert!(!tables.is_empty(), "{name}");
            assert!(tables.iter().all(|t| t.num_rows() > 0), "{name}");
        }
    }
}
