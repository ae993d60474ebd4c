//! The experiments of the claim ledger, one per comparison of the paper's
//! evaluation that exact counts can check.
//!
//! Each function returns its tables and its [`Claim`]s as a [`Report`].
//! Every input except Figure 8's worked example is a dataset stand-in of
//! `fg_graph::datasets` at a scale that cuts it into at least
//! [`MIN_PARTITIONS`](crate::claims::MIN_PARTITIONS) partitions of
//! [`repro_llc`]; each claim's verdict checks that
//! count, so an input that shrinks below it reads `not checked`.

use std::sync::Arc;

use fg_baselines::atomic_free::atomic_free_sssp;
use fg_baselines::fpp::QueryKind;
use fg_graph::datasets;
use fg_graph::partition::{PartitionConfig, PartitionMethod, PartitionPlan};
use fg_graph::partitioned::PartitionedGraph;
use fg_graph::{CsrGraph, VertexId};
use fg_metrics::{Measurement, Table, WorkSnapshot};
use fg_seq::ppr::PprConfig;
use fg_seq::random_walk::RandomWalkConfig;
use forkgraph_core::{AblationLevel, EngineConfig, ForkGraphEngine, SchedulingPolicy, YieldPolicy};

use crate::claims::{Claim, Report, Verdict};
use crate::runner::{llc_partitions, repro_llc, run_baseline, run_forkgraph, System, Workload};

// The stand-ins, at scales that cut each into at least MIN_PARTITIONS
// partitions of `repro_llc()`. The count is in each claim's evidence.

fn ca() -> CsrGraph {
    datasets::CA.generate_weighted(1.0)
}

fn us() -> CsrGraph {
    datasets::US.generate_weighted(0.4)
}

fn lj() -> CsrGraph {
    datasets::LJ.scaled(0.25)
}

fn tw() -> CsrGraph {
    datasets::TW.scaled(0.125)
}

fn wk() -> CsrGraph {
    datasets::WK.scaled(0.5).with_random_weights(10, 3)
}

fn sources(graph: &CsrGraph, count: usize, seed: u64) -> Vec<VertexId> {
    fg_apps::sample_sources(graph.num_vertices(), count, seed)
}

fn ppr_config() -> PprConfig {
    PprConfig { epsilon: 1e-4, ..Default::default() }
}

/// `name count, name count, …`: the exact numbers of a claim's evidence.
fn listing<'a>(counts: impl IntoIterator<Item = (&'a str, u64)>) -> String {
    counts.into_iter().map(|(name, count)| format!("{name} {count}")).collect::<Vec<_>>().join(", ")
}

// ---------------------------------------------------------------------------
// Figure 8: scheduling-policy worked example
// ---------------------------------------------------------------------------

/// Figure 8: operations processed under the four scheduling methods for two
/// SSSP queries on a small road-like graph in four partitions, the paper's
/// worked example. Priority scheduling should process the fewest.
pub fn figure8() -> Report {
    let graph = datasets::CA.generate_weighted(0.02);
    let pg = PartitionedGraph::build(
        &graph,
        PartitionConfig::with_partitions(PartitionMethod::Multilevel, 4),
    );
    let srcs = sources(&graph, 2, 8);
    let mut table = Table::new(
        "Figure 8 — operations processed under different scheduling methods (2 SSSP queries, one worker)",
        &["scheduling", "operations processed", "partition visits"],
    );
    let mut ops = Vec::new();
    for policy in SchedulingPolicy::all() {
        let config = EngineConfig::default()
            .with_threads(1)
            .with_scheduling(policy)
            .with_yield_policy(YieldPolicy::None);
        let work = ForkGraphEngine::new(&pg, config).run_sssp(&srcs).measurement.work;
        table.push_row([
            policy.name().to_string(),
            work.operations_processed.to_string(),
            work.partition_visits.to_string(),
        ]);
        ops.push((policy.name(), work.operations_processed));
    }
    let priority = ops
        .iter()
        .find(|(name, _)| *name == SchedulingPolicy::Priority.name())
        .expect("priority is one of the policies")
        .1;
    let claim = Claim {
        id: "figure8".to_string(),
        reference: "Fig. 8",
        statement: "priority scheduling processes no more operations than fifo, max-operations or \
                    random (2 SSSP on Ca@0.02, 4 multilevel partitions)"
            .to_string(),
        evidence: listing(ops.iter().copied()),
        verdict: Verdict::of(ops.iter().all(|&(_, count)| priority <= count)),
    };
    Report { tables: vec![table], claims: vec![claim] }
}

// ---------------------------------------------------------------------------
// Figures 10 and 11: LL on road graphs, NCP on social graphs
// ---------------------------------------------------------------------------

/// One application on one stand-in.
struct Case {
    /// Claim-id suffix, e.g. `"ll-ca"`.
    id: &'static str,
    /// Row label, e.g. `"LL on Ca"`.
    label: &'static str,
    graph: Arc<CsrGraph>,
    workload: Workload,
}

/// Figures 10 and 11's four cases: LL (a batch of SSSPs) on the two road
/// stand-ins, NCP (a batch of PPRs) on two social ones.
fn cases() -> Vec<Case> {
    let sssp = |id, label, graph: CsrGraph, seed| {
        let workload = Workload::sssp(sources(&graph, 8, seed));
        Case { id, label, graph: Arc::new(graph), workload }
    };
    let ppr = |id, label, graph: CsrGraph, seed| {
        let workload = Workload::ppr(sources(&graph, 8, seed), ppr_config());
        Case { id, label, graph: Arc::new(graph), workload }
    };
    vec![
        sssp("ll-ca", "LL on Ca", ca(), 21),
        sssp("ll-us", "LL on Us", us(), 22),
        ppr("ncp-lj", "NCP on Lj", lj(), 23),
        ppr("ncp-tw", "NCP on Tw", tw(), 24),
    ]
}

/// The edges the best sequential algorithm processes for `case`'s queries.
fn sequential_edges(case: &Case) -> u64 {
    let graph = &case.graph;
    case.workload
        .sources
        .iter()
        .map(|&s| match &case.workload.kind {
            QueryKind::Sssp => fg_seq::dijkstra::dijkstra(graph, s).edges_processed,
            QueryKind::Bfs => fg_seq::bfs::bfs(graph, s).edges_processed,
            QueryKind::Ppr(c) => fg_seq::ppr::ppr_push(graph, s, c).edges_processed,
        })
        .sum()
}

/// Figure 10: simulated LLC misses (a) and edges processed (b) of ForkGraph
/// against each GPS baseline, plus the sequential algorithm's edges. Every
/// run is single-threaded and simulates [`repro_llc`].
pub fn figure10() -> Report {
    let llc = repro_llc();
    let headers = ["workload", "partitions", "Ligra", "Gemini", "ForkGraph", "Sequential"];
    let mut miss_table = Table::new(
        "Figure 10a — simulated LLC misses (single-threaded baselines, one-worker ForkGraph)",
        &headers[..5],
    );
    let mut edge_table = Table::new("Figure 10b — edges processed", &headers);
    let mut miss_claims = Vec::new();
    let mut edge_claims = Vec::new();
    for case in cases() {
        let k = llc_partitions(&case.graph);
        let runs: Vec<(&str, Measurement)> = System::baselines()
            .iter()
            .map(|&s| (s.name(), run_baseline(s, &case.graph, &case.workload, Some(llc))))
            .chain([(
                "ForkGraph",
                run_forkgraph(&case.graph, &case.workload, EngineConfig::default(), Some(llc)),
            )])
            .collect();
        let misses: Vec<(&str, u64)> = runs
            .iter()
            .map(|(name, m)| (*name, m.cache.expect("an instrumented run").misses))
            .collect();
        let edges: Vec<(&str, u64)> =
            runs.iter().map(|(name, m)| (*name, m.work.edges_processed)).collect();
        let cells = |counts: &[(&str, u64)]| {
            [case.label.to_string(), k.to_string()]
                .into_iter()
                .chain(counts.iter().map(|(_, count)| count.to_string()))
                .collect::<Vec<_>>()
        };
        miss_table.push_row(cells(&misses));
        edge_table.push_row(cells(&edges).into_iter().chain([sequential_edges(&case).to_string()]));
        // ForkGraph is the last run; it must be below every baseline.
        let below_each = |counts: &[(&str, u64)]| {
            let (baselines, fork) = counts.split_at(counts.len() - 1);
            baselines.iter().all(|&(_, count)| fork[0].1 < count)
        };
        miss_claims.push(Claim {
            id: format!("figure10a-{}", case.id),
            reference: "Fig. 10a",
            statement: format!(
                "ForkGraph's simulated LLC misses are below each GPS baseline's ({})",
                case.label
            ),
            evidence: format!("k={k}: {}", listing(misses.iter().copied())),
            verdict: Verdict::on_partitions(k, below_each(&misses)),
        });
        edge_claims.push(Claim {
            id: format!("figure10b-{}", case.id),
            reference: "Fig. 10b",
            statement: format!(
                "ForkGraph processes fewer edges than each GPS baseline ({})",
                case.label
            ),
            evidence: format!("k={k}: {}", listing(edges.iter().copied())),
            verdict: Verdict::on_partitions(k, below_each(&edges)),
        });
    }
    miss_claims.extend(edge_claims);
    Report { tables: vec![miss_table, edge_table], claims: miss_claims }
}

/// Figure 11, on work: edges ForkGraph processes as its optimisations are
/// enabled cumulatively (+buffer, +consolidation, +priority scheduling,
/// +yielding). Each level should process no more edges than the one before.
pub fn figure11() -> Report {
    let levels = AblationLevel::all();
    let mut headers = vec!["workload", "partitions"];
    headers.extend(levels.iter().map(|level| level.label()));
    let mut table = Table::new(
        "Figure 11 — edges processed with cumulative optimisations (one worker)",
        &headers,
    );
    let mut claims = Vec::new();
    for case in cases() {
        let k = llc_partitions(&case.graph);
        let edges: Vec<(&str, u64)> = levels
            .iter()
            .map(|&level| {
                let config = EngineConfig::for_ablation(level);
                let m = run_forkgraph(&case.graph, &case.workload, config, None);
                (level.label(), m.work.edges_processed)
            })
            .collect();
        table.push_row(
            [case.label.to_string(), k.to_string()]
                .into_iter()
                .chain(edges.iter().map(|(_, count)| count.to_string())),
        );
        claims.push(Claim {
            id: format!("figure11-{}", case.id),
            reference: "Fig. 11",
            statement: format!(
                "each cumulative optimisation processes no more edges than the level before it ({})",
                case.label
            ),
            evidence: format!("k={k}: {}", listing(edges.iter().copied())),
            verdict: Verdict::on_partitions(k, edges.windows(2).all(|w| w[1].1 <= w[0].1)),
        });
    }
    Report { tables: vec![table], claims }
}

// ---------------------------------------------------------------------------
// Figure 15: sharing partition loads among more queries
// ---------------------------------------------------------------------------

/// Figure 15's premise: partition visits per query fall as the number of
/// queries grows, for five query types. Each shared visit serves every query
/// with work in that partition, which is where the paper's throughput gain
/// comes from.
pub fn figure15() -> Report {
    let counts = [1usize, 4, 16, 64];
    let mut headers = vec!["query type".to_string(), "partitions".to_string()];
    headers.extend(counts.iter().map(|c| format!("|Q|={c}")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Figure 15 — partition visits (per query) vs number of queries (one worker)",
        &header_refs,
    );

    let social = lj();
    let road = us();
    let llc = repro_llc().capacity_bytes;
    let pg_social = PartitionedGraph::build(&social, PartitionConfig::llc_sized(llc));
    let pg_road = PartitionedGraph::build(&road, PartitionConfig::llc_sized(llc));
    let walks = RandomWalkConfig { num_walks: 8, walk_length: 32, restart_prob: 0.0, seed: 5 };
    let ppr = ppr_config();
    let one_worker = EngineConfig::default().with_threads(1);

    type Run<'a> = Box<dyn Fn(&[VertexId]) -> Measurement + 'a>;
    let series: [(&str, &str, &PartitionedGraph, Run); 5] = [
        ("ppr-lj", "PPR on Lj", &pg_social, {
            let engine = ForkGraphEngine::new(&pg_social, one_worker);
            Box::new(move |srcs| engine.run_ppr(srcs, &ppr).measurement)
        }),
        ("dfs-lj", "DFS on Lj", &pg_social, {
            let engine = ForkGraphEngine::new(&pg_social, one_worker);
            Box::new(move |srcs| engine.run_dfs(srcs).measurement)
        }),
        ("rw-us", "RW on Us", &pg_road, {
            let engine = ForkGraphEngine::new(&pg_road, one_worker);
            Box::new(move |srcs| engine.run_random_walks(srcs, &walks).measurement)
        }),
        ("sssp-us", "SSSP on Us", &pg_road, {
            let engine = ForkGraphEngine::new(&pg_road, one_worker);
            Box::new(move |srcs| engine.run_sssp(srcs).measurement)
        }),
        ("bfs-lj", "BFS on Lj", &pg_social, {
            let engine = ForkGraphEngine::new(&pg_social, one_worker);
            Box::new(move |srcs| engine.run_bfs(srcs).measurement)
        }),
    ];

    let mut claims = Vec::new();
    for (id, label, pg, run) in series {
        let k = pg.num_partitions();
        let visits: Vec<u64> = counts
            .iter()
            .map(|&count| {
                let srcs = sources(pg.graph(), count, 71);
                run(&srcs).work.partition_visits
            })
            .collect();
        let per_query: Vec<String> = visits
            .iter()
            .zip(counts)
            .map(|(&v, q)| format!("{:.2}", v as f64 / q as f64))
            .collect();
        table.push_row(
            [label.to_string(), k.to_string()]
                .into_iter()
                .chain(visits.iter().zip(&per_query).map(|(v, pq)| format!("{v} ({pq})"))),
        );
        // visits[i] / q[i] < visits[i - 1] / q[i - 1], compared exactly.
        let falls = (1..counts.len())
            .all(|i| visits[i] * (counts[i - 1] as u64) < visits[i - 1] * (counts[i] as u64));
        claims.push(Claim {
            id: format!("figure15-{id}"),
            reference: "Fig. 15",
            statement: format!(
                "partition visits per query fall as |Q| goes 1 → 4 → 16 → 64 ({label})"
            ),
            evidence: format!("k={k}: {}", per_query.join(" → ")),
            verdict: Verdict::on_partitions(k, falls),
        });
    }
    Report { tables: vec![table], claims }
}

// ---------------------------------------------------------------------------
// §C.3: partitioning methods, and Appendix E: atomic-free SSSP
// ---------------------------------------------------------------------------

/// Partition-method comparison (§C.3): the edge cut of each partitioner at
/// the LLC-sized partition count. Multilevel should cut the fewest edges.
pub fn partition_methods() -> Report {
    let graph = ca();
    let k = llc_partitions(&graph);
    let mut table = Table::new(
        format!("Partition methods — edge cut on Ca at k={k}"),
        &["method", "edge cut", "cut ratio"],
    );
    let mut cuts = Vec::new();
    for method in PartitionMethod::all() {
        let plan = PartitionPlan::compute(&graph, &PartitionConfig::with_partitions(method, k));
        let cut = plan.edge_cut(&graph);
        table.push_row([
            method.name().to_string(),
            cut.to_string(),
            format!("{:.1}%", cut as f64 / graph.num_edges() as f64 * 100.0),
        ]);
        cuts.push((method, cut));
    }
    let cut_of = |m: PartitionMethod| {
        cuts.iter().find(|(method, _)| *method == m).expect("every method was run").1
    };
    let multilevel = cut_of(PartitionMethod::Multilevel);
    let claim = Claim {
        id: "partition_methods".to_string(),
        reference: "§C.3",
        statement: "multilevel partitioning cuts fewer edges than chunked and hash (Ca)"
            .to_string(),
        evidence: format!(
            "k={k}: {}",
            listing(cuts.iter().map(|(method, cut)| (method.name(), *cut as u64)))
        ),
        verdict: Verdict::on_partitions(
            k,
            multilevel < cut_of(PartitionMethod::Chunked)
                && multilevel < cut_of(PartitionMethod::Hash),
        ),
    };
    Report { tables: vec![table], claims: vec![claim] }
}

/// Appendix E: the atomic-free, topology-driven SSSP (one thread) against
/// Ligra's frontier SSSP and sequential Dijkstra. Scanning every vertex each
/// round, the atomic-free version should process more edges than Ligra's.
pub fn atomic_free() -> Report {
    let graph = Arc::new(wk());
    let k = llc_partitions(&graph);
    let srcs = sources(&graph, 8, 95);
    let ligra = run_baseline(System::Ligra, &graph, &Workload::sssp(srcs.clone()), None);
    let mut atomic_free = WorkSnapshot::default();
    for &s in &srcs {
        let _ = atomic_free_sssp(&graph, s, &mut atomic_free);
    }
    let edges = [
        ("Ligra frontier", ligra.work.edges_processed),
        ("atomic-free", atomic_free.edges_processed),
        (
            "Dijkstra",
            srcs.iter().map(|&s| fg_seq::dijkstra::dijkstra(&graph, s).edges_processed).sum(),
        ),
    ];
    let mut table = Table::new(
        format!("Appendix E — atomic-free SSSP sanity check (8 SSSP on Wk, k={k})"),
        &["implementation", "edges processed"],
    );
    for (name, count) in edges {
        table.push_row([name.to_string(), count.to_string()]);
    }
    let claim = Claim {
        id: "atomic_free".to_string(),
        reference: "App. E",
        statement: "the atomic-free topology-driven SSSP processes more edges than Ligra's \
                    frontier SSSP (8 SSSP on Wk, one thread)"
            .to_string(),
        evidence: format!("k={k}: {}", listing(edges)),
        verdict: Verdict::on_partitions(k, edges[1].1 > edges[0].1),
    };
    Report { tables: vec![table], claims: vec![claim] }
}

/// A named experiment.
pub type Experiment = (&'static str, fn() -> Report);

/// All experiments with their canonical names, in paper order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        ("figure8", figure8),
        ("figure10", figure10),
        ("figure11", figure11),
        ("figure15", figure15),
        ("partition_methods", partition_methods),
        ("atomic_free", atomic_free),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::claims::{claim_table, data_rows, readme_section, README};

    #[test]
    fn experiment_registry_is_named_uniquely() {
        let names: Vec<&str> = all_experiments().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            ["figure8", "figure10", "figure11", "figure15", "partition_methods", "atomic_free"]
        );
    }

    #[test]
    fn figure8_and_partition_methods_claims_match_readme() {
        let section = readme_section(README).expect("README has a claim section");
        let readme_rows: Vec<&str> = data_rows(section).collect();
        for report in [figure8(), partition_methods()] {
            assert!(report.tables.iter().all(|t| t.num_rows() > 0));
            let md = claim_table(&report.claims).to_markdown();
            for row in data_rows(&md) {
                assert!(readme_rows.contains(&row), "README's claim table lacks\n{row}");
            }
        }
    }
}
