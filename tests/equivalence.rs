//! Cross-crate integration tests: every engine (ForkGraph and the baseline
//! GPS reimplementations) must produce identical (or, for PPR, ε-close)
//! results on the same FPP batches.

use std::sync::Arc;

use forkgraph::baselines::fpp::{ExecutionScheme, FppDriver, FppResult, QueryKind};
use forkgraph::baselines::{GeminiEngine, GpsEngine, LigraEngine};
use forkgraph::prelude::*;
use forkgraph::seq::ppr::PprConfig;

fn weighted_social_graph() -> CsrGraph {
    forkgraph::graph::datasets::WK.scaled(0.15).with_random_weights(10, 3)
}

fn road_graph() -> CsrGraph {
    forkgraph::graph::datasets::CA.generate_weighted(0.05)
}

/// Every threading scheme of Table 1.
const SCHEMES: [ExecutionScheme; 2] =
    [ExecutionScheme::SingleThreaded, ExecutionScheme::InterQuery];

/// `engine`'s batch of `kind` queries from `sources` under every scheme.
/// Each query keeps its own work tally, so spreading the queries over
/// threads must not move a count: every scheme reports the same work.
fn under_every_scheme<E: GpsEngine>(
    engine: E,
    graph: &Arc<CsrGraph>,
    kind: &QueryKind,
    sources: &[VertexId],
) -> Vec<(ExecutionScheme, FppResult)> {
    let driver = FppDriver::new(engine, Arc::clone(graph));
    let runs: Vec<_> = SCHEMES.iter().map(|&s| (s, driver.run(kind, sources, s))).collect();
    let counts = |result: &FppResult| {
        let work = &result.measurement.work;
        (work.edges_processed, work.operations_processed, work.iterations, work.queries_completed)
    };
    let single = counts(&runs[0].1);
    assert_eq!(single.3, sources.len() as u64, "{}", runs[0].1.measurement.label);
    for (_, result) in &runs[1..] {
        assert_eq!(counts(result), single, "{}", result.measurement.label);
    }
    runs
}

fn partitioned(graph: &CsrGraph, parts: usize) -> PartitionedGraph {
    PartitionedGraph::build(
        graph,
        PartitionConfig::with_partitions(PartitionMethod::Multilevel, parts),
    )
}

#[test]
fn sssp_results_agree_across_all_engines() {
    for graph in [weighted_social_graph(), road_graph()] {
        let shared = Arc::new(graph.clone());
        let sources: Vec<VertexId> =
            (0..6u32).map(|i| (i * 211) % graph.num_vertices() as u32).collect();
        let oracle: Vec<Vec<_>> = sources.iter().map(|&s| dijkstra(&graph, s).dist).collect();

        // ForkGraph.
        let pg = partitioned(&graph, 8);
        let fork = ForkGraphEngine::new(&pg, EngineConfig::default()).run_sssp(&sources);
        assert_eq!(fork.per_query, oracle, "ForkGraph");

        // Baselines under every threading scheme.
        let baselines = [
            under_every_scheme(LigraEngine::new(), &shared, &QueryKind::Sssp, &sources),
            under_every_scheme(GeminiEngine::new(), &shared, &QueryKind::Sssp, &sources),
        ];
        for (scheme, result) in baselines.iter().flatten() {
            for (out, expected) in result.outputs.iter().zip(oracle.iter()) {
                let label = &result.measurement.label;
                assert_eq!(out.as_sssp().unwrap(), expected.as_slice(), "{label} {scheme:?}");
            }
        }
    }
}

#[test]
fn bfs_results_agree_across_all_engines() {
    let graph = forkgraph::graph::datasets::LJ.scaled(0.1);
    let shared = Arc::new(graph.clone());
    let sources: Vec<VertexId> = vec![0, 17, 99, 1234 % graph.num_vertices() as u32];
    let oracle: Vec<Vec<u32>> =
        sources.iter().map(|&s| forkgraph::seq::bfs::bfs(&graph, s).level).collect();

    let pg = partitioned(&graph, 6);
    let fork = ForkGraphEngine::new(&pg, EngineConfig::default()).run_bfs(&sources);
    assert_eq!(fork.per_query, oracle);

    let baselines = [
        under_every_scheme(LigraEngine::new(), &shared, &QueryKind::Bfs, &sources),
        under_every_scheme(GeminiEngine::new(), &shared, &QueryKind::Bfs, &sources),
    ];
    for (scheme, result) in baselines.iter().flatten() {
        for (out, expected) in result.outputs.iter().zip(oracle.iter()) {
            let label = &result.measurement.label;
            assert_eq!(out.as_bfs().unwrap(), expected.as_slice(), "{label} {scheme:?}");
        }
    }
}

#[test]
fn ppr_results_are_epsilon_close_across_engines() {
    let graph = forkgraph::graph::datasets::OR.scaled(0.1);
    let shared = Arc::new(graph.clone());
    let seeds: Vec<VertexId> = vec![1, 64, 333 % graph.num_vertices() as u32];
    let config = PprConfig { epsilon: 1e-5, ..Default::default() };
    let reference: Vec<Vec<f64>> = seeds
        .iter()
        .map(|&s| forkgraph::seq::ppr::ppr_push(&graph, s, &config).dense(graph.num_vertices()))
        .collect();

    let check_close = |dense: &[f64], expected: &[f64], label: &str| {
        let l1: f64 = dense.iter().zip(expected.iter()).map(|(a, b)| (a - b).abs()).sum();
        assert!(l1 < 0.05, "{label}: l1 distance {l1}");
    };

    let pg = partitioned(&graph, 6);
    let fork = ForkGraphEngine::new(&pg, EngineConfig::default()).run_ppr(&seeds, &config);
    for (state, expected) in fork.per_query.iter().zip(reference.iter()) {
        check_close(&state.estimate, expected, "ForkGraph");
    }

    let kind = QueryKind::Ppr(config);
    let baselines = [
        under_every_scheme(LigraEngine::new(), &shared, &kind, &seeds),
        under_every_scheme(GeminiEngine::new(), &shared, &kind, &seeds),
    ];
    for (scheme, result) in baselines.iter().flatten() {
        for (out, expected) in result.outputs.iter().zip(reference.iter()) {
            let mut dense = vec![0.0; graph.num_vertices()];
            for &(v, p) in out.as_ppr().unwrap() {
                dense[v as usize] = p;
            }
            check_close(&dense, expected, &format!("{} {scheme:?}", result.measurement.label));
        }
    }
}

#[test]
fn forkgraph_is_cache_efficient_compared_to_inter_query_baselines() {
    // The core claim (Finding 2 / Figure 10a): with the same simulated LLC,
    // ForkGraph's partition-at-a-time processing is more cache efficient than a
    // baseline running the batch with uncoordinated inter-query parallelism.
    // On this 2-core container only two baseline queries are in flight at a
    // time (the paper's machine keeps 10), so absolute miss counts are muted;
    // the reproducible quantity at this scale is the miss *ratio*: the
    // fraction of accesses that fall out of the shared LLC while traversing a
    // graph that does not fit it.
    let graph = forkgraph::graph::datasets::LJ.scaled(0.25);
    let llc = CacheConfig { capacity_bytes: 128 * 1024, line_bytes: 64, associativity: 16 };
    let sources: Vec<VertexId> =
        (0..24u32).map(|i| (i * 131) % graph.num_vertices() as u32).collect();

    let driver = FppDriver::new(LigraEngine::new(), Arc::new(graph.clone())).with_cache(llc);
    let baseline = driver.run(&QueryKind::Bfs, &sources, ExecutionScheme::InterQuery);
    let baseline_cache = baseline.measurement.cache.unwrap();

    let pg = PartitionedGraph::build(&graph, PartitionConfig::llc_sized(llc.capacity_bytes));
    let fork = ForkGraphEngine::new(&pg, EngineConfig::default().with_cache(llc)).run_bfs(&sources);
    let fork_cache = fork.measurement.cache.unwrap();

    assert!(
        fork_cache.miss_ratio() < baseline_cache.miss_ratio() * 0.7,
        "ForkGraph should have a substantially lower LLC miss ratio: {:.3} vs {:.3}",
        fork_cache.miss_ratio(),
        baseline_cache.miss_ratio()
    );
    // And the results still agree.
    let oracle = forkgraph::seq::bfs::bfs(&graph, sources[0]).level;
    assert_eq!(fork.per_query[0], oracle);
    assert_eq!(baseline.outputs[0].as_bfs().unwrap(), oracle.as_slice());
}

#[test]
fn forkgraph_work_stays_within_constant_factor_of_sequential() {
    // Theorem A.3 / Finding 2: work within a (small) constant factor of the
    // fastest sequential algorithm; the paper measures 5.2-16.7x for BC/LL.
    let graph = road_graph();
    let pg = PartitionedGraph::build(&graph, PartitionConfig::llc_sized(96 * 1024));
    let sources: Vec<VertexId> =
        (0..8u32).map(|i| (i * 401) % graph.num_vertices() as u32).collect();
    let fork = ForkGraphEngine::new(&pg, EngineConfig::default()).run_sssp(&sources);
    let sequential: u64 = sources.iter().map(|&s| dijkstra(&graph, s).edges_processed).sum();
    let ratio = fork.work().edges_processed as f64 / sequential as f64;
    assert!(ratio < 30.0, "work ratio {ratio} exceeds the constant-factor bound");
}

#[test]
fn ablation_levels_preserve_correctness_and_reduce_work_cumulatively() {
    let graph = road_graph();
    let pg = partitioned(&graph, 8);
    let sources: Vec<VertexId> =
        (0..5u32).map(|i| (i * 643) % graph.num_vertices() as u32).collect();
    let oracle: Vec<Vec<_>> = sources.iter().map(|&s| dijkstra(&graph, s).dist).collect();
    let mut edges = Vec::new();
    for level in forkgraph::core::AblationLevel::all() {
        let result = ForkGraphEngine::new(&pg, forkgraph::core::EngineConfig::for_ablation(level))
            .run_sssp(&sources);
        assert_eq!(result.per_query, oracle, "{level:?}");
        edges.push(result.work().edges_processed);
    }
    // The fully optimised configuration must not do more work than the
    // buffer-only configuration.
    assert!(edges[3] <= edges[0], "full {} vs buffer-only {}", edges[3], edges[0]);
}

#[test]
fn applications_run_end_to_end_on_forkgraph() {
    use forkgraph::prelude::{BetweennessCentrality, LandmarkLabeling, NetworkCommunityProfile};
    let graph = forkgraph::graph::datasets::WK.scaled(0.1).with_random_weights(10, 9);
    let pg = PartitionedGraph::build(&graph, PartitionConfig::llc_sized(128 * 1024));

    let bc = BetweennessCentrality::new(8, 1).run_forkgraph(&pg, EngineConfig::default());
    assert_eq!(bc.centrality.len(), graph.num_vertices());
    assert!(bc.centrality.iter().any(|&c| c > 0.0));

    let ll = LandmarkLabeling::new(8, 2).run_forkgraph(&pg, EngineConfig::default());
    assert_eq!(ll.index.distances.len(), 8);

    let ncp_app = NetworkCommunityProfile::new(0.002, 3);
    let ncp = ncp_app.run_forkgraph(&pg, EngineConfig::default());
    assert!(!ncp.profile.is_empty());
    assert!(ncp.best_conductance() <= 1.0);
}
