//! Property-based tests over randomly generated graphs and FPP batches.
//!
//! Hand-rolled randomized property harness: each property runs `CASES`
//! deterministic trials over seeded random inputs (the build environment has
//! no proptest, and the properties here don't need shrinking — failures print
//! the offending seed, which reproduces the trial exactly).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use forkgraph::prelude::*;
use forkgraph::seq::bellman_ford::bellman_ford;

const CASES: u64 = 24;

/// A random weighted graph over `2..60` vertices with up to 300 edges.
fn arb_graph(rng: &mut SmallRng) -> CsrGraph {
    let n = rng.gen_range(2usize..60);
    let num_edges = rng.gen_range(1usize..300);
    let mut b = GraphBuilder::new(n);
    for _ in 0..num_edges {
        let u = rng.gen_range(0u32..n as u32);
        let v = rng.gen_range(0u32..n as u32);
        let w = rng.gen_range(1u32..10);
        b.add_edge(u, v, w);
    }
    b.build()
}

#[test]
fn partition_plans_cover_every_vertex_exactly_once() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xB0B + case);
        let graph = arb_graph(&mut rng);
        let k = rng.gen_range(1usize..9);
        let methods = PartitionMethod::all();
        let method = methods[rng.gen_range(0..methods.len())];
        let plan = forkgraph::graph::partition::PartitionPlan::compute(
            &graph,
            &PartitionConfig::with_partitions(method, k),
        );
        assert!(plan.validate(&graph), "case {case} method {method:?}");
        assert_eq!(
            plan.partition_sizes().iter().sum::<usize>(),
            graph.num_vertices(),
            "case {case} method {method:?}"
        );
    }
}

#[test]
fn multilevel_partition_plans_are_deterministic() {
    // The default method: same graph, same config, same plan — no tie may
    // depend on a hasher's per-process random keys.
    use forkgraph::graph::gen;
    use forkgraph::graph::partition::PartitionPlan;
    let config = PartitionConfig::with_partitions(PartitionMethod::Multilevel, 24);
    assert_eq!(PartitionConfig::default().method, PartitionMethod::Multilevel);
    for (name, graph) in [("rmat", gen::rmat(13, 8, 42)), ("grid", gen::grid2d(128, 128, 0.0, 1))] {
        let first = PartitionPlan::compute(&graph, &config);
        let second = PartitionPlan::compute(&graph, &config);
        assert!(first == second, "{name}: two Multilevel plans of one graph differ");
    }
}

#[test]
fn forkgraph_sssp_equals_dijkstra_and_bellman_ford() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE + case);
        let graph = arb_graph(&mut rng);
        let k = rng.gen_range(1usize..6);
        let source = rng.gen_range(0u32..graph.num_vertices() as u32);
        let pg = PartitionedGraph::build(
            &graph,
            PartitionConfig::with_partitions(PartitionMethod::Multilevel, k),
        );
        let engine = ForkGraphEngine::new(&pg, EngineConfig::default());
        let fork = engine.run_sssp(&[source]);
        let oracle = dijkstra(&graph, source).dist;
        let (bf, _) = bellman_ford(&graph, source);
        assert_eq!(&fork.per_query[0], &oracle, "case {case}");
        assert_eq!(&oracle, &bf, "case {case}");
    }
}

#[test]
fn forkgraph_bfs_levels_match_sequential_bfs() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xD00D + case);
        let graph = arb_graph(&mut rng);
        let k = rng.gen_range(1usize..6);
        let source = rng.gen_range(0u32..graph.num_vertices() as u32);
        let pg = PartitionedGraph::build(
            &graph,
            PartitionConfig::with_partitions(PartitionMethod::Hash, k),
        );
        let fork = ForkGraphEngine::new(&pg, EngineConfig::default()).run_bfs(&[source]);
        assert_eq!(
            &fork.per_query[0],
            &forkgraph::seq::bfs::bfs(&graph, source).level,
            "case {case}"
        );
    }
}

#[test]
fn ppr_mass_is_conserved_under_partitioned_execution() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xE44 + case);
        let graph = arb_graph(&mut rng);
        let k = rng.gen_range(1usize..5);
        let seed = rng.gen_range(0u32..graph.num_vertices() as u32);
        let pg = PartitionedGraph::build(
            &graph,
            PartitionConfig::with_partitions(PartitionMethod::Multilevel, k),
        );
        let config = forkgraph::seq::ppr::PprConfig { epsilon: 1e-4, ..Default::default() };
        let fork = ForkGraphEngine::new(&pg, EngineConfig::default()).run_ppr(&[seed], &config);
        let mass = fork.per_query[0].total_mass();
        assert!((mass - 1.0).abs() < 1e-6, "case {case}: mass {mass}");
    }
}

#[test]
fn cache_simulator_misses_never_exceed_accesses() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xF00 + case);
        let len = rng.gen_range(1usize..500);
        let addrs: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..100_000)).collect();
        let mut sim = forkgraph::cachesim::CacheSim::new(CacheConfig::tiny(16 * 1024));
        for a in &addrs {
            sim.access(*a, forkgraph::cachesim::AccessKind::Read);
        }
        let stats = sim.stats();
        assert_eq!(stats.accesses, addrs.len() as u64, "case {case}");
        assert!(stats.misses <= stats.accesses, "case {case}");
        assert_eq!(stats.hits + stats.misses, stats.accesses, "case {case}");
        // Distinct lines touched lower-bounds the misses.
        let mut lines: Vec<u64> = addrs.iter().map(|a| a / 64).collect();
        lines.sort_unstable();
        lines.dedup();
        assert!(stats.misses >= lines.len() as u64, "case {case}");
    }
}

#[test]
fn consolidation_preserves_the_operation_multiset() {
    use forkgraph::core::buffer::ConsolidationMethod;
    use forkgraph::core::{Operation, PartitionBuffer};
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xAB5 + case);
        let len = rng.gen_range(0usize..300);
        let ops: Vec<(u32, u32, u64)> = (0..len)
            .map(|_| (rng.gen_range(0u32..16), rng.gen_range(0u32..100), rng.gen_range(0u64..1000)))
            .collect();
        let buckets = rng.gen_range(1usize..16);
        let mut buffer = PartitionBuffer::new(buckets);
        for &(q, v, p) in &ops {
            buffer.push(Operation::new(q, v, p, p));
        }
        assert_eq!(buffer.len(), ops.len(), "case {case}");
        let groups = buffer.drain_consolidated(ConsolidationMethod::Sort);
        let mut drained: Vec<(u32, u32, u64)> = groups
            .iter()
            .flat_map(|(q, list)| list.iter().map(move |op| (*q, op.vertex, op.priority)))
            .collect();
        let mut expected = ops.clone();
        drained.sort_unstable();
        expected.sort_unstable();
        assert_eq!(drained, expected, "case {case}");
    }
}
