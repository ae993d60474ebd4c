//! SSSP and BFS on edge weights outside the generators' `1..=9`.
//!
//! A lane's own pushes go through its worker's bucket queue: a ring of 64
//! priorities above the turn's frontier plus a heap for the rest. Weights of
//! 1..=9 keep every SSSP push in the ring and strictly above the slot being
//! drained; here zero-weight edges push into the slot being drained, and
//! weights of 64 and more overflow the ring. Every answer must still be
//! byte-identical to `fg-seq`'s Dijkstra and BFS, on one worker and on a
//! crew of two, with and without yields.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use fg_graph::partition::{PartitionConfig, PartitionMethod};
use fg_graph::partitioned::PartitionedGraph;
use fg_graph::{gen, CsrGraph, Dist, GraphBuilder, Weight};
use fg_seq::bfs::bfs;
use fg_seq::dijkstra::dijkstra;
use forkgraph_core::{EngineConfig, ForkGraphEngine, YieldPolicy};

/// `graph`'s edges with weights drawn from 0..=200: a quarter zero, a
/// quarter in 1..64, half in 64..=200.
fn reweighted(graph: &CsrGraph, seed: u64) -> CsrGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(graph.num_vertices());
    for (u, v, _) in graph.edges() {
        let w: Weight = match rng.gen_range(0u32..4) {
            0 => 0,
            1 => rng.gen_range(1..64),
            _ => rng.gen_range(64..=200),
        };
        builder.add_edge(u, v, w);
    }
    builder.build()
}

fn check(name: &str, graph: &CsrGraph, sources: &[u32]) {
    let distances: Vec<Vec<Dist>> = sources.iter().map(|&s| dijkstra(graph, s).dist).collect();
    let levels: Vec<Vec<u32>> = sources.iter().map(|&s| bfs(graph, s).level).collect();

    // On one partition every push is the lane's own, so each query runs
    // through the worker's queue alone: popped in priority order, every
    // vertex is expanded once, at its final distance, as by Dijkstra.
    let whole = PartitionedGraph::build(
        graph,
        PartitionConfig::with_partitions(PartitionMethod::Chunked, 1),
    );
    let sssp = ForkGraphEngine::new(&whole, EngineConfig::default()).run_sssp(sources);
    assert_eq!(sssp.per_query, distances, "{name} SSSP on one partition");
    let expanded: u64 = sources.iter().map(|&s| dijkstra(graph, s).edges_processed).sum();
    assert_eq!(sssp.work().edges_processed, expanded, "{name}: a vertex expanded twice");

    let pg = PartitionedGraph::build(
        graph,
        PartitionConfig::with_partitions(PartitionMethod::Chunked, 6),
    );
    assert!(pg.num_partitions() >= 4, "{name}: {} partitions", pg.num_partitions());
    for yield_policy in [YieldPolicy::None, YieldPolicy::default()] {
        for workers in [1, 2] {
            let config =
                EngineConfig::default().with_yield_policy(yield_policy).with_threads(workers);
            let engine = ForkGraphEngine::new(&pg, config);
            let sssp = engine.run_sssp(sources);
            assert_eq!(sssp.per_query, distances, "{name} SSSP {yield_policy:?} {workers} workers");
            if yield_policy == YieldPolicy::None {
                assert_eq!(sssp.work().yields, 0);
            } else {
                // Yields cut the queue partway; its leftovers must survive.
                assert!(sssp.work().yields > 0, "{name}: the budget never ran out");
            }
            let levels_run = engine.run_bfs(sources);
            assert_eq!(
                levels_run.per_query, levels,
                "{name} BFS {yield_policy:?} {workers} workers"
            );
        }
    }
}

#[test]
fn sssp_and_bfs_on_zero_and_wide_weights_equal_the_sequential_oracles() {
    let rmat = reweighted(&gen::rmat(10, 6, 5), 11);
    check("R-MAT", &rmat, &[0, 3, 97, 512, 1000]);
    let lattice = reweighted(&gen::grid2d(40, 40, 0.01, 5), 12);
    check("lattice", &lattice, &[0, 820, 1599]);
}
