//! Multi-source BFS with cache simulation: runs the same FPP batch through a
//! baseline engine under inter-query parallelism and through ForkGraph, and
//! prints the simulated LLC miss counts side by side — the core claim of the
//! paper (Figure 10a) in miniature.
//!
//! Run with: `cargo run --release --example multi_source_bfs`

use std::sync::Arc;

use forkgraph::baselines::fpp::QueryKind;
use forkgraph::baselines::{FppDriver, GeminiEngine, LigraEngine};
use forkgraph::prelude::*;

fn main() {
    let graph = forkgraph::graph::datasets::LJ.scaled(0.25);
    let shared = Arc::new(graph.clone());
    println!("graph: {} vertices, {} edges", graph.num_vertices(), graph.num_edges());

    // A small simulated LLC so the scaled graph does not fit.
    let llc = CacheConfig { capacity_bytes: 128 * 1024, line_bytes: 64, associativity: 16 };
    let sources: Vec<VertexId> =
        (0..24u32).map(|i| i * 131 % graph.num_vertices() as u32).collect();

    println!("{:<22} {:>14} {:>14} {:>10}", "system", "LLC loads", "LLC misses", "miss %");

    for (label, result) in [
        (
            "Ligra (t=1)",
            FppDriver::new(LigraEngine::new(), Arc::clone(&shared)).with_cache(llc).run(
                &QueryKind::Bfs,
                &sources,
                ExecutionScheme::InterQuery,
            ),
        ),
        (
            "Gemini (t=1)",
            FppDriver::new(GeminiEngine::new(), Arc::clone(&shared)).with_cache(llc).run(
                &QueryKind::Bfs,
                &sources,
                ExecutionScheme::InterQuery,
            ),
        ),
    ] {
        let cache = result.measurement.cache.unwrap();
        println!(
            "{:<22} {:>14} {:>14} {:>9.1}%",
            label,
            cache.loads,
            cache.misses,
            cache.miss_ratio() * 100.0
        );
    }

    // ForkGraph over LLC-sized partitions with the same simulated cache.
    let partitioned =
        PartitionedGraph::build(&graph, PartitionConfig::llc_sized(llc.capacity_bytes));
    let engine = ForkGraphEngine::new(&partitioned, EngineConfig::default().with_cache(llc));
    let fork = engine.run_bfs(&sources);
    let cache = fork.measurement.cache.unwrap();
    println!(
        "{:<22} {:>14} {:>14} {:>9.1}%",
        "ForkGraph",
        cache.loads,
        cache.misses,
        cache.miss_ratio() * 100.0
    );
    println!(
        "({} partitions, {} partition visits)",
        partitioned.num_partitions(),
        fork.work().partition_visits
    );
}
