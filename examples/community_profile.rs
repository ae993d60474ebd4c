//! Network community profile (NCP): launch a batch of personalized PageRank
//! queries from random seeds and sweep them for the best-conductance clusters,
//! reproducing the NCP workload of the paper at laptop scale.
//!
//! Run with: `cargo run --release --example community_profile`

use forkgraph::apps::ncp::NetworkCommunityProfile;
use forkgraph::prelude::*;
use forkgraph::seq::ppr::PprConfig;

fn main() {
    // A scaled stand-in for the Orkut social network.
    let graph = forkgraph::graph::datasets::OR.scaled(0.3);
    println!("social network: {} vertices, {} edges", graph.num_vertices(), graph.num_edges());

    let partitioned = PartitionedGraph::build(&graph, PartitionConfig::llc_sized(256 * 1024));

    // Seed PPR at 0.5% of the vertices (scaled up from the paper's 0.01% so
    // the scaled graph still yields a meaningful profile).
    let app = NetworkCommunityProfile::new(0.005, 11)
        .with_ppr(PprConfig { epsilon: 1e-4, ..Default::default() });
    let result = app.run_forkgraph(&partitioned, EngineConfig::default());

    println!(
        "{} PPR seeds processed in {:.2?} ({} operations, {} partition visits)",
        result.seeds.len(),
        result.measurement.wall_time,
        result.measurement.work.operations_processed,
        result.measurement.work.partition_visits
    );
    println!("network community profile (best conductance per cluster size):");
    for point in &result.profile {
        println!("  size >= {:>6}: conductance {:.4}", point.size, point.conductance);
    }
    println!("best overall conductance: {:.4}", result.best_conductance());
}
