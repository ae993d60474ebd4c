//! # fg-apps
//!
//! The FPP-based graph applications evaluated in the paper:
//!
//! * [`bc`] — **Betweenness centrality** (approximate, Brandes with sampled
//!   sources): launches a batch of SSSP/BFS queries and accumulates
//!   shortest-path dependencies.
//! * [`ncp`] — **Network community profile**: launches a batch of personalized
//!   PageRank queries from random seeds and sweeps each PPR vector for the
//!   best-conductance cluster per size.
//! * [`ll`] — **Landmark labeling**: launches a batch of SSSPs from landmark
//!   vertices and builds a distance-label index answering point-to-point
//!   distance queries.
//!
//! Each application separates the *fork-processing* part (the query batch,
//! which dominates execution time and is what ForkGraph accelerates) from the
//! *aggregation* part, so the same application can run on top of the ForkGraph
//! engine or any baseline GPS driver.

#![forbid(unsafe_code)]

pub mod bc;
pub mod conductance;
pub mod ll;
pub mod ncp;

pub use bc::BetweennessCentrality;
pub use ll::LandmarkLabeling;
pub use ncp::NetworkCommunityProfile;

use fg_graph::VertexId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Sample `count` distinct source vertices uniformly at random (used by all
/// three applications to pick query sources, as in the paper's setup).
pub fn sample_sources(num_vertices: usize, count: usize, seed: u64) -> Vec<VertexId> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let count = count.min(num_vertices);
    let mut picked = std::collections::HashSet::with_capacity(count);
    let mut sources = Vec::with_capacity(count);
    while sources.len() < count {
        let v = rng.gen_range(0..num_vertices) as VertexId;
        if picked.insert(v) {
            sources.push(v);
        }
    }
    sources
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_distinct_and_deterministic() {
        let a = sample_sources(100, 20, 7);
        let b = sample_sources(100, 20, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 20);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 20);
    }

    #[test]
    fn sampling_caps_at_population() {
        assert_eq!(sample_sources(5, 50, 1).len(), 5);
    }
}
