//! Network community profile (NCP).
//!
//! The NCP plots, for every cluster size, the best (lowest) conductance of any
//! cluster of that size. Following Shun et al. and the paper's setup, it is
//! approximated by seeding personalized PageRank at a random sample of vertices
//! (0.01%–0.1% of `|V|`), sweeping each PPR vector, and keeping the minimum
//! conductance per size. The PPR batch is the fork-processing pattern.

use fg_baselines::fpp::{ExecutionScheme, FppDriver, QueryKind};
use fg_baselines::GpsEngine;
use fg_graph::partitioned::PartitionedGraph;
use fg_graph::{CsrGraph, VertexId};
use fg_metrics::Measurement;
use fg_seq::ppr::PprConfig;
use forkgraph_core::{EngineConfig, ForkGraphEngine};

use crate::conductance::sweep_cut;
use crate::sample_sources;

/// One point of the profile: the best conductance observed for clusters whose
/// size falls in the bucket `[2^i, 2^(i+1))`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NcpPoint {
    /// Representative cluster size (lower bound of the bucket).
    pub size: usize,
    /// Best conductance found for this size bucket.
    pub conductance: f64,
}

/// Result of an NCP computation.
#[derive(Clone, Debug)]
pub struct NcpResult {
    /// The profile: best conductance per (log-bucketed) cluster size.
    pub profile: Vec<NcpPoint>,
    /// The PPR seed vertices used.
    pub seeds: Vec<VertexId>,
    /// Measurement of the FPP (PPR batch) part.
    pub measurement: Measurement,
}

impl NcpResult {
    /// Overall best conductance across all sizes.
    pub fn best_conductance(&self) -> f64 {
        self.profile.iter().map(|p| p.conductance).fold(1.0, f64::min)
    }
}

/// The NCP application.
#[derive(Clone, Copy, Debug)]
pub struct NetworkCommunityProfile {
    /// Fraction of the vertices used as PPR seeds (the paper uses 0.01%; the
    /// scaled datasets use a larger fraction to keep the seed count > 1).
    pub seed_fraction: f64,
    /// Minimum number of seeds regardless of the fraction.
    pub min_seeds: usize,
    /// Sampling seed.
    pub seed: u64,
    /// PPR parameters.
    pub ppr: PprConfig,
}

impl NetworkCommunityProfile {
    /// Create the application with the given seeding fraction.
    pub fn new(seed_fraction: f64, seed: u64) -> Self {
        NetworkCommunityProfile {
            seed_fraction,
            min_seeds: 4,
            seed,
            ppr: PprConfig { epsilon: 1e-4, ..Default::default() },
        }
    }

    /// Override the PPR parameters.
    pub fn with_ppr(mut self, ppr: PprConfig) -> Self {
        self.ppr = ppr;
        self
    }

    /// The PPR seed vertices for `graph`.
    pub fn seeds(&self, graph: &CsrGraph) -> Vec<VertexId> {
        let count = ((graph.num_vertices() as f64 * self.seed_fraction).ceil() as usize)
            .max(self.min_seeds)
            .min(graph.num_vertices());
        sample_sources(graph.num_vertices(), count, self.seed)
    }

    /// Aggregate per-seed PPR vectors into the profile.
    pub fn aggregate(&self, graph: &CsrGraph, estimates: &[Vec<(VertexId, f64)>]) -> Vec<NcpPoint> {
        let mut best_per_bucket: std::collections::BTreeMap<usize, f64> =
            std::collections::BTreeMap::new();
        for est in estimates {
            for (size, phi) in sweep_cut(graph, est) {
                let bucket = size.next_power_of_two().trailing_zeros() as usize;
                best_per_bucket.entry(bucket).and_modify(|b| *b = b.min(phi)).or_insert(phi);
            }
        }
        best_per_bucket
            .into_iter()
            .map(|(bucket, phi)| NcpPoint {
                size: 1usize << bucket.saturating_sub(1),
                conductance: phi,
            })
            .collect()
    }

    /// Run on the ForkGraph engine. The default configuration is the paper's
    /// for NCP: §6.4 raises the yield budget to 100 µ because PPR operations
    /// are cheap and cannot be dominated, and the engine goes further — a
    /// kernel that cannot prune never yields ([`forkgraph_core::FppKernel::PRUNES`]).
    pub fn run_forkgraph(&self, pg: &PartitionedGraph, config: EngineConfig) -> NcpResult {
        let seeds = self.seeds(pg.graph());
        let engine = ForkGraphEngine::new(pg, config);
        let result = engine.run_ppr(&seeds, &self.ppr);
        let estimates: Vec<Vec<(VertexId, f64)>> =
            result.per_query.iter().map(|s| s.sparse_estimates()).collect();
        let profile = self.aggregate(pg.graph(), &estimates);
        NcpResult { profile, seeds, measurement: result.measurement }
    }

    /// Run on a baseline GPS driver.
    pub fn run_baseline<E: GpsEngine>(
        &self,
        driver: &FppDriver<E>,
        scheme: ExecutionScheme,
        graph: &CsrGraph,
    ) -> NcpResult {
        let seeds = self.seeds(graph);
        let result = driver.run(&QueryKind::Ppr(self.ppr), &seeds, scheme);
        let estimates: Vec<Vec<(VertexId, f64)>> =
            result.outputs.iter().map(|o| o.as_ppr().expect("PPR output").to_vec()).collect();
        let profile = self.aggregate(graph, &estimates);
        NcpResult { profile, seeds, measurement: result.measurement }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_baselines::LigraEngine;
    use fg_graph::partition::{PartitionConfig, PartitionMethod};
    use fg_graph::{gen, GraphBuilder};
    use std::sync::Arc;

    fn clustered_graph() -> CsrGraph {
        // Four 8-vertex cliques connected in a ring by single edges.
        let mut b = GraphBuilder::new(32);
        for c in 0..4u32 {
            let base = c * 8;
            for u in 0..8u32 {
                for v in 0..8u32 {
                    if u != v {
                        b.add_unweighted_edge(base + u, base + v);
                    }
                }
            }
            let next = ((c + 1) % 4) * 8;
            b.add_undirected_edge(base, next, 1);
        }
        b.build()
    }

    #[test]
    fn profile_finds_the_planted_communities() {
        let g = clustered_graph();
        let ncp = NetworkCommunityProfile::new(0.2, 3);
        let pg = PartitionedGraph::build(
            &g,
            PartitionConfig::with_partitions(PartitionMethod::Multilevel, 4),
        );
        let result = ncp.run_forkgraph(&pg, EngineConfig::default());
        assert!(!result.profile.is_empty());
        // The 8-vertex cliques are excellent communities.
        assert!(result.best_conductance() < 0.1, "best {}", result.best_conductance());
    }

    #[test]
    fn forkgraph_and_baseline_profiles_are_similar() {
        let g = clustered_graph();
        let ncp = NetworkCommunityProfile::new(0.15, 9);
        let pg = PartitionedGraph::build(
            &g,
            PartitionConfig::with_partitions(PartitionMethod::Multilevel, 4),
        );
        let fork = ncp.run_forkgraph(&pg, EngineConfig::default());
        let driver = FppDriver::new(LigraEngine::new(), Arc::new(g.clone()));
        let base = ncp.run_baseline(&driver, ExecutionScheme::InterQuery, &g);
        assert_eq!(fork.seeds, base.seeds);
        assert!((fork.best_conductance() - base.best_conductance()).abs() < 0.1);
    }

    #[test]
    fn seed_count_respects_fraction_and_minimum() {
        let g = gen::rmat(10, 4, 1);
        let few = NetworkCommunityProfile::new(0.0001, 1);
        assert_eq!(few.seeds(&g).len(), few.min_seeds);
        let more = NetworkCommunityProfile::new(0.01, 1);
        assert_eq!(more.seeds(&g).len(), (g.num_vertices() as f64 * 0.01).ceil() as usize);
    }

    #[test]
    fn aggregate_on_empty_estimates_is_empty() {
        let g = gen::path(10);
        let ncp = NetworkCommunityProfile::new(0.1, 1);
        assert!(ncp.aggregate(&g, &[]).is_empty());
    }
}
