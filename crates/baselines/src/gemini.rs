//! Gemini-like engine: dense, bulk-synchronous rounds with a global barrier per
//! iteration (Zhu et al., OSDI 2016, evaluated in the paper with message
//! passing disabled).
//!
//! Gemini's shared-memory path materialises a dense round for every iteration,
//! which on high-diameter graphs (road networks) translates into `O(diameter)`
//! passes over the full edge set — the behaviour behind the paper's observation
//! that ForkGraph achieves three orders of magnitude speedups over Gemini on
//! road graphs.

use fg_graph::{CsrGraph, Dist, VertexId};
use fg_seq::ppr::PprConfig;

use crate::engine::{GpsEngine, QueryContext};
use crate::kernels::{frontier_bfs, frontier_ppr, frontier_sssp, IterationStrategy};

/// The Gemini execution model.
#[derive(Clone, Copy, Debug, Default)]
pub struct GeminiEngine;

impl GeminiEngine {
    /// Create the engine.
    pub fn new() -> Self {
        GeminiEngine
    }
}

impl GpsEngine for GeminiEngine {
    fn name(&self) -> &'static str {
        "Gemini"
    }

    fn sssp(&self, graph: &CsrGraph, source: VertexId, ctx: &QueryContext<'_>) -> Vec<Dist> {
        frontier_sssp(graph, source, ctx, IterationStrategy::DenseAlways)
    }

    fn bfs(&self, graph: &CsrGraph, source: VertexId, ctx: &QueryContext<'_>) -> Vec<u32> {
        frontier_bfs(graph, source, ctx, IterationStrategy::DenseAlways)
    }

    fn ppr(
        &self,
        graph: &CsrGraph,
        seed: VertexId,
        config: &PprConfig,
        ctx: &QueryContext<'_>,
    ) -> Vec<(VertexId, f64)> {
        frontier_ppr(graph, seed, config, ctx, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_cachesim::GraphAccessTracer;
    use fg_graph::gen;
    use fg_metrics::WorkCounters;

    #[test]
    fn gemini_results_match_sequential_oracles() {
        let g = gen::erdos_renyi(200, 1500, 4).with_random_weights(6, 4);
        let engine = GeminiEngine::new();
        let tracer = GraphAccessTracer::disabled();
        let counters = WorkCounters::new();
        let ctx = QueryContext { query_id: 0, threads: 1, tracer: &tracer, counters: &counters };
        assert_eq!(engine.sssp(&g, 2, &ctx), fg_seq::dijkstra::dijkstra(&g, 2).dist);
        assert_eq!(engine.bfs(&g, 2, &ctx), fg_seq::bfs::bfs(&g, 2).level);
        assert_eq!(engine.name(), "Gemini");
    }

    #[test]
    fn gemini_does_more_work_than_ligra_on_road_graphs() {
        let g = gen::grid2d(20, 20, 0.0, 1).with_random_weights(5, 1);
        let tracer = GraphAccessTracer::disabled();
        let gem = WorkCounters::new();
        let lig = WorkCounters::new();
        let gem_ctx = QueryContext { query_id: 0, threads: 1, tracer: &tracer, counters: &gem };
        let lig_ctx = QueryContext { query_id: 0, threads: 1, tracer: &tracer, counters: &lig };
        GeminiEngine::new().sssp(&g, 0, &gem_ctx);
        crate::ligra::LigraEngine::new().sssp(&g, 0, &lig_ctx);
        assert!(gem.snapshot().edges_processed > lig.snapshot().edges_processed);
        assert!(gem.snapshot().iterations >= lig.snapshot().iterations);
    }
}
