//! GraphIt-like engine: Ligra-style direction-optimising processing whose dense
//! (pull) phases are blocked into LLC-sized destination segments (Zhang et al.,
//! OOPSLA 2018; "making caches work for graph analytics").
//!
//! The segmentation limits the random accesses of a dense round to a
//! cache-resident slice of the vertex state, which is why GraphIt is the
//! strongest baseline under intra-query parallelism in the paper — and also why
//! it degrades the most under uncoordinated inter-query parallelism (Table 1).

use fg_graph::{CsrGraph, Dist, VertexId};
use fg_seq::ppr::PprConfig;

use crate::engine::{GpsEngine, QueryContext};
use crate::kernels::{frontier_bfs, frontier_ppr, frontier_sssp, IterationStrategy};

/// The GraphIt execution model.
#[derive(Clone, Copy, Debug)]
pub struct GraphItEngine {
    /// Direction-switch threshold (as in Ligra).
    pub direction_divisor: usize,
    /// Number of destination vertices per cache segment in dense rounds.
    pub segment_vertices: usize,
}

impl Default for GraphItEngine {
    fn default() -> Self {
        // 64-byte lines / 8-byte state → 8 vertices per line; a 2 MiB segment
        // of vertex state covers 256 Ki vertices. Scaled down with the scaled
        // LLC used across the workspace.
        GraphItEngine { direction_divisor: 20, segment_vertices: 32 * 1024 }
    }
}

impl GraphItEngine {
    /// Create the engine with default segmentation.
    pub fn new() -> Self {
        Self::default()
    }

    fn strategy(&self) -> IterationStrategy {
        IterationStrategy::DirectionOptimizing {
            divisor: self.direction_divisor,
            pull_segment: Some(self.segment_vertices),
        }
    }
}

impl GpsEngine for GraphItEngine {
    fn name(&self) -> &'static str {
        "GraphIt"
    }

    fn sssp(&self, graph: &CsrGraph, source: VertexId, ctx: &QueryContext<'_>) -> Vec<Dist> {
        frontier_sssp(graph, source, ctx, self.strategy())
    }

    fn bfs(&self, graph: &CsrGraph, source: VertexId, ctx: &QueryContext<'_>) -> Vec<u32> {
        frontier_bfs(graph, source, ctx, self.strategy())
    }

    fn ppr(
        &self,
        graph: &CsrGraph,
        seed: VertexId,
        config: &PprConfig,
        ctx: &QueryContext<'_>,
    ) -> Vec<(VertexId, f64)> {
        frontier_ppr(graph, seed, config, ctx, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_cachesim::GraphAccessTracer;
    use fg_graph::gen;
    use fg_metrics::WorkCounters;

    #[test]
    fn graphit_results_match_sequential_oracles() {
        let g = gen::rmat(9, 8, 6).with_random_weights(6, 6);
        let engine = GraphItEngine::new();
        let tracer = GraphAccessTracer::disabled();
        let counters = WorkCounters::new();
        let ctx = QueryContext { query_id: 0, threads: 3, tracer: &tracer, counters: &counters };
        assert_eq!(engine.sssp(&g, 9, &ctx), fg_seq::dijkstra::dijkstra(&g, 9).dist);
        assert_eq!(engine.bfs(&g, 9, &ctx), fg_seq::bfs::bfs(&g, 9).level);
        assert_eq!(engine.name(), "GraphIt");
    }

    #[test]
    fn tiny_segments_still_produce_correct_results() {
        let g = gen::grid2d(12, 12, 0.1, 3).with_random_weights(5, 3);
        let engine = GraphItEngine { direction_divisor: 2, segment_vertices: 16 };
        let tracer = GraphAccessTracer::disabled();
        let counters = WorkCounters::new();
        let ctx = QueryContext { query_id: 0, threads: 1, tracer: &tracer, counters: &counters };
        assert_eq!(engine.sssp(&g, 0, &ctx), fg_seq::dijkstra::dijkstra(&g, 0).dist);
    }
}
