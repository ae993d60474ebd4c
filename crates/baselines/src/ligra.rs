//! Ligra-like engine: frontier-based edgeMap/vertexMap processing with
//! push/pull direction switching (Shun & Blelloch, PPoPP 2013).

use fg_graph::{CsrGraph, Dist, VertexId};
use fg_seq::ppr::PprConfig;

use crate::engine::{GpsEngine, QueryContext};
use crate::kernels::{frontier_bfs, frontier_ppr, frontier_sssp, IterationStrategy};

/// The Ligra execution model.
#[derive(Clone, Copy, Debug)]
pub struct LigraEngine {
    /// Direction-switch threshold: pull when the frontier work exceeds
    /// `|E| / divisor`. Ligra's default is 20.
    pub direction_divisor: usize,
}

impl Default for LigraEngine {
    fn default() -> Self {
        LigraEngine { direction_divisor: 20 }
    }
}

impl LigraEngine {
    /// Create the engine with Ligra's default direction threshold.
    pub fn new() -> Self {
        Self::default()
    }

    fn strategy(&self) -> IterationStrategy {
        IterationStrategy::DirectionOptimizing {
            divisor: self.direction_divisor,
            pull_segment: None,
        }
    }
}

impl GpsEngine for LigraEngine {
    fn name(&self) -> &'static str {
        "Ligra"
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
    fn ligra_sssp_and_bfs_match_sequential_oracles() {
        let g = gen::rmat(9, 6, 1).with_random_weights(7, 1);
        let engine = LigraEngine::new();
        let tracer = GraphAccessTracer::disabled();
        let counters = WorkCounters::new();
        let ctx = QueryContext { query_id: 0, threads: 3, tracer: &tracer, counters: &counters };
        assert_eq!(engine.sssp(&g, 0, &ctx), fg_seq::dijkstra::dijkstra(&g, 0).dist);
        assert_eq!(engine.bfs(&g, 0, &ctx), fg_seq::bfs::bfs(&g, 0).level);
        assert_eq!(engine.name(), "Ligra");
    }

    #[test]
    fn direction_divisor_affects_iteration_strategy_not_results() {
        let g = gen::grid2d(15, 15, 0.05, 2).with_random_weights(5, 2);
        let tracer = GraphAccessTracer::disabled();
        let counters = WorkCounters::new();
        let ctx = QueryContext { query_id: 0, threads: 1, tracer: &tracer, counters: &counters };
        let push_heavy = LigraEngine { direction_divisor: 1_000_000 }.sssp(&g, 0, &ctx);
        let pull_heavy = LigraEngine { direction_divisor: 1 }.sssp(&g, 0, &ctx);
        assert_eq!(push_heavy, pull_heavy);
    }
}
