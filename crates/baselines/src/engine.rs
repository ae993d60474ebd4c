//! The common interface implemented by every baseline graph processing system.

use fg_cachesim::GraphAccessTracer;
use fg_graph::{CsrGraph, Dist, VertexId};
use fg_metrics::WorkCounters;
use fg_seq::ppr::PprConfig;

/// Per-query execution context handed to an engine kernel.
pub struct QueryContext<'a> {
    /// Index of this query within the FPP batch (selects the synthetic
    /// address region of its vertex state).
    pub query_id: usize,
    /// Threads the kernel may spread one frontier step over. `1` runs every
    /// step on the calling thread, as in the paper's `t = 1` inter-query
    /// scheme.
    pub threads: usize,
    /// LLC access tracer (may be disabled).
    pub tracer: &'a GraphAccessTracer,
    /// Shared work counters.
    pub counters: &'a WorkCounters,
}

impl<'a> QueryContext<'a> {
    /// Record that `vertex`'s adjacency was scanned and its `degree` edges
    /// processed, updating both the cache tracer and the work counters.
    #[inline]
    pub fn record_scan(&self, graph: &CsrGraph, vertex: VertexId) {
        let degree = graph.out_degree(vertex);
        self.counters.add_edges(degree as u64);
        if self.tracer.is_enabled() {
            self.tracer.adjacency_scan(graph.adjacency_offset(vertex), degree);
        }
    }

    /// Record that this query read/wrote its state for `vertex` and each of
    /// the given neighbours.
    #[inline]
    pub fn record_state_touch(&self, vertex: VertexId, neighbors: &[VertexId]) {
        if self.tracer.is_enabled() {
            self.tracer.state_write(self.query_id, vertex as u64);
            let ids: Vec<u64> = neighbors.iter().map(|&v| v as u64).collect();
            self.tracer.state_read_batch(self.query_id, &ids);
        }
    }
}

/// A baseline graph processing system: Ligra-, Gemini-, or GraphIt-like.
///
/// Each engine provides the three query kernels the paper's applications need
/// (SSSP for BC/LL on weighted graphs, BFS for BC on unweighted graphs, PPR for
/// NCP). Kernels must honour `ctx.threads` and report work/accesses through
/// the context.
pub trait GpsEngine: Sync + Send {
    /// Human-readable system name ("Ligra", "Gemini", "GraphIt").
    fn name(&self) -> &'static str;

    /// Single-source shortest paths from `source`.
    fn sssp(&self, graph: &CsrGraph, source: VertexId, ctx: &QueryContext<'_>) -> Vec<Dist>;

    /// Breadth-first search levels from `source` (`u32::MAX` = unreachable).
    fn bfs(&self, graph: &CsrGraph, source: VertexId, ctx: &QueryContext<'_>) -> Vec<u32>;

    /// Approximate personalized PageRank from `seed`; returns sparse
    /// `(vertex, estimate)` pairs.
    fn ppr(
        &self,
        graph: &CsrGraph,
        seed: VertexId,
        config: &PprConfig,
        ctx: &QueryContext<'_>,
    ) -> Vec<(VertexId, f64)>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_cachesim::CacheConfig;
    use fg_graph::gen;

    #[test]
    fn context_records_work_and_accesses() {
        let g = gen::complete(8);
        let counters = WorkCounters::new();
        let tracer = GraphAccessTracer::new(CacheConfig::tiny(64 * 1024));
        let ctx = QueryContext { query_id: 0, threads: 1, tracer: &tracer, counters: &counters };
        ctx.record_scan(&g, 0);
        ctx.record_state_touch(0, g.out_neighbors(0));
        assert_eq!(counters.snapshot().edges_processed, 7);
        assert!(tracer.stats().accesses > 0);
    }

    #[test]
    fn disabled_tracer_still_counts_work() {
        let g = gen::complete(5);
        let counters = WorkCounters::new();
        let tracer = GraphAccessTracer::disabled();
        let ctx = QueryContext { query_id: 3, threads: 2, tracer: &tracer, counters: &counters };
        ctx.record_scan(&g, 2);
        ctx.record_state_touch(2, g.out_neighbors(2));
        assert_eq!(counters.snapshot().edges_processed, 4);
        assert_eq!(tracer.stats().accesses, 0);
    }
}
