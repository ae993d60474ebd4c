//! Mutable edge-list builder for [`CsrGraph`].

use crate::{CsrGraph, Edge, VertexId, Weight};

/// Accumulates edges and produces a [`CsrGraph`].
///
/// The builder deduplicates parallel edges (keeping the minimum weight, which is
/// the correct semantics for shortest-path workloads) and removes self-loops by
/// default. Vertex count grows automatically to cover the largest id seen.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<Edge>,
    weighted: bool,
    keep_self_loops: bool,
}

impl GraphBuilder {
    /// Create a builder for a graph with at least `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        GraphBuilder { num_vertices, edges: Vec::new(), weighted: false, keep_self_loops: false }
    }

    /// Keep self-loops instead of dropping them at build time.
    pub fn keep_self_loops(mut self, keep: bool) -> Self {
        self.keep_self_loops = keep;
        self
    }

    /// Number of edges currently buffered (before dedup).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if no edges have been added.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Add a weighted directed edge.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: Weight) {
        self.weighted = true;
        self.push(u, v, w);
    }

    /// Add an unweighted directed edge (weight 1).
    pub fn add_unweighted_edge(&mut self, u: VertexId, v: VertexId) {
        self.push(u, v, 1);
    }

    /// Add both directions of an undirected weighted edge.
    pub fn add_undirected_edge(&mut self, u: VertexId, v: VertexId, w: Weight) {
        self.add_edge(u, v, w);
        self.add_edge(v, u, w);
    }

    fn push(&mut self, u: VertexId, v: VertexId, w: Weight) {
        let needed = u.max(v) as usize + 1;
        if needed > self.num_vertices {
            self.num_vertices = needed;
        }
        self.edges.push((u, v, w));
    }

    /// Add the reverse of every edge currently buffered, turning the edge list
    /// into an undirected (symmetric) graph.
    pub fn symmetrize(&mut self) {
        let reversed: Vec<Edge> = self.edges.iter().map(|&(u, v, w)| (v, u, w)).collect();
        self.edges.extend(reversed);
    }

    /// Build the immutable CSR graph: sorts, drops self-loops (unless kept),
    /// and deduplicates parallel edges keeping the minimum weight.
    pub fn build(mut self) -> CsrGraph {
        if !self.keep_self_loops {
            self.edges.retain(|&(u, v, _)| u != v);
        }
        self.edges.sort_unstable_by_key(|&(u, v, w)| (u, v, w));
        self.edges.dedup_by_key(|&mut (u, v, _)| (u, v));
        CsrGraph::from_sorted_edges(self.num_vertices, &self.edges, self.weighted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_count_grows_with_ids() {
        let mut b = GraphBuilder::new(0);
        b.add_edge(5, 9, 2);
        let g = b.build();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn self_loops_dropped_by_default() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(1, 1, 4);
        b.add_edge(1, 2, 4);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.out_neighbors(1), &[2]);
    }

    #[test]
    fn self_loops_kept_when_requested() {
        let mut b = GraphBuilder::new(3).keep_self_loops(true);
        b.add_edge(1, 1, 4);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.out_neighbors(1), &[1]);
    }

    #[test]
    fn parallel_edges_keep_minimum_weight() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 9);
        b.add_edge(0, 1, 3);
        b.add_edge(0, 1, 7);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.out_edges(0).next(), Some((1, 3)));
    }

    #[test]
    fn symmetrize_adds_reverse_edges() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 2);
        b.add_edge(1, 2, 5);
        b.symmetrize();
        let g = b.build();
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_neighbors(1), &[0, 2]);
        assert_eq!(g.out_edges(2).next(), Some((1, 5)));
    }

    #[test]
    fn undirected_edge_helper() {
        let mut b = GraphBuilder::new(2);
        b.add_undirected_edge(0, 1, 7);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_edges(0).next(), Some((1, 7)));
        assert_eq!(g.out_edges(1).next(), Some((0, 7)));
    }

    #[test]
    fn builder_len_and_is_empty() {
        let mut b = GraphBuilder::new(2);
        assert!(b.is_empty());
        b.add_unweighted_edge(0, 1);
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
    }
}
