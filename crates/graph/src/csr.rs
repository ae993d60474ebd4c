//! Compressed-sparse-row graph storage.
//!
//! [`CsrGraph`] is the immutable graph representation shared by every engine in
//! the workspace. It stores the out-adjacency and (for pull-based engines) the
//! in-adjacency, plus optional per-edge weights. The layout mirrors Ligra's CSR
//! storage that ForkGraph reuses in the paper.

use crate::{Edge, VertexId, Weight};

/// An immutable directed graph in CSR form.
///
/// Undirected graphs are represented by storing both directions of every edge
/// (see [`crate::GraphBuilder::symmetrize`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` indexes `targets`/`weights` for vertex `v`.
    offsets: Vec<u64>,
    /// Flattened out-neighbour lists.
    targets: Vec<VertexId>,
    /// Optional per-edge weights, parallel to `targets`.
    weights: Option<Vec<Weight>>,
    /// Transpose offsets (in-edges), always present.
    in_offsets: Vec<u64>,
    /// Transpose targets: `in_targets[in_offsets[v]..]` are the *sources* of
    /// edges pointing at `v`.
    in_targets: Vec<VertexId>,
    /// Weights parallel to `in_targets` (present iff `weights` is).
    in_weights: Option<Vec<Weight>>,
}

impl CsrGraph {
    /// Build a graph from a *sorted, deduplicated* edge list.
    ///
    /// Prefer [`crate::GraphBuilder`], which performs the sorting and
    /// deduplication. `num_vertices` must be at least `max(vertex id) + 1`.
    pub fn from_sorted_edges(num_vertices: usize, edges: &[Edge], weighted: bool) -> Self {
        debug_assert!(edges.windows(2).all(|w| (w[0].0, w[0].1) <= (w[1].0, w[1].1)));
        let n = num_vertices;
        let mut offsets = vec![0u64; n + 1];
        for &(u, _, _) in edges {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let targets = edges.iter().map(|&(_, v, _)| v).collect();
        let weights = weighted.then(|| edges.iter().map(|&(_, _, w)| w).collect());
        Self::with_transpose(offsets, targets, weights)
    }

    /// This graph with `changes` applied: each `(u, v, Some(w))` sets edge
    /// `u → v` to weight `w`, inserting it if absent, and each
    /// `(u, v, None)` removes it. `changes` must be sorted by `(u, v)` with
    /// one entry per pair. Rows no change touches are copied as slices; the
    /// result equals [`Self::from_sorted_edges`] over the changed edge set.
    pub(crate) fn with_changes(&self, changes: &[(VertexId, VertexId, Option<Weight>)]) -> Self {
        debug_assert!(changes.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        let (n, capacity) = (self.num_vertices(), self.num_edges() + changes.len());
        let mut out = OutAdjacency {
            offsets: Vec::with_capacity(n + 1),
            targets: Vec::with_capacity(capacity),
            weights: self.weights.as_ref().map(|_| Vec::with_capacity(capacity)),
        };
        out.offsets.push(0);
        let mut next = 0usize;
        // One group of changes per touched row, then the rows after the last.
        for row in changes.chunk_by(|a, b| a.0 == b.0).map(Some).chain([None]) {
            let u = row.map_or(n, |row| row[0].0 as usize);
            let (start, base) = (self.offsets[next], out.targets.len() as u64);
            out.copy(self, start as usize..self.offsets[u] as usize);
            out.offsets.extend(self.offsets[next + 1..=u].iter().map(|&o| o - start + base));
            let Some(row) = row else { break };
            // Row `u` merged with its changes, both sorted by target.
            let (mut i, end) = (self.offsets[u] as usize, self.offsets[u + 1] as usize);
            for &(_, v, after) in row {
                let j = i + self.targets[i..end].partition_point(|&t| t < v);
                out.copy(self, i..j);
                i = if j < end && self.targets[j] == v { j + 1 } else { j };
                if let Some(w) = after {
                    out.targets.push(v);
                    if let Some(ws) = out.weights.as_mut() {
                        ws.push(w);
                    }
                }
            }
            out.copy(self, i..end);
            out.offsets.push(out.targets.len() as u64);
            next = u + 1;
        }
        Self::with_transpose(out.offsets, out.targets, out.weights)
    }

    /// Complete an out-adjacency with its transpose: a counting sort on the
    /// target vertex, visiting sources in ascending order.
    fn with_transpose(
        offsets: Vec<u64>,
        targets: Vec<VertexId>,
        weights: Option<Vec<Weight>>,
    ) -> Self {
        let n = offsets.len() - 1;
        let m = targets.len();
        let mut in_offsets = vec![0u64; n + 1];
        for &v in &targets {
            in_offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut cursor: Vec<u64> = in_offsets[..n].to_vec();
        let mut in_targets = vec![0 as VertexId; m];
        let mut in_weights = weights.as_ref().map(|_| vec![0 as Weight; m]);
        for u in 0..n {
            for i in offsets[u] as usize..offsets[u + 1] as usize {
                let v = targets[i] as usize;
                let pos = cursor[v] as usize;
                in_targets[pos] = u as VertexId;
                if let (Some(iw), Some(w)) = (in_weights.as_mut(), weights.as_ref()) {
                    iw[pos] = w[i];
                }
                cursor[v] += 1;
            }
        }

        CsrGraph { offsets, targets, weights, in_offsets, in_targets, in_weights }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Whether per-edge weights are stored.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Average out-degree.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        (self.in_offsets[v as usize + 1] - self.in_offsets[v as usize]) as usize
    }

    /// Out-neighbours of `v`.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        let s = self.offsets[v as usize] as usize;
        let e = self.offsets[v as usize + 1] as usize;
        &self.targets[s..e]
    }

    /// In-neighbours of `v` (sources of edges pointing at `v`).
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        let s = self.in_offsets[v as usize] as usize;
        let e = self.in_offsets[v as usize + 1] as usize;
        &self.in_targets[s..e]
    }

    /// Weights parallel to [`Self::out_neighbors`]; all-ones slice equivalent if
    /// the graph is unweighted (returns `None` in that case).
    #[inline]
    pub fn out_weights(&self, v: VertexId) -> Option<&[Weight]> {
        self.weights.as_ref().map(|w| {
            let s = self.offsets[v as usize] as usize;
            let e = self.offsets[v as usize + 1] as usize;
            &w[s..e]
        })
    }

    /// Weights parallel to [`Self::in_neighbors`].
    #[inline]
    pub fn in_weights(&self, v: VertexId) -> Option<&[Weight]> {
        self.in_weights.as_ref().map(|w| {
            let s = self.in_offsets[v as usize] as usize;
            let e = self.in_offsets[v as usize + 1] as usize;
            &w[s..e]
        })
    }

    /// Iterate `(target, weight)` pairs of `v`'s out-edges. Unweighted graphs
    /// yield weight 1 for every edge.
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let s = self.offsets[v as usize] as usize;
        let e = self.offsets[v as usize + 1] as usize;
        let targets = &self.targets[s..e];
        let weights = self.weights.as_ref().map(|w| &w[s..e]);
        (0..targets.len()).map(move |i| (targets[i], weights.map_or(1, |w| w[i])))
    }

    /// Iterate `(source, weight)` pairs of `v`'s in-edges.
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let s = self.in_offsets[v as usize] as usize;
        let e = self.in_offsets[v as usize + 1] as usize;
        let sources = &self.in_targets[s..e];
        let weights = self.in_weights.as_ref().map(|w| &w[s..e]);
        (0..sources.len()).map(move |i| (sources[i], weights.map_or(1, |w| w[i])))
    }

    /// Byte offset of vertex `v`'s adjacency within the CSR target array.
    /// Used by the cache simulator to derive synthetic addresses.
    #[inline]
    pub fn adjacency_offset(&self, v: VertexId) -> u64 {
        self.offsets[v as usize]
    }

    /// Iterate all edges as `(u, v, w)` triples.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.num_vertices() as VertexId)
            .flat_map(move |u| self.out_edges(u).map(move |(v, w)| (u, v, w)))
    }

    /// Approximate in-memory size of the CSR payload in bytes (offsets +
    /// adjacency + weights, out-direction only — the quantity the paper divides
    /// by the LLC size to pick `|P|`).
    pub fn size_bytes(&self) -> usize {
        let mut bytes = self.offsets.len() * std::mem::size_of::<u64>()
            + self.targets.len() * std::mem::size_of::<VertexId>();
        if let Some(w) = &self.weights {
            bytes += w.len() * std::mem::size_of::<Weight>();
        }
        bytes
    }

    /// Total size including the transpose, i.e. what is actually resident.
    pub fn total_size_bytes(&self) -> usize {
        self.size_bytes()
            + self.in_offsets.len() * std::mem::size_of::<u64>()
            + self.in_targets.len() * std::mem::size_of::<VertexId>()
            + self.in_weights.as_ref().map_or(0, |w| w.len() * std::mem::size_of::<Weight>())
    }

    /// Return a copy of this graph with uniformly random integer weights in
    /// `[1, max_weight]`, seeded deterministically from `seed`.
    pub fn with_random_weights(&self, max_weight: Weight, seed: u64) -> CsrGraph {
        let mut edges: Vec<Edge> = Vec::with_capacity(self.num_edges());
        // Weight must be consistent for both directions of a symmetrised edge;
        // derive it from the unordered pair so (u,v) and (v,u) agree.
        for u in 0..self.num_vertices() as VertexId {
            for (v, _) in self.out_edges(u) {
                let (a, b) = if u <= v { (u, v) } else { (v, u) };
                let h = pair_hash(a, b, seed);
                let w = 1 + (h % max_weight.max(1) as u64) as Weight;
                edges.push((u, v, w));
            }
        }
        CsrGraph::from_sorted_edges(self.num_vertices(), &edges, true)
    }

    /// Convenience wrapper around [`Self::with_random_weights`] with a fixed
    /// seed, matching the paper's `[1, log |V|)` weight selection when passed
    /// `max_weight = log2(|V|)`.
    pub fn into_weighted(self, max_weight: Weight) -> CsrGraph {
        self.with_random_weights(max_weight, 0x5eed_f0cd)
    }
}

/// The out-direction arrays of a CSR under construction.
struct OutAdjacency {
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
    weights: Option<Vec<Weight>>,
}

impl OutAdjacency {
    /// Append `graph`'s edges at CSR positions `range`.
    fn copy(&mut self, graph: &CsrGraph, range: std::ops::Range<usize>) {
        self.targets.extend_from_slice(&graph.targets[range.clone()]);
        if let (Some(out), Some(w)) = (self.weights.as_mut(), graph.weights.as_ref()) {
            out.extend_from_slice(&w[range]);
        }
    }
}

/// Deterministic hash of an unordered vertex pair and a seed; used to assign
/// symmetric random edge weights.
fn pair_hash(a: VertexId, b: VertexId, seed: u64) -> u64 {
    let mut x = (a as u64) << 32 | b as u64;
    x ^= seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn diamond() -> CsrGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1);
        b.add_edge(0, 2, 1);
        b.add_edge(1, 3, 1);
        b.add_edge(2, 3, 1);
        b.build()
    }

    #[test]
    fn basic_counts() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.in_degree(0), 0);
    }

    #[test]
    fn adjacency_contents() {
        let g = diamond();
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        let edges: Vec<_> = g.out_edges(0).collect();
        assert_eq!(edges, vec![(1, 1), (2, 1)]);
    }

    #[test]
    fn edges_iterator_round_trip() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        assert!(edges.contains(&(0, 1, 1)));
        assert!(edges.contains(&(2, 3, 1)));
    }

    #[test]
    fn unweighted_edges_report_weight_one() {
        let mut b = GraphBuilder::new(2);
        b.add_unweighted_edge(0, 1);
        let g = b.build();
        assert!(!g.is_weighted());
        assert_eq!(g.out_edges(0).next(), Some((1, 1)));
    }

    #[test]
    fn random_weights_are_in_range_and_symmetric() {
        let mut b = GraphBuilder::new(5);
        for u in 0..5u32 {
            for v in 0..5u32 {
                if u != v {
                    b.add_unweighted_edge(u, v);
                }
            }
        }
        let g = b.build().with_random_weights(7, 123);
        assert!(g.is_weighted());
        for (u, v, w) in g.edges() {
            assert!((1..=7).contains(&w));
            // Symmetric pair must carry the same weight.
            let back = g.out_edges(v).find(|&(t, _)| t == u).unwrap();
            assert_eq!(back.1, w, "weight mismatch for ({u},{v})");
        }
    }

    #[test]
    fn size_bytes_scales_with_edges() {
        let small = diamond();
        let mut b = GraphBuilder::new(100);
        for i in 0..99u32 {
            b.add_edge(i, i + 1, 1);
        }
        let big = b.build();
        assert!(big.size_bytes() > small.size_bytes());
        assert!(big.total_size_bytes() >= big.size_bytes());
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn isolated_vertices_have_empty_adjacency() {
        let g = GraphBuilder::new(10).build();
        for v in 0..10 {
            assert_eq!(g.out_degree(v), 0);
            assert_eq!(g.in_degree(v), 0);
            assert!(g.out_neighbors(v).is_empty());
        }
    }
}
