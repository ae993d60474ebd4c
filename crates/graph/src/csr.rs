//! Compressed-sparse-row graph storage.
//!
//! [`CsrGraph`] is the immutable graph representation shared by every engine in
//! the workspace. It stores the out-adjacency and (for pull-based engines) the
//! in-adjacency, plus optional per-edge weights. The layout mirrors Ligra's CSR
//! storage that ForkGraph reuses in the paper.

use std::ops::Range;

use crate::{Edge, VertexId, Weight};

/// An immutable directed graph in CSR form.
///
/// Undirected graphs are represented by storing both directions of every edge
/// (see [`crate::GraphBuilder::symmetrize`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CsrGraph {
    /// Out-edges: row `u` lists the targets of `u`'s edges.
    out: Adjacency,
    /// The transpose (in-edges), always present: row `v` lists the *sources*
    /// of edges pointing at `v`, with weights iff `out` has them.
    incoming: Adjacency,
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
        Self::with_transpose(Adjacency { offsets, targets, weights })
    }

    /// This graph with `changes` applied: each `(u, v, Some(w))` sets edge
    /// `u → v` to weight `w`, inserting it if absent, and each
    /// `(u, v, None)` removes it. `changes` must be sorted by `(u, v)` with
    /// one entry per pair. Both directions are merged from this graph's: the
    /// out-rows with `changes`, the in-rows with the same list flipped to
    /// `(v, u)` and sorted. Rows no change touches are copied as slices, so
    /// a fold costs one copy of each direction plus the touched rows. The
    /// result equals [`Self::from_sorted_edges`] over the changed edge set.
    pub(crate) fn with_changes(&self, changes: &[(VertexId, VertexId, Option<Weight>)]) -> Self {
        debug_assert!(changes.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        let mut flipped: Vec<_> = changes.iter().map(|&(u, v, w)| (v, u, w)).collect();
        flipped.sort_unstable_by_key(|&(v, u, _)| (v, u));
        CsrGraph { out: self.out.merged(changes), incoming: self.incoming.merged(&flipped) }
    }

    /// Complete an out-adjacency with its transpose: a counting sort on the
    /// target vertex, visiting sources in ascending order. Its only caller is
    /// [`Self::from_sorted_edges`]; a fold merges both directions instead.
    fn with_transpose(out: Adjacency) -> Self {
        let n = out.offsets.len() - 1;
        let m = out.targets.len();
        let mut offsets = vec![0u64; n + 1];
        for &v in &out.targets {
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor: Vec<u64> = offsets[..n].to_vec();
        let mut targets = vec![0 as VertexId; m];
        let mut weights = out.weights.as_ref().map(|_| vec![0 as Weight; m]);
        for u in 0..n {
            for i in out.offsets[u] as usize..out.offsets[u + 1] as usize {
                let v = out.targets[i] as usize;
                let pos = cursor[v] as usize;
                targets[pos] = u as VertexId;
                if let (Some(iw), Some(w)) = (weights.as_mut(), out.weights.as_ref()) {
                    iw[pos] = w[i];
                }
                cursor[v] += 1;
            }
        }
        CsrGraph { out, incoming: Adjacency { offsets, targets, weights } }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out.offsets.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out.targets.len()
    }

    /// Whether per-edge weights are stored.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.out.weights.is_some()
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
        (self.out.offsets[v as usize + 1] - self.out.offsets[v as usize]) as usize
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        (self.incoming.offsets[v as usize + 1] - self.incoming.offsets[v as usize]) as usize
    }

    /// Out-neighbours of `v`.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        let s = self.out.offsets[v as usize] as usize;
        let e = self.out.offsets[v as usize + 1] as usize;
        &self.out.targets[s..e]
    }

    /// In-neighbours of `v` (sources of edges pointing at `v`).
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        let s = self.incoming.offsets[v as usize] as usize;
        let e = self.incoming.offsets[v as usize + 1] as usize;
        &self.incoming.targets[s..e]
    }

    /// Weights parallel to [`Self::out_neighbors`]; all-ones slice equivalent if
    /// the graph is unweighted (returns `None` in that case).
    #[inline]
    pub fn out_weights(&self, v: VertexId) -> Option<&[Weight]> {
        self.out.weights.as_ref().map(|w| {
            let s = self.out.offsets[v as usize] as usize;
            let e = self.out.offsets[v as usize + 1] as usize;
            &w[s..e]
        })
    }

    /// Weights parallel to [`Self::in_neighbors`].
    #[inline]
    pub fn in_weights(&self, v: VertexId) -> Option<&[Weight]> {
        self.incoming.weights.as_ref().map(|w| {
            let s = self.incoming.offsets[v as usize] as usize;
            let e = self.incoming.offsets[v as usize + 1] as usize;
            &w[s..e]
        })
    }

    /// Iterate `(target, weight)` pairs of `v`'s out-edges. Unweighted graphs
    /// yield weight 1 for every edge.
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let s = self.out.offsets[v as usize] as usize;
        let e = self.out.offsets[v as usize + 1] as usize;
        let targets = &self.out.targets[s..e];
        let weights = self.out.weights.as_ref().map(|w| &w[s..e]);
        (0..targets.len()).map(move |i| (targets[i], weights.map_or(1, |w| w[i])))
    }

    /// Iterate `(source, weight)` pairs of `v`'s in-edges.
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let s = self.incoming.offsets[v as usize] as usize;
        let e = self.incoming.offsets[v as usize + 1] as usize;
        let sources = &self.incoming.targets[s..e];
        let weights = self.incoming.weights.as_ref().map(|w| &w[s..e]);
        (0..sources.len()).map(move |i| (sources[i], weights.map_or(1, |w| w[i])))
    }

    /// Byte offset of vertex `v`'s adjacency within the CSR target array.
    /// Used by the cache simulator to derive synthetic addresses.
    #[inline]
    pub fn adjacency_offset(&self, v: VertexId) -> u64 {
        self.out.offsets[v as usize]
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
        let mut bytes = self.out.offsets.len() * std::mem::size_of::<u64>()
            + self.out.targets.len() * std::mem::size_of::<VertexId>();
        if let Some(w) = &self.out.weights {
            bytes += w.len() * std::mem::size_of::<Weight>();
        }
        bytes
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

/// One direction of a CSR: `offsets[v]..offsets[v + 1]` indexes `targets`
/// and, when present, the parallel `weights` of row `v`. Every row is sorted
/// by target.
#[derive(Clone, Debug, Default, PartialEq)]
struct Adjacency {
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
    weights: Option<Vec<Weight>>,
}

impl Adjacency {
    /// This adjacency with `changes` merged in: `(row, target, Some(w))`
    /// sets the entry, `(row, target, None)` removes it. `changes` must be
    /// sorted by `(row, target)` with one entry per pair. Each touched row is
    /// merged with its changes; the rows between are copied as slices.
    fn merged(&self, changes: &[(VertexId, VertexId, Option<Weight>)]) -> Adjacency {
        let (n, capacity) = (self.offsets.len() - 1, self.targets.len() + changes.len());
        let mut out = Adjacency {
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
        out
    }

    /// Append `from`'s entries at positions `range`.
    fn copy(&mut self, from: &Adjacency, range: Range<usize>) {
        self.targets.extend_from_slice(&from.targets[range.clone()]);
        if let (Some(out), Some(w)) = (self.weights.as_mut(), from.weights.as_ref()) {
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
    use std::collections::BTreeMap;

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
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert_eq!(g.edges().count(), 0);
    }

    /// Apply `round` to `g` and to `model`, and check the fold against a
    /// scratch build of the model, both directions included.
    fn fold_and_check(
        g: &CsrGraph,
        model: &mut BTreeMap<(VertexId, VertexId), Weight>,
        round: &BTreeMap<(VertexId, VertexId), Option<Weight>>,
        context: &str,
    ) -> CsrGraph {
        for (&pair, &after) in round {
            match after {
                Some(w) => model.insert(pair, w),
                None => model.remove(&pair),
            };
        }
        let changes: Vec<_> = round.iter().map(|(&(u, v), &after)| (u, v, after)).collect();
        let folded = g.with_changes(&changes);
        let edges: Vec<Edge> = model.iter().map(|(&(u, v), &w)| (u, v, w)).collect();
        let scratch = CsrGraph::from_sorted_edges(g.num_vertices(), &edges, g.is_weighted());
        assert_eq!(folded, scratch, "{context}");
        folded
    }

    #[test]
    fn with_changes_equals_a_scratch_build() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let n = 64usize;
        let last = n as VertexId - 1;
        for weighted in [true, false] {
            for seed in 0..4u64 {
                let mut g = crate::gen::erdos_renyi(n, 300, seed);
                if weighted {
                    g = g.with_random_weights(9, seed);
                }
                let mut model: BTreeMap<(VertexId, VertexId), Weight> =
                    g.edges().map(|(u, v, w)| ((u, v), w)).collect();
                let mut rng = SmallRng::seed_from_u64(seed);
                for r in 0..20 {
                    let mut round = BTreeMap::new();
                    for _ in 0..rng.gen_range(1usize..=16) {
                        let w: Weight = rng.gen_range(1..10);
                        let present = *model.keys().nth(rng.gen_range(0..model.len())).unwrap();
                        match rng.gen_range(0u32..3) {
                            0 => loop {
                                let u = rng.gen_range(0..n as VertexId);
                                let v = rng.gen_range(0..n as VertexId);
                                if u != v && !model.contains_key(&(u, v)) {
                                    round.insert((u, v), Some(w));
                                    break;
                                }
                            },
                            1 => {
                                round.insert(present, Some(w));
                            }
                            _ => {
                                round.insert(present, None);
                            }
                        }
                    }
                    let context = format!("weighted {weighted} seed {seed} round {r}");
                    g = fold_and_check(&g, &mut model, &round, &context);
                }

                // Three sources change edges into one target: one deleted,
                // one updated, one inserted.
                let t = (0..n as VertexId).max_by_key(|&v| g.in_degree(v)).unwrap();
                let sources = g.in_neighbors(t);
                let fresh = (0..n as VertexId).find(|&u| u != t && !sources.contains(&u)).unwrap();
                let round = BTreeMap::from([
                    ((sources[0], t), None),
                    ((sources[1], t), Some(7)),
                    ((fresh, t), Some(3)),
                ]);
                g = fold_and_check(&g, &mut model, &round, &format!("into {t}, seed {seed}"));

                // Vertex `last` keeps one in-edge, from 0, then loses it;
                // vertices 0 and `last` are touched in both directions.
                let mut round: BTreeMap<_, _> =
                    g.in_neighbors(last).iter().map(|&u| ((u, last), None)).collect();
                round.insert((0, last), Some(5));
                round.insert((last, 0), Some(2));
                g = fold_and_check(&g, &mut model, &round, &format!("only in-edge, seed {seed}"));
                assert_eq!(g.in_neighbors(last), &[0]);
                let round = BTreeMap::from([((0, last), None), ((last, 0), None)]);
                g = fold_and_check(&g, &mut model, &round, &format!("last in-edge, seed {seed}"));
                assert_eq!(g.in_degree(last), 0);
            }
        }
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
