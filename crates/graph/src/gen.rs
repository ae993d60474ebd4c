//! Synthetic graph generators.
//!
//! The paper evaluates on eight real-world graphs (road networks, social
//! networks, a hyperlink network, and a citation network). Those datasets are
//! multi-gigabyte downloads, so the reproduction substitutes generators that
//! match the *structural properties* the experiments depend on (no generator
//! stands in for the citation network, which no experiment here runs):
//!
//! * [`rmat`] — recursive-matrix / Kronecker generator producing skewed,
//!   power-law degree distributions with low diameter (stands in for Orkut,
//!   LiveJournal, Twitter, Wikipedia).
//! * [`grid2d`] — 2D lattice with small random perturbations: bounded degree,
//!   very large diameter (stands in for the California / USA / Europe road
//!   networks).
//! * [`erdos_renyi`] — uniform random graph, used by tests and microbenches.
//!
//! All generators are deterministic given a seed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{CsrGraph, GraphBuilder, VertexId};

/// Generate an RMAT (Kronecker) graph with `2^scale` vertices and roughly
/// `edge_factor * 2^scale` undirected edges. Uses the standard Graph500
/// parameters (a, b, c) = (0.57, 0.19, 0.19).
///
/// The resulting degree distribution is heavily skewed, matching the social
/// network datasets in Table 2 of the paper.
pub fn rmat(scale: u32, edge_factor: usize, seed: u64) -> CsrGraph {
    let n: u64 = 1 << scale;
    let m = edge_factor as u64 * n;
    let mut rng = SmallRng::seed_from_u64(seed);
    let (a, b, c) = (0.57f64, 0.19f64, 0.19f64);
    let mut builder = GraphBuilder::new(n as usize);
    for _ in 0..m {
        let (mut u, mut v) = (0u64, 0u64);
        let mut step = n >> 1;
        while step >= 1 {
            let r: f64 = rng.gen();
            if r < a {
                // top-left quadrant: nothing to add
            } else if r < a + b {
                v += step;
            } else if r < a + b + c {
                u += step;
            } else {
                u += step;
                v += step;
            }
            step >>= 1;
        }
        if u != v {
            builder.add_unweighted_edge(u as VertexId, v as VertexId);
            builder.add_unweighted_edge(v as VertexId, u as VertexId);
        }
    }
    builder.build()
}

/// Generate a 2D lattice ("road network") of `rows x cols` vertices with
/// 4-neighbour connectivity. A fraction `extra_edge_prob` of vertices receive
/// one extra random "shortcut" edge, mimicking highways.
///
/// The generated graph has average degree ≈ 4 and diameter Θ(rows + cols),
/// matching the road network datasets (Ca/Us/Eu) whose behaviour in the paper
/// is dominated by their huge diameters.
pub fn grid2d(rows: usize, cols: usize, extra_edge_prob: f64, seed: u64) -> CsrGraph {
    let n = rows * cols;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(n);
    let id = |r: usize, c: usize| (r * cols + c) as VertexId;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                builder.add_unweighted_edge(id(r, c), id(r, c + 1));
                builder.add_unweighted_edge(id(r, c + 1), id(r, c));
            }
            if r + 1 < rows {
                builder.add_unweighted_edge(id(r, c), id(r + 1, c));
                builder.add_unweighted_edge(id(r + 1, c), id(r, c));
            }
            if extra_edge_prob > 0.0 && rng.gen_bool(extra_edge_prob) {
                let t = rng.gen_range(0..n) as VertexId;
                let s = id(r, c);
                if t != s {
                    builder.add_unweighted_edge(s, t);
                    builder.add_unweighted_edge(t, s);
                }
            }
        }
    }
    builder.build()
}

/// Generate a directed Erdős–Rényi `G(n, m)` graph with `num_edges` edges drawn
/// uniformly at random (self-loops discarded).
pub fn erdos_renyi(num_vertices: usize, num_edges: usize, seed: u64) -> CsrGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(num_vertices);
    if num_vertices < 2 {
        return builder.build();
    }
    for _ in 0..num_edges {
        let u = rng.gen_range(0..num_vertices) as VertexId;
        let v = rng.gen_range(0..num_vertices) as VertexId;
        if u != v {
            builder.add_unweighted_edge(u, v);
        }
    }
    builder.build()
}

/// Generate a path graph `0 - 1 - 2 - … - (n-1)` (undirected). Mostly used in
/// tests and worked-example reproductions.
pub fn path(num_vertices: usize) -> CsrGraph {
    let mut builder = GraphBuilder::new(num_vertices);
    for i in 1..num_vertices {
        builder.add_unweighted_edge((i - 1) as VertexId, i as VertexId);
        builder.add_unweighted_edge(i as VertexId, (i - 1) as VertexId);
    }
    builder.build()
}

/// Generate a complete graph on `n` vertices (undirected, unweighted).
pub fn complete(num_vertices: usize) -> CsrGraph {
    let mut builder = GraphBuilder::new(num_vertices);
    for u in 0..num_vertices as VertexId {
        for v in 0..num_vertices as VertexId {
            if u != v {
                builder.add_unweighted_edge(u, v);
            }
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_has_expected_scale() {
        let g = rmat(8, 4, 1);
        assert_eq!(g.num_vertices(), 256);
        assert!(g.num_edges() > 0);
        assert!(g.num_edges() <= 2 * 4 * 256);
    }

    #[test]
    fn rmat_is_deterministic() {
        assert_eq!(rmat(7, 4, 99), rmat(7, 4, 99));
    }

    #[test]
    fn rmat_is_symmetric() {
        let g = rmat(6, 4, 3);
        for (u, v, _) in g.edges() {
            assert!(g.out_neighbors(v).contains(&u), "missing reverse of ({u},{v})");
        }
    }

    #[test]
    fn rmat_degree_distribution_is_skewed() {
        let g = rmat(10, 8, 5);
        let mut degrees: Vec<usize> =
            (0..g.num_vertices() as VertexId).map(|v| g.out_degree(v)).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let top = degrees[..degrees.len() / 100].iter().sum::<usize>() as f64;
        let total = degrees.iter().sum::<usize>() as f64;
        // Top 1% of vertices should hold a disproportionate share of edges.
        assert!(top / total > 0.05, "top share {}", top / total);
    }

    #[test]
    fn grid_structure() {
        let g = grid2d(10, 10, 0.0, 1);
        assert_eq!(g.num_vertices(), 100);
        // Interior vertices have degree 4, corners 2.
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(5 * 10 + 5), 4);
        // Undirected.
        for (u, v, _) in g.edges() {
            assert!(g.out_neighbors(v).contains(&u));
        }
    }

    #[test]
    fn grid_with_shortcuts_has_more_edges() {
        let plain = grid2d(20, 20, 0.0, 7);
        let shortcuts = grid2d(20, 20, 0.2, 7);
        assert!(shortcuts.num_edges() > plain.num_edges());
    }

    #[test]
    fn erdos_renyi_counts() {
        let g = erdos_renyi(100, 500, 3);
        assert_eq!(g.num_vertices(), 100);
        assert!(g.num_edges() <= 500);
        assert!(g.num_edges() > 400); // few collisions/self-loops at this density
    }

    #[test]
    fn path_and_complete() {
        let p = path(5);
        assert_eq!(p.num_edges(), 8);
        assert_eq!(p.out_degree(0), 1);
        assert_eq!(p.out_degree(2), 2);
        let k = complete(5);
        assert_eq!(k.num_edges(), 20);
        assert_eq!(k.out_degree(3), 4);
    }

    #[test]
    fn generators_handle_tiny_inputs() {
        assert_eq!(path(0).num_vertices(), 0);
        assert_eq!(path(1).num_edges(), 0);
        assert_eq!(erdos_renyi(1, 10, 0).num_edges(), 0);
        assert_eq!(grid2d(1, 1, 0.0, 0).num_edges(), 0);
    }
}
