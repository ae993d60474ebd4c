//! Conductance and sweep cuts, the aggregation primitive of the NCP
//! application (Leskovec et al.'s network community profile).

use fg_graph::{CsrGraph, VertexId};

/// Conductance of a vertex set `S`: `cut(S, V\S) / min(vol(S), vol(V\S))`,
/// where `vol` is the sum of out-degrees. Returns 1.0 for empty or full sets.
pub fn conductance(graph: &CsrGraph, set: &[VertexId]) -> f64 {
    let total_volume: usize = graph.num_edges();
    if set.is_empty() || total_volume == 0 {
        return 1.0;
    }
    let mut member = vec![false; graph.num_vertices()];
    for &v in set {
        member[v as usize] = true;
    }
    let mut volume = 0usize;
    let mut cut = 0usize;
    for &v in set {
        volume += graph.out_degree(v);
        for &t in graph.out_neighbors(v) {
            if !member[t as usize] {
                cut += 1;
            }
        }
    }
    let denom = volume.min(total_volume - volume);
    if denom == 0 {
        1.0
    } else {
        cut as f64 / denom as f64
    }
}

/// Sweep cut over a PPR vector: order vertices by `estimate / degree`
/// (descending) and return, for every prefix size, the prefix conductance.
/// The best prefix is the approximate local cluster around the PPR seed.
pub fn sweep_cut(graph: &CsrGraph, estimates: &[(VertexId, f64)]) -> Vec<(usize, f64)> {
    if estimates.is_empty() {
        return Vec::new();
    }
    let mut order: Vec<(VertexId, f64)> =
        estimates.iter().map(|&(v, p)| (v, p / graph.out_degree(v).max(1) as f64)).collect();
    order.sort_by(|a, b| b.1.total_cmp(&a.1));

    let total_volume = graph.num_edges();
    let mut member = vec![false; graph.num_vertices()];
    let mut volume = 0usize;
    let mut cut = 0isize;
    let mut profile = Vec::with_capacity(order.len());
    for (i, &(v, _)) in order.iter().enumerate() {
        member[v as usize] = true;
        volume += graph.out_degree(v);
        // New out-edges from v that leave the (enlarged) set start crossing;
        // out-edges into existing members never were part of the cut.
        for &t in graph.out_neighbors(v) {
            if !member[t as usize] {
                cut += 1;
            }
        }
        // Out-edges of existing members that pointed at v stop crossing.
        for &s in graph.in_neighbors(v) {
            if member[s as usize] && s != v {
                cut -= 1;
            }
        }
        let denom = volume.min(total_volume.saturating_sub(volume));
        let phi = if denom == 0 { 1.0 } else { (cut.max(0)) as f64 / denom as f64 };
        profile.push((i + 1, phi));
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_graph::{gen, GraphBuilder};

    /// Two dense clusters joined by a single bridge edge.
    fn two_cliques() -> CsrGraph {
        let mut b = GraphBuilder::new(10);
        for u in 0..5u32 {
            for v in 0..5u32 {
                if u != v {
                    b.add_unweighted_edge(u, v);
                }
            }
        }
        for u in 5..10u32 {
            for v in 5..10u32 {
                if u != v {
                    b.add_unweighted_edge(u, v);
                }
            }
        }
        b.add_undirected_edge(0, 5, 1);
        b.build()
    }

    #[test]
    fn clique_has_low_conductance_random_set_has_high() {
        let g = two_cliques();
        let clique: Vec<u32> = (0..5).collect();
        let scattered: Vec<u32> = vec![0, 2, 6, 8];
        assert!(conductance(&g, &clique) < 0.1);
        assert!(conductance(&g, &scattered) > 0.3);
    }

    #[test]
    fn conductance_edge_cases() {
        let g = two_cliques();
        assert_eq!(conductance(&g, &[]), 1.0);
        let all: Vec<u32> = (0..10).collect();
        assert_eq!(conductance(&g, &all), 1.0); // complement empty
    }

    #[test]
    fn sweep_cut_conductances_match_direct_computation() {
        let g = two_cliques();
        let estimates: Vec<(u32, f64)> =
            vec![(0, 0.5), (1, 0.3), (2, 0.2), (3, 0.15), (4, 0.1), (6, 0.01)];
        let profile = sweep_cut(&g, &estimates);
        assert_eq!(profile.len(), estimates.len());
        // Recompute each prefix directly and compare.
        let mut order: Vec<(u32, f64)> =
            estimates.iter().map(|&(v, p)| (v, p / g.out_degree(v).max(1) as f64)).collect();
        order.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (i, &(size, phi)) in profile.iter().enumerate() {
            assert_eq!(size, i + 1);
            let prefix: Vec<u32> = order[..=i].iter().map(|&(v, _)| v).collect();
            let direct = conductance(&g, &prefix);
            assert!((phi - direct).abs() < 1e-9, "prefix {i}: sweep {phi} vs direct {direct}");
        }
    }

    #[test]
    fn the_sweep_minimum_recovers_the_planted_cluster() {
        let g = two_cliques();
        // PPR-like estimates concentrated on the first clique.
        let estimates: Vec<(u32, f64)> =
            vec![(0, 0.4), (1, 0.2), (2, 0.15), (3, 0.1), (4, 0.08), (5, 0.02), (6, 0.01)];
        let (size, phi) =
            sweep_cut(&g, &estimates).into_iter().min_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
        assert_eq!(size, 5, "the best cluster is the 5-vertex clique");
        assert!(phi < 0.1);
    }

    #[test]
    fn empty_estimates_produce_empty_profile() {
        let g = gen::path(4);
        assert!(sweep_cut(&g, &[]).is_empty());
    }
}
