//! The atomic-free, topology-driven SSSP (Appendix E sanity check).
//!
//! Threads update distances without synchronisation; lost updates are
//! recovered in later rounds thanks to the monotonicity of shortest-path
//! relaxation (Nasre, Burtscher and Pingali, GPGPU 2013).
//! The paper implements this on top of Ligra's Bellman–Ford as a sanity check
//! and finds it a few times *slower* than the atomic-based version on
//! multi-cores because of redundant updates. This module runs it on one
//! thread, where the redundant work shows as edge counts: every round scans
//! every reached vertex, changed or not.

use fg_graph::{CsrGraph, Dist, VertexId, INF_DIST};
use fg_metrics::WorkSnapshot;

/// Topology-driven Bellman–Ford.
///
/// Every round scans *all* vertices in id order and relaxes the out-edges of
/// each reached one; the algorithm iterates until a round changes nothing.
/// Adds its rounds and edges to `work` and returns the distance vector.
pub fn atomic_free_sssp(graph: &CsrGraph, source: VertexId, work: &mut WorkSnapshot) -> Vec<Dist> {
    let n = graph.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let mut dist = vec![INF_DIST; n];
    dist[source as usize] = 0;

    loop {
        work.iterations += 1;
        let mut changed = false;
        for u in 0..n {
            let du = dist[u];
            if du == INF_DIST {
                continue;
            }
            work.edges_processed += graph.out_degree(u as VertexId) as u64;
            for (v, w) in graph.out_edges(u as VertexId) {
                let nd = du + w as Dist;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_graph::gen;
    use fg_seq::dijkstra::dijkstra;

    #[test]
    fn atomic_free_matches_dijkstra() {
        let g = gen::erdos_renyi(250, 2000, 9).with_random_weights(8, 9);
        let d = atomic_free_sssp(&g, 0, &mut WorkSnapshot::default());
        assert_eq!(d, dijkstra(&g, 0).dist);
    }

    #[test]
    fn atomic_free_processes_more_edges_than_dijkstra() {
        let g = gen::grid2d(22, 22, 0.0, 2).with_random_weights(6, 2);
        let mut work = WorkSnapshot::default();
        let _ = atomic_free_sssp(&g, 0, &mut work);
        let d = dijkstra(&g, 0);
        assert!(
            work.edges_processed > 2 * d.edges_processed,
            "atomic-free {} vs dijkstra {}",
            work.edges_processed,
            d.edges_processed
        );
    }

    #[test]
    fn unreachable_vertices_remain_infinite() {
        let mut b = fg_graph::GraphBuilder::new(6);
        b.add_edge(0, 1, 3);
        b.add_edge(4, 5, 1);
        let g = b.build();
        let d = atomic_free_sssp(&g, 0, &mut WorkSnapshot::default());
        assert_eq!(d[1], 3);
        assert_eq!(d[4], INF_DIST);
    }
}
