//! Atomic-free, topology-driven SSSP (Appendix E sanity check).
//!
//! Multiple threads update distances without synchronisation; lost updates are
//! recovered in later rounds thanks to the monotonicity of shortest-path
//! relaxation (Nasre et al., "Atomic-free irregular computations on GPUs").
//! The paper implements this on top of Ligra's Bellman–Ford as a sanity check
//! and finds it a few times *slower* than the atomic-based version on
//! multi-cores because of redundant updates; this module reproduces that
//! comparison.

use std::sync::atomic::{AtomicU64, Ordering};

use fg_graph::{CsrGraph, Dist, VertexId, INF_DIST};
use fg_metrics::WorkCounters;

use crate::kernels::par_chunks;

/// Topology-driven, atomic-free Bellman–Ford.
///
/// Every round scans *all* vertices and relaxes their out-edges using plain
/// (racy but monotone) writes through a relaxed-ordering view of the distance
/// array, the vertices split over `threads`; the algorithm iterates until a
/// round changes nothing. Returns the distance vector.
pub fn atomic_free_sssp(
    graph: &CsrGraph,
    source: VertexId,
    threads: usize,
    counters: &WorkCounters,
) -> Vec<Dist> {
    let n = graph.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    // The distances are stored in atomics but accessed with plain
    // load/store (no compare-and-swap, no fetch_min): concurrent writers may
    // overwrite each other, which is exactly the lost-update behaviour the
    // topology-driven algorithm tolerates.
    let dist: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(INF_DIST)).collect();
    dist[source as usize].store(0, Ordering::Relaxed);
    let vertices: Vec<VertexId> = (0..n as VertexId).collect();

    loop {
        counters.add_iteration();
        let relax_vertex = |u: VertexId| -> bool {
            let du = dist[u as usize].load(Ordering::Relaxed);
            if du == INF_DIST {
                return false;
            }
            let mut changed = false;
            counters.add_edges(graph.out_degree(u) as u64);
            for (v, w) in graph.out_edges(u) {
                let nd = du + w as Dist;
                if nd < dist[v as usize].load(Ordering::Relaxed) {
                    // Plain store: may lose races, fixed in a later round.
                    dist[v as usize].store(nd, Ordering::Relaxed);
                    changed = true;
                }
            }
            changed
        };
        // `|`, not `||`: every vertex relaxes in every round.
        let changed = par_chunks(&vertices, threads, |chunk| {
            chunk.iter().fold(false, |changed, &u| relax_vertex(u) | changed)
        });
        if !changed.contains(&true) {
            break;
        }
    }
    dist.into_iter().map(|d| d.into_inner()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_graph::gen;
    use fg_seq::dijkstra::dijkstra;

    #[test]
    fn atomic_free_matches_dijkstra_sequentially_and_in_parallel() {
        let g = gen::erdos_renyi(250, 2000, 9).with_random_weights(8, 9);
        let oracle = dijkstra(&g, 0).dist;
        for threads in [1, 3] {
            let counters = WorkCounters::new();
            let d = atomic_free_sssp(&g, 0, threads, &counters);
            assert_eq!(d, oracle, "threads={threads}");
        }
    }

    #[test]
    fn atomic_free_processes_more_edges_than_dijkstra() {
        let g = gen::grid2d(22, 22, 0.0, 2).with_random_weights(6, 2);
        let counters = WorkCounters::new();
        let _ = atomic_free_sssp(&g, 0, 1, &counters);
        let d = dijkstra(&g, 0);
        assert!(
            counters.snapshot().edges_processed > 2 * d.edges_processed,
            "atomic-free {} vs dijkstra {}",
            counters.snapshot().edges_processed,
            d.edges_processed
        );
    }

    #[test]
    fn unreachable_vertices_remain_infinite() {
        let mut b = fg_graph::GraphBuilder::new(6);
        b.add_edge(0, 1, 3);
        b.add_edge(4, 5, 1);
        let g = b.build();
        let counters = WorkCounters::new();
        let d = atomic_free_sssp(&g, 0, 3, &counters);
        assert_eq!(d[1], 3);
        assert_eq!(d[4], INF_DIST);
    }
}
