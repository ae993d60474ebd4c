//! Restarting a converged min-plus state — SSSP distances, BFS levels —
//! after an edge delta, deletions and weight increases included.
//!
//! `step(d, w)` is what an edge of weight `w` offers its head from a tail at
//! `d`; `inf` marks an unreached vertex. The restart is three steps:
//!
//! 1. **Cone.** A raised edge `(u, v, w_min)` roots `v` when `u` and `v`
//!    are reached, `v` is not the source and `step(prev[u], w_min) ≤
//!    prev[v]`: the edge may have carried `v`'s shortest path. From each
//!    cone vertex `x`, a current out-edge `(x, y, w)` adds `y` under the
//!    same test. Every cone entry is reset to `inf`.
//! 2. **Boundary.** Each cone vertex is offered the best `step` over its
//!    current in-edges from reached vertices outside the cone.
//! 3. **Delta.** Each seed edge `(u, v, w)` offers `v` `step(state[u], w)`
//!    against the reset state.
//!
//! An offer that strictly lowers its vertex's entry is written into it and
//! becomes an operation whose priority is that entry; it carries no value.
//!
//! Why the result is exact. A vertex outside the cone keeps an old shortest
//! path that avoids every raised edge — each of its tight in-edges would
//! otherwise have put it in the cone — so its entry is still the length of
//! a real path. Every edge that could now lower an entry starts at a seed,
//! or at a vertex the run will expand. The tests use `≤` and the smallest
//! weight a raised edge had over the delta's window, not `==` and its last
//! one, so the cone is also sound for a state captured at any fold inside an
//! accumulated window. A cone that is too large costs work, never
//! correctness.

use fg_graph::mutation::EdgeDelta;
use fg_graph::{CsrGraph, VertexId, Weight};

use crate::operation::Priority;

/// Restart `state`, converged from `source` on a graph `delta` turned into
/// `graph`, per the module doc; `seed` receives one operation per offer
/// that lowered an entry.
pub(crate) fn restart_min_plus<T: Copy + Ord + Into<Priority>>(
    graph: &CsrGraph,
    state: &mut [T],
    source: VertexId,
    delta: EdgeDelta<'_>,
    inf: T,
    step: impl Fn(T, Weight) -> T,
    seed: &mut dyn FnMut(VertexId, (), Priority),
) {
    // The cone, each vertex with its entry before the reset. Roots are all
    // tested against the untouched state before any of them is reset.
    let mut cone: Vec<(VertexId, T)> = delta
        .raised
        .iter()
        .filter_map(|&(u, v, w_min)| {
            let (du, dv) = (state[u as usize], state[v as usize]);
            (du != inf && dv != inf && v != source && step(du, w_min) <= dv).then_some((v, dv))
        })
        .collect();
    // A reset entry is `inf`, which is also what keeps a vertex from
    // joining twice.
    cone.retain(|&(v, _)| std::mem::replace(&mut state[v as usize], inf) != inf);
    let mut next = 0;
    while let Some(&(x, dx)) = cone.get(next) {
        next += 1;
        for (y, w) in graph.out_edges(x) {
            let dy = state[y as usize];
            if dy != inf && y != source && step(dx, w) <= dy {
                state[y as usize] = inf;
                cone.push((y, dy));
            }
        }
    }

    // Offers against the reset state: from the cone's boundary, then along
    // the seed edges.
    let reached = |state: &[T], u: VertexId| Some(state[u as usize]).filter(|&d| d != inf);
    let mut offers: Vec<(VertexId, T)> = Vec::new();
    for &(y, _) in &cone {
        let best = graph.in_edges(y).filter_map(|(x, w)| Some(step(reached(state, x)?, w))).min();
        offers.extend(best.map(|best| (y, best)));
    }
    for &(u, v, w) in delta.seeds {
        offers.extend(reached(state, u).map(|du| (v, step(du, w))));
    }
    for (v, value) in offers {
        if value < state[v as usize] {
            state[v as usize] = value;
            seed(v, (), value.into());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_graph::{Dist, GraphBuilder, INF_DIST};

    fn graph(n: usize, edges: &[(VertexId, VertexId, Weight)]) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for &(u, v, w) in edges {
            b.add_edge(u, v, w);
        }
        b.build()
    }

    fn restart(
        g: &CsrGraph,
        state: &mut [Dist],
        source: VertexId,
        delta: EdgeDelta<'_>,
    ) -> Vec<(VertexId, Dist)> {
        let mut seeds = Vec::new();
        let step = |d: Dist, w: Weight| d + w as Dist;
        restart_min_plus(g, state, source, delta, INF_DIST, step, &mut |v, (), d| {
            seeds.push((v, d))
        });
        seeds
    }

    #[test]
    fn a_tight_deletion_resets_its_subtree_and_reseeds_it_from_the_boundary() {
        // 0 → 1 → 2 → 3 (weight 1 each), plus a detour 0 → 2 (5). Deleting
        // 1 → 2 puts 2 and 3 in the cone; 2 is re-offered 5 from 0.
        let g = graph(4, &[(0, 1, 1), (0, 2, 5), (2, 3, 1)]);
        let mut state = vec![0, 1, 2, 3];
        let raised = [(1, 2, 1)];
        let seeds = restart(&g, &mut state, 0, EdgeDelta { seeds: &[], raised: &raised });
        assert_eq!(seeds, vec![(2, 5)]);
        assert_eq!(state, vec![0, 1, 5, INF_DIST], "3 waits for the run to expand 2");
    }

    #[test]
    fn a_slack_deletion_resets_nothing() {
        // 0 → 2 (5) is not on 2's shortest path (0 → 1 → 2 costs 2).
        let g = graph(3, &[(0, 1, 1), (1, 2, 1)]);
        let mut state = vec![0, 1, 2];
        let raised = [(0, 2, 5)];
        let seeds = restart(&g, &mut state, 0, EdgeDelta { seeds: &[], raised: &raised });
        assert!(seeds.is_empty());
        assert_eq!(state, vec![0, 1, 2]);
    }

    #[test]
    fn the_source_never_joins_the_cone() {
        // A zero-weight cycle through the source: 0 → 1 (0), 1 → 0 (0).
        // Deleting 0 → 1 roots 1, and 1 → 0 offers the source 0 ≤ 0.
        let g = graph(2, &[(1, 0, 0)]);
        let mut state = vec![0, 0];
        let raised = [(0, 1, 0)];
        let seeds = restart(&g, &mut state, 0, EdgeDelta { seeds: &[], raised: &raised });
        assert!(seeds.is_empty());
        assert_eq!(state, vec![0, INF_DIST]);
    }
}
