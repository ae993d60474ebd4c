//! BFS kernel: level-ordered traversal. The priority functor is the level
//! (lowest level from the source first), as described in Section 4.2.

use fg_graph::mutation::EdgeDelta;
use fg_graph::{AdjacencyView, CsrGraph, Edge, VertexId, Weight};

use super::restart::restart_min_plus;
use crate::kernel::{FppKernel, IncrementalKernel};
use crate::operation::Priority;

/// Breadth-first-search kernel producing hop levels.
#[derive(Clone, Copy, Debug, Default)]
pub struct BfsKernel;

impl FppKernel for BfsKernel {
    type Value = ();
    type State = Vec<u32>;
    // Min-relaxation: a shorter arrival dominates, see `is_dead`.
    const PRUNES: bool = true;

    fn name(&self) -> &'static str {
        "bfs"
    }

    fn init_state(&self, graph: &CsrGraph, source: VertexId) -> Self::State {
        let mut level = vec![u32::MAX; graph.num_vertices()];
        level[source as usize] = 0;
        level
    }

    fn source_op(&self, _source: VertexId) -> (Self::Value, Priority) {
        ((), 0)
    }

    fn process(
        &self,
        graph: &AdjacencyView<'_>,
        state: &mut Self::State,
        vertex: VertexId,
        _value: Self::Value,
        priority: Priority,
        emit: &mut dyn FnMut(VertexId, Self::Value, Priority),
    ) -> u64 {
        if self.is_dead(state, vertex, priority) {
            return 0; // a lower level was written since: pruned
        }
        let next = priority as u32 + 1;
        let mut edges = 0u64;
        for t in graph.out_neighbors(vertex) {
            edges += 1;
            if next < state[t as usize] {
                state[t as usize] = next;
                emit(t, (), next as Priority);
            }
        }
        edges
    }

    fn is_dead(&self, state: &Self::State, vertex: VertexId, priority: Priority) -> bool {
        // The relax-time contract of `FppKernel::process`, as in SSSP: the
        // priority is the level.
        priority > Priority::from(state[vertex as usize])
    }
}

impl IncrementalKernel for BfsKernel {
    fn restart_seeds(
        &self,
        graph: &CsrGraph,
        state: &mut Self::State,
        source: VertexId,
        delta: EdgeDelta<'_>,
        seed: &mut dyn FnMut(VertexId, Self::Value, Priority),
    ) {
        // A hop count never depends on a weight: of the raised pairs, only
        // the edges `graph` no longer has can have carried a level.
        let deleted: Vec<Edge> = delta
            .raised
            .iter()
            .copied()
            .filter(|&(u, v, _)| graph.out_neighbors(u).binary_search(&v).is_err())
            .collect();
        let delta = EdgeDelta { raised: &deleted, ..delta };
        // BFS ignores weights: every edge offers its head level + 1.
        let step = |level: u32, _: Weight| level + 1;
        restart_min_plus(graph, state, source, delta, u32::MAX, step, seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_graph::gen;

    #[test]
    fn queue_driven_kernel_matches_sequential_bfs() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let g = gen::rmat(8, 5, 2);
        let kernel = BfsKernel;
        let mut state = kernel.init_state(&g, 4);
        let view = AdjacencyView::from_csr(&g);
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((0u64, 4u32)));
        while let Some(Reverse((priority, vertex))) = heap.pop() {
            kernel.process(&view, &mut state, vertex, (), priority, &mut |t, (), pri| {
                heap.push(Reverse((pri, t)));
            });
        }
        assert_eq!(state, fg_seq::bfs::bfs(&g, 4).level);
    }

    #[test]
    fn revisits_with_equal_or_worse_levels_are_pruned() {
        // The relax-time contract: a *worse* level is pruned at process
        // time; an *equal* one never gets that far, because the relaxation
        // that would emit it finds the entry already written.
        let g = gen::path(4);
        let kernel = BfsKernel;
        let mut state = kernel.init_state(&g, 0);
        state[1] = 1;
        let view = AdjacencyView::from_csr(&g);
        let mut emitted = Vec::new();
        assert!(
            kernel.process(&view, &mut state, 1, (), 1, &mut |t, (), l| emitted.push((t, l))) > 0
        );
        assert_eq!(emitted, vec![(2, 2)], "the source's entry is written: 0 < 2");
        assert_eq!(state[2], 2, "the neighbour's level is written when the edge is relaxed");
        emitted.clear();
        kernel.process(&view, &mut state, 1, (), 1, &mut |t, (), l| emitted.push((t, l)));
        assert!(emitted.is_empty(), "relaxing again offers an equal level: nothing is emitted");
        let mut sink = |_: VertexId, (): (), _: Priority| {};
        assert!(kernel.is_dead(&state, 1, 3) && !kernel.is_dead(&state, 1, 1));
        assert_eq!(kernel.process(&view, &mut state, 1, (), 3, &mut sink), 0);
        assert_eq!(kernel.process(&view, &mut state, 2, (), 5, &mut sink), 0);
        assert_eq!(state[1], 1);
        assert_eq!(state[2], 2);
    }

    #[test]
    fn restart_seeds_must_strictly_improve_the_target() {
        let g = gen::path(4);
        let seeds_of = |u: VertexId, v: VertexId| {
            let mut prev: Vec<u32> = vec![0, 1, 2, u32::MAX];
            let mut seeds = Vec::new();
            let delta = EdgeDelta { seeds: &[(u, v, 9)], raised: &[] };
            BfsKernel.restart_seeds(&g, &mut prev, 0, delta, &mut |t, (), p| seeds.push((t, p)));
            seeds
        };
        assert_eq!(seeds_of(0, 2), vec![(2, 1)]);
        assert_eq!(seeds_of(1, 2), vec![], "1 + 1 == 2 is a no-op edge");
        assert_eq!(seeds_of(2, 1), vec![]);
        assert_eq!(seeds_of(3, 0), vec![], "unreached tail");
        assert_eq!(seeds_of(2, 3), vec![(3, 3)], "newly reached head");
    }

    /// A weight increase raises an edge, but a BFS level ignores weights:
    /// the edge still carries every level it did, so nothing is reset or
    /// re-offered.
    #[test]
    fn a_weight_increase_on_a_tight_edge_resets_and_seeds_nothing() {
        let g = gen::path(3);
        let mut levels: Vec<u32> = vec![0, 1, 2];
        let delta = EdgeDelta { seeds: &[(0, 1, 5)], raised: &[(0, 1, 1)] };
        let mut seeds = Vec::new();
        BfsKernel.restart_seeds(&g, &mut levels, 0, delta, &mut |t, (), l| seeds.push((t, l)));
        assert_eq!(seeds, vec![]);
        assert_eq!(levels, vec![0, 1, 2]);
    }
}
