//! SSSP kernel: sequential Dijkstra-style relaxation driven by buffered
//! operations. The priority functor is the tentative distance (shorter paths
//! first), exactly the Dijkstra functor the paper reuses for BC and LL.

use fg_graph::mutation::EdgeDelta;
use fg_graph::{AdjacencyView, CsrGraph, Dist, VertexId, Weight, INF_DIST};

use super::restart::restart_min_plus;
use crate::kernel::{FppKernel, IncrementalKernel};
use crate::operation::Priority;

/// Single-source shortest paths kernel.
#[derive(Clone, Copy, Debug, Default)]
pub struct SsspKernel;

impl FppKernel for SsspKernel {
    type Value = ();
    type State = Vec<Dist>;
    // Min-relaxation: a shorter arrival dominates, see `is_dead`.
    const PRUNES: bool = true;

    fn name(&self) -> &'static str {
        "sssp"
    }

    fn init_state(&self, graph: &CsrGraph, source: VertexId) -> Self::State {
        let mut dist = vec![INF_DIST; graph.num_vertices()];
        dist[source as usize] = 0;
        dist
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
            return 0; // a shorter path was written since: pruned
        }
        let dist: Dist = priority;
        let mut edges = 0u64;
        for (t, w) in graph.out_edges(vertex) {
            edges += 1;
            let nd = dist + w as Dist;
            if nd < state[t as usize] {
                state[t as usize] = nd;
                emit(t, (), nd);
            }
        }
        edges
    }

    fn is_dead(&self, state: &Self::State, vertex: VertexId, priority: Priority) -> bool {
        // The relax-time contract of `FppKernel::process`: tentative
        // distances are written when an edge is relaxed, so an operation is
        // live exactly while its priority — its distance — is the entry's.
        priority > state[vertex as usize]
    }
}

impl IncrementalKernel for SsspKernel {
    fn restart_seeds(
        &self,
        graph: &CsrGraph,
        state: &mut Self::State,
        source: VertexId,
        delta: EdgeDelta<'_>,
        seed: &mut dyn FnMut(VertexId, Self::Value, Priority),
    ) {
        let step = |d: Dist, w: Weight| d + w as Dist;
        restart_min_plus(graph, state, source, delta, INF_DIST, step, seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_graph::gen;

    /// Drive the kernel with a single global priority queue (no partitions):
    /// this must behave exactly like Dijkstra's algorithm.
    fn run_unpartitioned(graph: &CsrGraph, source: VertexId) -> Vec<Dist> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let kernel = SsspKernel;
        let mut state = kernel.init_state(graph, source);
        let view = AdjacencyView::from_csr(graph);
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((kernel.source_op(source).1, source)));
        while let Some(Reverse((priority, vertex))) = heap.pop() {
            kernel.process(&view, &mut state, vertex, (), priority, &mut |t, (), pri| {
                heap.push(Reverse((pri, t)));
            });
        }
        state
    }

    #[test]
    fn kernel_driven_by_a_priority_queue_equals_dijkstra() {
        let g = gen::erdos_renyi(200, 1400, 3).with_random_weights(9, 3);
        assert_eq!(run_unpartitioned(&g, 0), fg_seq::dijkstra::dijkstra(&g, 0).dist);
    }

    #[test]
    fn stale_operations_are_pruned_without_work() {
        let g = gen::path(5).with_random_weights(1, 0);
        let kernel = SsspKernel;
        let mut state = kernel.init_state(&g, 0);
        let view = AdjacencyView::from_csr(&g);
        let mut sink = |_: VertexId, (): (), _: Priority| {};
        assert!(kernel.process(&view, &mut state, 0, (), 0, &mut sink) > 0);
        // Re-processing the source at a worse priority does nothing, and
        // `is_dead` says so before it is popped.
        assert!(kernel.is_dead(&state, 0, 5) && !kernel.is_dead(&state, 0, 0));
        assert_eq!(kernel.process(&view, &mut state, 0, (), 5, &mut sink), 0);
        assert_eq!(state[0], 0);
    }

    #[test]
    fn tentative_distances_are_written_at_relax_time() {
        // 0 - 1 - 2 with unit weights.
        let g = gen::path(3).with_random_weights(1, 0);
        let kernel = SsspKernel;
        let mut state = kernel.init_state(&g, 0);
        let view = AdjacencyView::from_csr(&g);
        let mut emitted = Vec::new();
        kernel.process(&view, &mut state, 0, (), 0, &mut |t, (), pri| emitted.push((t, pri)));
        // The relaxation wrote the neighbour's entry and emitted it once …
        assert_eq!(emitted, vec![(1, 1)]);
        assert_eq!(state[1], 1);
        // … so relaxing the same edge again emits nothing (equal is not
        // better), while the one emitted operation is live and expands.
        emitted.clear();
        kernel.process(&view, &mut state, 0, (), 0, &mut |t, (), pri| emitted.push((t, pri)));
        assert!(emitted.is_empty(), "an equal value is never emitted twice");
        assert!(kernel.process(&view, &mut state, 1, (), 1, &mut |_, (), _| {}) > 0);
        // A worse operation for a written vertex is pruned on arrival.
        assert_eq!(kernel.process(&view, &mut state, 1, (), 4, &mut |_, (), _| {}), 0);
        assert_eq!(state[1], 1);
    }

    #[test]
    fn restart_seeds_must_strictly_improve_the_target() {
        let g = gen::path(4).with_random_weights(1, 0);
        let seeds_of = |u: VertexId, v: VertexId, w: Weight| {
            let mut prev: Vec<Dist> = vec![0, 4, 9, INF_DIST];
            let mut seeds = Vec::new();
            let delta = EdgeDelta { seeds: &[(u, v, w)], raised: &[] };
            SsspKernel.restart_seeds(&g, &mut prev, 0, delta, &mut |t, (), p| seeds.push((t, p)));
            seeds
        };
        assert_eq!(seeds_of(1, 2, 3), vec![(2, 7)], "4 + 3 < 9");
        assert_eq!(seeds_of(1, 2, 5), vec![], "4 + 5 == 9 is a no-op edge");
        assert_eq!(seeds_of(1, 2, 6), vec![]);
        assert_eq!(seeds_of(3, 2, 1), vec![], "unreached tail");
        assert_eq!(seeds_of(2, 3, 1), vec![(3, 10)], "newly reached head");
    }

    #[test]
    fn emitted_priorities_are_the_written_tentative_distances() {
        let g = gen::complete(4).with_random_weights(5, 1);
        let kernel = SsspKernel;
        let mut state = kernel.init_state(&g, 0);
        let view = AdjacencyView::from_csr(&g);
        let mut emitted = Vec::new();
        kernel.process(&view, &mut state, 0, (), 0, &mut |t, (), pri| emitted.push((t, pri)));
        assert!(!emitted.is_empty());
        for (t, pri) in emitted {
            assert_eq!(state[t as usize], pri);
        }
    }
}
