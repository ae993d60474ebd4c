//! DFS kernel: depth-first exploration expressed as buffered operations.
//!
//! Buffered, partition-at-a-time execution cannot reproduce the exact global
//! DFS discovery order of a recursive traversal (operations from different
//! partitions interleave), so this kernel — like the DFS queries evaluated in
//! Figure 15 of the paper — provides a *depth-first flavoured reachability*
//! query: within a partition the most recently discovered vertices are
//! expanded first (LIFO priorities), and the result records the set of reached
//! vertices together with a discovery index.

use fg_graph::{AdjacencyView, CsrGraph, VertexId};

use crate::kernel::FppKernel;
use crate::operation::Priority;

/// Per-query DFS state: discovery order per vertex (`u32::MAX` = unreached).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DfsState {
    /// Discovery index per vertex.
    pub order: Vec<u32>,
    /// Number of vertices discovered so far.
    pub discovered: u32,
}

/// Depth-first-search kernel.
#[derive(Clone, Copy, Debug, Default)]
pub struct DfsKernel;

impl FppKernel for DfsKernel {
    type Value = ();
    type State = DfsState;

    fn name(&self) -> &'static str {
        "dfs"
    }

    fn init_state(&self, graph: &CsrGraph, _source: VertexId) -> Self::State {
        DfsState { order: vec![u32::MAX; graph.num_vertices()], discovered: 0 }
    }

    fn source_op(&self, _source: VertexId) -> (Self::Value, Priority) {
        ((), Priority::MAX)
    }

    fn process(
        &self,
        graph: &AdjacencyView<'_>,
        state: &mut Self::State,
        vertex: VertexId,
        _value: Self::Value,
        _priority: Priority,
        emit: &mut dyn FnMut(VertexId, Self::Value, Priority),
    ) -> u64 {
        if state.order[vertex as usize] != u32::MAX {
            return 0; // already discovered
        }
        state.order[vertex as usize] = state.discovered;
        state.discovered += 1;
        // LIFO priorities: operations emitted later get *smaller* priorities so
        // the per-query priority queue behaves like a stack.
        let priority = Priority::MAX - state.discovered as Priority;
        let mut edges = 0u64;
        for t in graph.out_neighbors(vertex) {
            edges += 1;
            if state.order[t as usize] == u32::MAX {
                emit(t, (), priority);
            }
        }
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_graph::gen;

    fn run_unpartitioned(graph: &CsrGraph, source: VertexId) -> DfsState {
        use std::collections::BinaryHeap;

        use crate::operation::{HeapEntry, Operation};
        let kernel = DfsKernel;
        let mut state = kernel.init_state(graph, source);
        let view = AdjacencyView::from_csr(graph);
        let mut heap = BinaryHeap::new();
        let (v0, p0) = kernel.source_op(source);
        heap.push(HeapEntry { op: Operation::new(0, source, v0, p0) });
        while let Some(entry) = heap.pop() {
            let Operation { vertex, value, priority, .. } = entry.op;
            kernel.process(&view, &mut state, vertex, value, priority, &mut |t, val, pri| {
                heap.push(HeapEntry { op: Operation::new(0, t, val, pri) });
            });
        }
        state
    }

    #[test]
    fn reaches_the_same_set_as_sequential_dfs() {
        let g = gen::rmat(8, 4, 6);
        let ours = run_unpartitioned(&g, 0);
        let reference = fg_seq::dfs::dfs(&g, 0);
        for v in 0..g.num_vertices() {
            assert_eq!(
                ours.order[v] != u32::MAX,
                reference.order[v] != u32::MAX,
                "reachability mismatch at {v}"
            );
        }
        assert_eq!(ours.discovered as usize, reference.num_reached());
    }

    #[test]
    fn discovery_indices_are_unique_and_contiguous() {
        let g = gen::grid2d(8, 8, 0.1, 1);
        let state = run_unpartitioned(&g, 0);
        let mut seen: Vec<u32> = state.order.iter().copied().filter(|&o| o != u32::MAX).collect();
        seen.sort_unstable();
        for (i, o) in seen.iter().enumerate() {
            assert_eq!(*o, i as u32);
        }
    }

    #[test]
    fn goes_deep_before_wide_on_a_tree() {
        // 0 -> 1 -> 3, 0 -> 2: with LIFO priorities, 3 is discovered before 2.
        let mut b = fg_graph::GraphBuilder::new(4);
        b.add_edge(0, 1, 1);
        b.add_edge(0, 2, 1);
        b.add_edge(1, 3, 1);
        let g = b.build();
        let state = run_unpartitioned(&g, 0);
        assert!(state.order[3] < state.order[2]);
    }
}
