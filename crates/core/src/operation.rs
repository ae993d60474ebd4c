//! Operations: the ⟨query, vertex, value⟩ triples of Definition 2.3.

use fg_graph::VertexId;

/// Scheduling priority of an operation. **Lower is better** (processed
/// earlier): for SSSP the priority is the tentative distance, for BFS the
/// level, for PPR a decreasing function of the residual.
pub type Priority = u64;

/// An operation of an FPP query: "apply `value` at `vertex` on behalf of
/// `query`".
///
/// With a `()` value — SSSP, BFS, PPR and DFS, whose priority or state holds
/// everything an operation needs — the `u32` pair and the `u64` priority
/// fill exactly 16 bytes; a `u32` or `u64` value beside them pads to 24.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Operation<V> {
    /// Index of the query within the FPP batch.
    pub query: u32,
    /// Target vertex (global id).
    pub vertex: VertexId,
    /// Kernel-specific payload beside the priority (a walker batch, a
    /// custom kernel's value; `()` for the built-in traversals).
    pub value: V,
    /// Scheduling priority given by the kernel's priority functor (for
    /// SSSP and BFS the tentative distance or level itself); lower values
    /// are processed first.
    pub priority: Priority,
}

const _: () = assert!(std::mem::size_of::<Operation<()>>() == 16);

impl<V> Operation<V> {
    /// Create an operation.
    pub fn new(query: u32, vertex: VertexId, value: V, priority: Priority) -> Self {
        Operation { query, vertex, value, priority }
    }
}

/// Heap entry ordering operations by priority alone, lowest first, for use
/// inside a `BinaryHeap<Reverse<…>>`-style min-queue. Entries of equal
/// priority pop in an order the heap's pushes and pops decide, nothing else.
#[derive(Clone, Copy, Debug)]
pub struct HeapEntry<V> {
    /// The wrapped operation.
    pub op: Operation<V>,
}

impl<V> PartialEq for HeapEntry<V> {
    fn eq(&self, other: &Self) -> bool {
        self.op.priority == other.op.priority
    }
}

impl<V> Eq for HeapEntry<V> {}

impl<V> PartialOrd for HeapEntry<V> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<V> Ord for HeapEntry<V> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse so that a max-heap (std BinaryHeap) pops the *smallest*
        // priority first.
        other.op.priority.cmp(&self.op.priority)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    #[test]
    fn construction() {
        let op = Operation::new(2, 7, 3.5f64, 10);
        assert_eq!(op.query, 2);
        assert_eq!(op.vertex, 7);
        assert_eq!(op.priority, 10);
    }

    #[test]
    fn heap_pops_lowest_priority_first() {
        let mut heap = BinaryHeap::new();
        for (v, p) in [(1u32, 30u64), (2, 10), (3, 20)] {
            heap.push(HeapEntry { op: Operation::new(0, v, (), p) });
        }
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop().map(|e| e.op.priority)).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn equal_priorities_tie_whatever_the_vertex() {
        let (a, b) = (Operation::new(0, 9, (), 5), Operation::new(0, 2, (), 5));
        assert_eq!(HeapEntry { op: a }.cmp(&HeapEntry { op: b }), std::cmp::Ordering::Equal);
        assert!(HeapEntry { op: Operation::new(0, 9, (), 4) } > HeapEntry { op: b });
    }
}
