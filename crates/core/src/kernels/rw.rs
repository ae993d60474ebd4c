//! Random-walk kernel: batches of walkers hop through the graph; an operation
//! carries a batch of walkers located at a vertex with a number of remaining
//! steps. Walkers that stay inside the current partition are processed locally
//! (good temporal locality, as the paper notes for RW queries in Figure 15);
//! walkers that cross a partition boundary are forwarded as buffered
//! operations.

use fg_graph::{AdjacencyView, CsrGraph, VertexId};
use fg_seq::random_walk::RandomWalkConfig;

use crate::kernel::FppKernel;
use crate::operation::Priority;

/// A batch of walkers sitting at the same vertex.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkerBatch {
    /// Number of walkers in the batch.
    pub walkers: u32,
    /// Steps each walker still has to take.
    pub steps_remaining: u32,
    /// Deterministic RNG state for this batch.
    pub seed: u64,
}

/// Per-query random-walk state: visit counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RwState {
    /// Number of walker visits per vertex.
    pub visits: Vec<u64>,
}

impl RwState {
    /// Total recorded visits.
    pub fn total_visits(&self) -> u64 {
        self.visits.iter().sum()
    }
}

/// Random-walk kernel.
#[derive(Clone, Copy, Debug, Default)]
pub struct RandomWalkKernel {
    /// Walk length, walker count, and restart probability.
    pub config: RandomWalkConfig,
}

impl RandomWalkKernel {
    /// Create a kernel with the given walk parameters.
    pub fn new(config: RandomWalkConfig) -> Self {
        RandomWalkKernel { config }
    }

    fn next_seed(seed: u64, salt: u64) -> u64 {
        let mut x = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x
    }
}

impl FppKernel for RandomWalkKernel {
    type Value = WalkerBatch;
    type State = RwState;

    fn name(&self) -> &'static str {
        "random-walk"
    }

    fn init_state(&self, graph: &CsrGraph, _source: VertexId) -> Self::State {
        RwState { visits: vec![0; graph.num_vertices()] }
    }

    fn source_op(&self, source: VertexId) -> (Self::Value, Priority) {
        let batch = WalkerBatch {
            walkers: self.config.num_walks as u32,
            steps_remaining: self.config.walk_length as u32,
            seed: Self::next_seed(self.config.seed, source as u64),
        };
        // Walkers with more remaining steps are processed first so batches
        // finish together.
        (batch, batch_priority(&batch))
    }

    fn process(
        &self,
        graph: &AdjacencyView<'_>,
        state: &mut Self::State,
        vertex: VertexId,
        value: Self::Value,
        _priority: Priority,
        emit: &mut dyn FnMut(VertexId, Self::Value, Priority),
    ) -> u64 {
        state.visits[vertex as usize] += value.walkers as u64;
        if value.steps_remaining == 0 || value.walkers == 0 {
            return 0;
        }
        let degree = graph.out_degree(vertex);
        if degree == 0 {
            // Dangling vertex: walkers stay put for their remaining steps.
            state.visits[vertex as usize] += value.walkers as u64 * value.steps_remaining as u64;
            return 0;
        }
        // Distribute the batch over the neighbours with a deterministic split
        // derived from the batch seed.
        let mut remaining = value.walkers;
        let mut edges = 0u64;
        let mut seed = value.seed;
        let share = (value.walkers as usize / degree).max(1) as u32;
        let mut idx = 0usize;
        while remaining > 0 {
            seed = Self::next_seed(seed, vertex as u64 + idx as u64);
            let target = graph.neighbor_at(vertex, (seed % degree as u64) as usize);
            let walkers = share.min(remaining);
            remaining -= walkers;
            edges += walkers as u64;
            let batch = WalkerBatch {
                walkers,
                steps_remaining: value.steps_remaining - 1,
                seed: Self::next_seed(seed, target as u64),
            };
            emit(target, batch, batch_priority(&batch));
            idx += 1;
        }
        edges
    }
}

fn batch_priority(batch: &WalkerBatch) -> Priority {
    // Fewer remaining steps = closer to termination = processed first, which
    // drains walkers instead of letting them pile up.
    batch.steps_remaining as Priority
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_graph::gen;

    fn run_unpartitioned(graph: &CsrGraph, source: VertexId, config: RandomWalkConfig) -> RwState {
        use std::collections::BinaryHeap;

        use crate::operation::{HeapEntry, Operation};
        let kernel = RandomWalkKernel::new(config);
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
    fn total_visits_match_walkers_times_steps() {
        let g = gen::rmat(7, 5, 1);
        let config = RandomWalkConfig { num_walks: 8, walk_length: 10, restart_prob: 0.0, seed: 2 };
        let state = run_unpartitioned(&g, 0, config);
        // Every walker is counted once per step plus once at the start.
        assert_eq!(state.total_visits(), 8 * (10 + 1));
    }

    #[test]
    fn dangling_vertices_absorb_walkers() {
        let mut b = fg_graph::GraphBuilder::new(2);
        b.add_edge(0, 1, 1);
        let g = b.build();
        let config = RandomWalkConfig { num_walks: 4, walk_length: 5, restart_prob: 0.0, seed: 1 };
        let state = run_unpartitioned(&g, 0, config);
        assert_eq!(state.total_visits(), 4 * (5 + 1));
        assert!(state.visits[1] > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = gen::rmat(7, 5, 3);
        let config = RandomWalkConfig { num_walks: 6, walk_length: 12, restart_prob: 0.0, seed: 9 };
        assert_eq!(run_unpartitioned(&g, 2, config), run_unpartitioned(&g, 2, config));
    }

    #[test]
    fn zero_length_walks_only_visit_the_source() {
        let g = gen::complete(5);
        let config = RandomWalkConfig { num_walks: 3, walk_length: 0, restart_prob: 0.0, seed: 4 };
        let state = run_unpartitioned(&g, 1, config);
        assert_eq!(state.visits[1], 3);
        assert_eq!(state.total_visits(), 3);
    }
}
