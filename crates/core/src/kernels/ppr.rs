//! PPR kernel: push-based approximate personalized PageRank
//! (Andersen–Chung–Lang), the query type behind the NCP application.
//!
//! A push at `v` keeps `alpha·r` as estimate, retains half of the rest as
//! residual and adds the other half, split evenly, **straight into each
//! out-neighbour's residual** — on the edge, as `fg_seq::ppr::ppr_push`
//! does. That is the engine's combine-at-emit-time contract (see
//! [`FppKernel::process`]) with addition as the combiner: an operation is
//! emitted for a neighbour only when the share carries its residual across
//! `epsilon · degree`, so a vertex has a live operation exactly while its
//! residual is at or above its threshold, and every operation that is popped
//! performs a push. Operations carry no value (`()`): the source's unit of
//! mass is written into its residual by `init_state`, and every other
//! operation's mass is already in its target's residual when it is emitted.
//! The priority functor prefers larger residuals (the "most effective value
//! changes" of Section 5.2).
//!
//! [`PprConfig::max_pushes`] caps the pushes of one query, as in `fg-seq`:
//! once it is reached, operations still in flight do nothing and the
//! unpushed mass stays in `residual`.

use fg_graph::{AdjacencyView, CsrGraph, VertexId};
use fg_seq::ppr::PprConfig;

use crate::kernel::FppKernel;
use crate::operation::Priority;

/// Per-query PPR state.
#[derive(Clone, Debug, PartialEq)]
pub struct PprState {
    /// PPR estimates (dense; zero for untouched vertices).
    pub estimate: Vec<f64>,
    /// Residual mass (dense).
    pub residual: Vec<f64>,
    /// Number of pushes performed.
    pub pushes: u64,
}

impl PprState {
    /// Sparse `(vertex, estimate)` pairs with positive estimates.
    pub fn sparse_estimates(&self) -> Vec<(VertexId, f64)> {
        self.estimate
            .iter()
            .enumerate()
            .filter(|(_, &p)| p > 0.0)
            .map(|(v, &p)| (v as VertexId, p))
            .collect()
    }

    /// Total mass accounted for (estimates + residual); stays ≈ 1.
    pub fn total_mass(&self) -> f64 {
        self.estimate.iter().sum::<f64>() + self.residual.iter().sum::<f64>()
    }
}

/// Personalized-PageRank kernel.
#[derive(Clone, Copy, Debug, Default)]
pub struct PprKernel {
    /// Push thresholds and teleport probability.
    pub config: PprConfig,
}

impl PprKernel {
    /// Create a kernel with the given PPR parameters.
    pub fn new(config: PprConfig) -> Self {
        PprKernel { config }
    }

    /// Priority functor: larger residuals get smaller (better) priorities.
    pub fn priority_of(residual: f64) -> Priority {
        if residual <= 0.0 {
            return Priority::MAX;
        }
        (1.0 / residual).min(1e15) as Priority
    }
}

impl FppKernel for PprKernel {
    type Value = ();
    type State = PprState;

    fn name(&self) -> &'static str {
        "ppr"
    }

    fn init_state(&self, graph: &CsrGraph, source: VertexId) -> Self::State {
        let mut residual = vec![0.0; graph.num_vertices()];
        residual[source as usize] = 1.0;
        PprState { estimate: vec![0.0; graph.num_vertices()], residual, pushes: 0 }
    }

    fn source_op(&self, _source: VertexId) -> (Self::Value, Priority) {
        ((), Self::priority_of(1.0))
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
        let epsilon = self.config.epsilon;
        let v = vertex as usize;
        let degree = graph.out_degree(vertex);
        let threshold = epsilon * degree.max(1) as f64;
        let capped = self.config.max_pushes != 0 && state.pushes >= self.config.max_pushes;
        if state.residual[v] < threshold || capped {
            return 0; // below the push threshold, or out of pushes
        }
        let r = state.residual[v];
        state.estimate[v] += self.config.alpha * r;
        let push_mass = (1.0 - self.config.alpha) * r;
        state.residual[v] = push_mass / 2.0;
        state.pushes += 1;
        if degree == 0 {
            // Dangling vertex: the walk stays put; keep the mass as residual.
            state.residual[v] += push_mass / 2.0;
        }
        // Judged before the shares land, so a self-loop that carries `v`
        // across its threshold is the one emit below, not a second one here.
        let reschedule = state.residual[v] >= threshold;
        let share = push_mass / 2.0 / degree.max(1) as f64;
        for t in graph.out_neighbors(vertex) {
            let before = state.residual[t as usize];
            let after = before + share;
            state.residual[t as usize] = after;
            let target_threshold = epsilon * graph.out_degree(t).max(1) as f64;
            if before < target_threshold && target_threshold <= after {
                emit(t, (), Self::priority_of(after));
            }
        }
        if reschedule {
            emit(vertex, (), Self::priority_of(state.residual[v]));
        }
        degree as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_graph::gen;

    fn run_unpartitioned(graph: &CsrGraph, seed: VertexId, config: PprConfig) -> PprState {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let kernel = PprKernel::new(config);
        let mut state = kernel.init_state(graph, seed);
        let view = AdjacencyView::from_csr(graph);
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((kernel.source_op(seed).1, seed)));
        while let Some(Reverse((priority, vertex))) = heap.pop() {
            kernel.process(&view, &mut state, vertex, (), priority, &mut |t, (), pri| {
                heap.push(Reverse((pri, t)));
            });
        }
        state
    }

    /// Process one operation at `vertex`, collecting what it emits.
    fn push_at(
        kernel: &PprKernel,
        view: &AdjacencyView<'_>,
        state: &mut PprState,
        vertex: VertexId,
        emitted: &mut Vec<VertexId>,
    ) -> u64 {
        let priority = PprKernel::priority_of(state.residual[vertex as usize]);
        kernel.process(view, state, vertex, (), priority, &mut |t, (), _| emitted.push(t))
    }

    #[test]
    fn mass_conservation() {
        let g = gen::rmat(8, 6, 5);
        let state = run_unpartitioned(&g, 3, PprConfig { epsilon: 1e-5, ..Default::default() });
        assert!((state.total_mass() - 1.0).abs() < 1e-9, "mass {}", state.total_mass());
        assert!(state.pushes > 0);
    }

    #[test]
    fn close_to_sequential_reference() {
        let g = gen::rmat(8, 6, 7);
        let config = PprConfig { epsilon: 1e-6, ..Default::default() };
        let state = run_unpartitioned(&g, 2, config);
        let reference = fg_seq::ppr::ppr_push(&g, 2, &config).dense(g.num_vertices());
        let l1: f64 = state.estimate.iter().zip(reference.iter()).map(|(a, b)| (a - b).abs()).sum();
        assert!(l1 < 0.05, "l1 distance {l1}");
        // Seed carries the largest estimate in both.
        let best = state
            .estimate
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(v, _)| v as u32)
            .unwrap();
        assert_eq!(best, 2);
    }

    #[test]
    fn sub_threshold_operations_do_no_work() {
        let g = gen::complete(10);
        let kernel = PprKernel::new(PprConfig { epsilon: 0.1, ..Default::default() });
        let mut state = kernel.init_state(&g, 0);
        state.residual[0] = 1e-6;
        let view = AdjacencyView::from_csr(&g);
        let mut emitted = Vec::new();
        assert_eq!(push_at(&kernel, &view, &mut state, 0, &mut emitted), 0);
        assert!(emitted.is_empty());
        assert_eq!(state.residual[0], 1e-6);
        assert_eq!(state.estimate[0], 0.0);
    }

    #[test]
    fn a_neighbour_is_emitted_once_per_threshold_crossing() {
        // 0 → 2 and 1 → 2; vertex 2 has out-degree 1, so its threshold is ε.
        let mut b = fg_graph::GraphBuilder::new(4);
        b.add_edge(0, 2, 1);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 1);
        let g = b.build();
        let epsilon = 0.1;
        let kernel = PprKernel::new(PprConfig { epsilon, ..Default::default() });
        let mut state = kernel.init_state(&g, 0);
        state.residual[1] = 1.0;
        let view = AdjacencyView::from_csr(&g);
        state.residual[2] = epsilon * 0.99;
        let mut emitted = Vec::new();
        for source in [0, 1] {
            // Each push reaches 2 with a share of 0.425 — both take it over ε.
            push_at(&kernel, &view, &mut state, source, &mut emitted);
        }
        assert_eq!(state.pushes, 2);
        assert_eq!(emitted.iter().filter(|&&t| t == 2).count(), 1, "{emitted:?}");
        assert_eq!(emitted.iter().filter(|&&t| t != 2).count(), 2, "two self-reschedules");
        assert!((state.residual[2] - (epsilon * 0.99 + 2.0 * 0.425)).abs() < 1e-12);
    }

    #[test]
    fn a_self_loop_crossing_its_own_threshold_is_one_operation() {
        let mut b = fg_graph::GraphBuilder::new(1).keep_self_loops(true);
        b.add_edge(0, 0, 1);
        let g = b.build();
        let kernel = PprKernel::new(PprConfig { epsilon: 0.5, ..Default::default() });
        let mut state = kernel.init_state(&g, 0);
        let view = AdjacencyView::from_csr(&g);
        let mut emitted = Vec::new();
        // Retains 0.425 < ε, then the loop adds 0.425 more: one crossing.
        push_at(&kernel, &view, &mut state, 0, &mut emitted);
        assert_eq!(emitted, vec![0]);
        assert!((state.residual[0] - 0.85).abs() < 1e-12);
    }

    #[test]
    fn priority_prefers_bigger_shares() {
        assert!(PprKernel::priority_of(0.5) < PprKernel::priority_of(0.001));
        assert_eq!(PprKernel::priority_of(0.0), Priority::MAX);
        assert_eq!(PprKernel::priority_of(-1.0), Priority::MAX);
    }

    #[test]
    fn dangling_vertices_keep_their_mass() {
        let mut b = fg_graph::GraphBuilder::new(2);
        b.add_edge(0, 1, 1); // vertex 1 is a sink
        let g = b.build();
        let state = run_unpartitioned(&g, 0, PprConfig { epsilon: 1e-4, ..Default::default() });
        assert!((state.total_mass() - 1.0).abs() < 1e-9);
        assert!(state.estimate[1] > 0.0);
    }
}
