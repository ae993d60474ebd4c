//! Heterogeneous multi-kernel runs: one partition pass serves several kernel
//! *groups* at once.
//!
//! The paper's economics come from amortising each LLC-resident partition
//! pass across as many concurrent queries as possible. With only
//! [`ForkGraphEngine::run`]/[`run_dyn`](ForkGraphEngine::run_dyn), that
//! amortisation stops at the kernel-type boundary: an SSSP batch and a BFS
//! batch over the same graph each sweep every partition. This module removes
//! the boundary:
//!
//! * Queries are grouped by kernel; group `g`'s queries occupy a contiguous
//!   range of the run's global query ids, so query-centric consolidation,
//!   per-query state locks, and result demultiplexing need no new machinery.
//! * Operations carry inline erased payloads — the group's concrete kernel
//!   value erased inline ([`crate::operation::MultiValue8`] /
//!   [`crate::operation::MultiValue16`], picked per run). Operations stay
//!   `Copy`, so the per-(partition, query) lanes of
//!   [`crate::buffer::PartitionBuffer`], the executor mailboxes and the
//!   claim protocol carry mixed-kernel operations verbatim (lanes order by
//!   `(priority, vertex)` only and never look at the payload); an
//!   operation's group is derived from its query id, never stored.
//! * `MultiDriver` implements the engine's internal `KernelDriver` seam at
//!   **visit granularity**: each query's lane is handed to its group's
//!   sealed [`MultiKernelHooks`] in one virtual call
//!   ([`MultiKernelHooks::process_visit_multi`]), which runs the identical
//!   monomorphized visit loop the single-kernel path uses
//!   (`PartitionVisit::process_lane` — devirtualized per-edge processing)
//!   directly on the erased lane, converting a value when it is popped and
//!   when it is emitted. Erasure cost is two value conversions per operation
//!   *lifetime*, not a virtual call per operation touch.
//!
//! Scheduling sees the union of all groups. Priorities are kernel-specific
//! (an SSSP distance and a BFS level are not commensurable), but priorities
//! only ever *order* work — they never gate correctness — so mixing them
//! degrades at worst the schedule's work efficiency, never the fixpoint:
//! monotone kernels (SSSP, BFS, random walks, and any min-relaxation custom
//! kernel) produce byte-identical results to their solo runs, and PPR keeps
//! its documented epsilon/mass approximation contract (its lazy push is
//! non-confluent even between two *serial* solo schedules).
//!
//! A persistent [`crate::pool::WorkerPool`] recycles multi-run storage under
//! one arena key per payload width (`TypeId::of::<MultiValue8>()` /
//! `TypeId::of::<MultiValue16>()`): every multi run of a width shares one
//! mailbox set regardless of which kernel groups it mixes, so alternating
//! mixes never rebuild per-run storage.

use std::any::Any;

use fg_graph::{CsrGraph, VertexId};
use fg_metrics::{Measurement, WorkSnapshot};
use fg_trace::{EventKind, RunProfile};

use crate::buffer::{Lane, RemoteScratch};
use crate::dynkernel::{DynKernel, ErasedState, MultiKernelHooks};
use crate::engine::{ForkGraphEngine, LaneVisit, PartitionVisit};
use crate::kernel::KernelDriver;
use crate::operation::Priority;
use crate::operation::{MultiValue16, MultiValue8, PayloadOps};

/// Result of one heterogeneous [`ForkGraphEngine::run_multi`] run.
#[derive(Clone, Debug)]
pub struct MultiRunResult {
    /// Per-group, per-query final states: `per_group[g][i]` is the erased
    /// state of group `g`'s `i`-th source, exactly what
    /// [`ForkGraphEngine::run_dyn`] would have produced for that group.
    pub per_group: Vec<Vec<ErasedState>>,
    /// Timing, work, cache, and memory measurement of the whole shared pass.
    pub measurement: Measurement,
    /// Per-run profile of the shared pass, present iff
    /// [`crate::EngineConfig::profile`] was set.
    pub profile: Option<RunProfile>,
}

impl MultiRunResult {
    /// Number of kernel groups the run carried.
    pub fn num_groups(&self) -> usize {
        self.per_group.len()
    }

    /// Work counters of the shared pass.
    pub fn work(&self) -> &WorkSnapshot {
        &self.measurement.work
    }

    /// Pair group `group`'s states with the sources they were launched from
    /// (the demultiplexing primitive serving layers use per cohort).
    ///
    /// # Panics
    /// Panics if `group` is out of range or `sources` is not the slice the
    /// group was launched with (length mismatch).
    pub fn group_per_source<'a>(
        &'a self,
        group: usize,
        sources: &'a [VertexId],
    ) -> impl ExactSizeIterator<Item = (VertexId, &'a ErasedState)> + 'a {
        let states = &self.per_group[group];
        assert_eq!(
            sources.len(),
            states.len(),
            "group_per_source: {} sources for {} states in group {group}",
            sources.len(),
            states.len()
        );
        sources.iter().copied().zip(states.iter())
    }
}

/// The heterogeneous [`KernelDriver`] on payload width `P`: maps each
/// global query id to its group's sealed [`MultiKernelHooks`] and shuttles
/// erased payloads across the per-visit kernel boundary. See the
/// [module docs](self).
pub(crate) struct MultiDriver<'k, P: PayloadOps> {
    kernels: Vec<&'k dyn MultiKernelHooks<P>>,
    /// Global query id → group index (queries are grouped contiguously, but
    /// the flat table keeps the lookup branch-free).
    query_group: Vec<u16>,
    /// Per-group query counts: the `|Q|` each group's yield budget sees.
    group_sizes: Vec<u32>,
}

impl<P: PayloadOps> KernelDriver for MultiDriver<'_, P> {
    type Value = P;
    type State = Box<dyn Any + Send + Sync>;

    fn init_state(&self, graph: &CsrGraph, query: u32) -> Self::State {
        self.kernels[self.query_group[query as usize] as usize].init_state_any(graph)
    }

    fn source_op(&self, query: u32, source: VertexId) -> (P, Priority) {
        let group = self.query_group[query as usize];
        self.kernels[group as usize].source_op_multi(source)
    }

    fn process_visit(
        &self,
        visit: &PartitionVisit<'_, '_>,
        query: u32,
        lane: &mut Lane<P>,
        state: &mut Self::State,
        remote: &mut RemoteScratch<P>,
    ) -> LaneVisit {
        let group = self.query_group[query as usize];
        visit.engine.emit_trace(EventKind::QueryGroupVisit, query, group as u32, visit.partition);
        // Yield budgets scale with `|Q|` (`EdgeBudgetAuto` is
        // `factor · |E_P| / |Q|`): give each group the budget of *its own*
        // cohort size, not the union's, so a query makes exactly the
        // per-visit progress it would make in a solo run of its cohort.
        // (For a single-group run this is the run's query count, keeping the
        // single-group path byte-identical to `run_dyn`.)
        let visit =
            PartitionVisit { num_queries: self.group_sizes[group as usize] as usize, ..*visit };
        self.kernels[group as usize].process_visit_multi(&visit, query, lane, &mut **state, remote)
    }
}

/// Execute `groups` as one shared partition pass; the implementation behind
/// [`ForkGraphEngine::run_multi`] (see there for the contract).
///
/// The run is driven on the narrowest payload width every group supports:
/// [`MultiValue8`] when all kernels have word-sized values (operations then
/// match native `u64`-valued operations byte-for-byte in size — the common
/// SSSP/BFS/PPR service mixes pay no per-operation size tax), otherwise
/// [`MultiValue16`].
pub(crate) fn run_multi(
    engine: &ForkGraphEngine<'_>,
    groups: &[(&dyn DynKernel, &[VertexId])],
) -> MultiRunResult {
    assert!(
        groups.len() <= u16::MAX as usize + 1,
        "run_multi supports at most {} kernel groups, got {}",
        u16::MAX as usize + 1,
        groups.len()
    );
    let hooks: Vec<crate::dynkernel::MultiHooks<'_>> = groups
        .iter()
        .map(|(kernel, _)| {
            kernel.multi().unwrap_or_else(|| {
                panic!(
                    "kernel {:?} cannot join a multi-kernel run (hand-written DynKernel \
                     without multi hooks, or an operation value exceeding the inline payload) \
                     — run it through run_dyn instead",
                    kernel.name()
                )
            })
        })
        .collect();
    if hooks.iter().all(|h| h.narrow.is_some()) {
        let kernels = hooks.iter().map(|h| h.narrow.expect("checked above")).collect();
        run_width::<MultiValue8>(engine, kernels, groups)
    } else {
        let kernels = hooks.iter().map(|h| h.wide).collect();
        run_width::<MultiValue16>(engine, kernels, groups)
    }
}

/// Drive one heterogeneous run on a fixed payload width.
fn run_width<P: PayloadOps>(
    engine: &ForkGraphEngine<'_>,
    kernels: Vec<&dyn MultiKernelHooks<P>>,
    groups: &[(&dyn DynKernel, &[VertexId])],
) -> MultiRunResult {
    let total: usize = groups.iter().map(|(_, sources)| sources.len()).sum();
    let mut query_group: Vec<u16> = Vec::with_capacity(total);
    let mut group_sizes: Vec<u32> = Vec::with_capacity(groups.len());
    let mut sources: Vec<VertexId> = Vec::with_capacity(total);
    for (g, (_, group_sources)) in groups.iter().enumerate() {
        query_group.extend(std::iter::repeat_n(g as u16, group_sources.len()));
        group_sizes.push(group_sources.len() as u32);
        sources.extend_from_slice(group_sources);
    }

    let driver = MultiDriver { kernels, query_group, group_sizes };
    let result = engine.run_driver(&driver, &sources);

    // Split the flat per-query states back into per-group vectors (queries
    // were laid out contiguously per group above).
    let mut states = result.per_query.into_iter();
    let per_group: Vec<Vec<ErasedState>> = groups
        .iter()
        .map(|(_, group_sources)| {
            states.by_ref().take(group_sources.len()).map(ErasedState::from).collect()
        })
        .collect();
    debug_assert!(states.next().is_none(), "every query state is handed to exactly one group");
    MultiRunResult { per_group, measurement: result.measurement, profile: result.profile }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_graph::partition::{PartitionConfig, PartitionMethod};
    use fg_graph::partitioned::PartitionedGraph;
    use fg_graph::{gen, Dist};

    use crate::dynkernel::erase;
    use crate::engine::{EngineConfig, ExecutorMode};
    use crate::kernels::{BfsKernel, SsspKernel};

    fn partitioned(parts: usize) -> PartitionedGraph {
        let g = gen::rmat(8, 6, 91).with_random_weights(8, 91);
        PartitionedGraph::build(
            &g,
            PartitionConfig::with_partitions(PartitionMethod::Multilevel, parts),
        )
    }

    #[test]
    fn two_group_run_matches_solo_runs() {
        let pg = partitioned(5);
        let engine =
            ForkGraphEngine::new(&pg, EngineConfig::default().with_executor(ExecutorMode::Serial));
        let sssp = erase(SsspKernel);
        let bfs = erase(BfsKernel);
        let sssp_sources = [0u32, 17, 140];
        let bfs_sources = [3u32, 99];

        let mixed = engine.run_multi(&[(&*sssp, &sssp_sources[..]), (&*bfs, &bfs_sources[..])]);
        assert_eq!(mixed.num_groups(), 2);
        assert_eq!(mixed.per_group[0].len(), 3);
        assert_eq!(mixed.per_group[1].len(), 2);

        let solo_sssp = engine.run_dyn(&*sssp, &sssp_sources);
        let solo_bfs = engine.run_dyn(&*bfs, &bfs_sources);
        for (mixed_state, solo_state) in mixed.per_group[0].iter().zip(&solo_sssp.per_query) {
            assert_eq!(
                mixed_state.downcast_ref::<Vec<Dist>>().unwrap(),
                solo_state.downcast_ref::<Vec<Dist>>().unwrap()
            );
        }
        for (mixed_state, solo_state) in mixed.per_group[1].iter().zip(&solo_bfs.per_query) {
            assert_eq!(
                mixed_state.downcast_ref::<Vec<u32>>().unwrap(),
                solo_state.downcast_ref::<Vec<u32>>().unwrap()
            );
        }

        // One shared pass does the union of the work in fewer partition
        // visits than the two solo sweeps combined.
        assert!(mixed.work().operations_processed >= 1);
        assert!(
            mixed.work().partition_visits
                < solo_sssp.work().partition_visits + solo_bfs.work().partition_visits,
            "shared pass should visit partitions fewer times than two solo sweeps ({} vs {} + {})",
            mixed.work().partition_visits,
            solo_sssp.work().partition_visits,
            solo_bfs.work().partition_visits
        );

        let paired: Vec<_> = mixed.group_per_source(1, &bfs_sources).collect();
        assert_eq!(paired.len(), 2);
        assert_eq!(paired[0].0, 3);
    }

    #[test]
    fn empty_and_single_group_edge_cases() {
        let pg = partitioned(3);
        let engine =
            ForkGraphEngine::new(&pg, EngineConfig::default().with_executor(ExecutorMode::Serial));
        let empty = engine.run_multi(&[]);
        assert_eq!(empty.num_groups(), 0);

        let sssp = erase(SsspKernel);
        let none: [u32; 0] = [];
        let with_empty_group = engine.run_multi(&[(&*sssp, &none[..]), (&*sssp, &[5u32][..])]);
        assert_eq!(with_empty_group.per_group[0].len(), 0);
        assert_eq!(with_empty_group.per_group[1].len(), 1);
        let solo = engine.run_dyn(&*sssp, &[5]);
        assert_eq!(
            with_empty_group.per_group[1][0].downcast_ref::<Vec<Dist>>().unwrap(),
            solo.per_query[0].downcast_ref::<Vec<Dist>>().unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "cannot join a multi-kernel run")]
    fn oversized_value_kernels_are_rejected_up_front() {
        use crate::kernel::FppKernel;
        use crate::operation::Priority;

        struct FatValueKernel;
        impl FppKernel for FatValueKernel {
            type Value = [u64; 5];
            type State = Vec<u64>;
            fn name(&self) -> &'static str {
                "fat"
            }
            fn init_state(&self, graph: &CsrGraph) -> Self::State {
                vec![0; graph.num_vertices()]
            }
            fn source_op(&self, _source: VertexId) -> (Self::Value, Priority) {
                ([0; 5], 0)
            }
            fn process(
                &self,
                _graph: &fg_graph::AdjacencyView<'_>,
                _state: &mut Self::State,
                _vertex: VertexId,
                _value: Self::Value,
                _emit: &mut dyn FnMut(VertexId, Self::Value, Priority),
            ) -> u64 {
                0
            }
        }

        let pg = partitioned(2);
        let engine = ForkGraphEngine::new(&pg, EngineConfig::default());
        let fat = erase(FatValueKernel);
        engine.run_multi(&[(&*fat, &[0u32][..])]);
    }
}
