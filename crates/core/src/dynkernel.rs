//! Type-erased kernels: run *any* [`FppKernel`] behind one object-safe
//! interface.
//!
//! [`FppKernel`] is generic over its operation `Value` and per-query `State`,
//! which is exactly right for the engine's hot loop (operations stay unboxed
//! `Copy` values, states stay dense arrays) but wrong for an *open* system:
//! a serving layer that wants to dispatch "whatever kernel this query names"
//! cannot be generic over every kernel its clients might register. This
//! module closes the gap with an erasure layer:
//!
//! * [`DynKernel`] is the object-safe view of a kernel: a name, its state
//!   type's name (for downcast errors), and [`DynKernel::run_erased`] — run
//!   a batch through an engine and hand back the per-query states as
//!   [`ErasedState`]s.
//! * [`erase`] wraps any concrete [`FppKernel`] into an `Arc<dyn DynKernel>`.
//!   The wrapper calls [`ForkGraphEngine::run`] with the *concrete* kernel,
//!   so the entire execution path — the executor, on the calling thread or
//!   on its persistent [`pool::WorkerPool`](crate::pool::WorkerPool) — is
//!   the monomorphized code the direct API uses. Erasure
//!   happens only at the two edges of a run: one virtual call going in, one
//!   `Arc::new` per query state coming out. Results are therefore
//!   *byte-identical* to the direct generic path, and the overhead is
//!   O(queries), not O(operations).
//!
//! `fg-service`'s `KernelRegistry` is built on this: registered kernels are
//! `Arc<dyn DynKernel>`s, so micro-batching, admission control, and result
//! caching work for kernels the service crates have never heard of.

use std::any::Any;
use std::sync::Arc;

use fg_graph::VertexId;

use crate::engine::{ForkGraphEngine, ForkGraphRunResult};
use crate::kernel::FppKernel;

/// One query's type-erased final state, as produced by
/// [`DynKernel::run_erased`]. Downcast it to the kernel's concrete
/// [`FppKernel::State`] with [`Arc::downcast`] (shared) or
/// `downcast_ref` (borrowed).
pub type ErasedState = Arc<dyn Any + Send + Sync>;

/// Object-safe, type-erased view of an [`FppKernel`] (plus the engine loop
/// that drives it). See the [module docs](self) for the design.
pub trait DynKernel: Send + Sync {
    /// Kernel name (the concrete kernel's [`FppKernel::name`]).
    fn name(&self) -> &str;

    /// Human-readable name of the state type, for downcast error messages.
    fn state_type_name(&self) -> &'static str;

    /// Run one batch (one query per source) through `engine`, returning the
    /// per-query final states type-erased. Equivalent to
    /// [`ForkGraphEngine::run`] with the concrete kernel — same worker
    /// count, same results — followed by one `Arc::new` per state.
    fn run_erased(
        &self,
        engine: &ForkGraphEngine<'_>,
        sources: &[VertexId],
    ) -> ForkGraphRunResult<ErasedState>;
}

/// The blanket erasure wrapper behind [`erase`].
struct ErasedFpp<K>(K);

impl<K> DynKernel for ErasedFpp<K>
where
    K: FppKernel + Send + 'static,
    K::State: Sync + 'static,
{
    fn name(&self) -> &str {
        self.0.name()
    }

    fn state_type_name(&self) -> &'static str {
        std::any::type_name::<K::State>()
    }

    fn run_erased(
        &self,
        engine: &ForkGraphEngine<'_>,
        sources: &[VertexId],
    ) -> ForkGraphRunResult<ErasedState> {
        let ForkGraphRunResult { per_query, measurement, profile } = engine.run(&self.0, sources);
        ForkGraphRunResult {
            per_query: per_query.into_iter().map(|state| Arc::new(state) as ErasedState).collect(),
            measurement,
            profile,
        }
    }
}

/// Erase a concrete kernel into a shareable [`DynKernel`] handle.
///
/// The extra bounds over [`FppKernel`]'s own (`Send` on the kernel, `Sync +
/// 'static` on the state) are what sharing the kernel across service threads
/// and sharing its results through `Arc`s requires; every built-in kernel
/// satisfies them, and custom kernels holding only owned data do too.
pub fn erase<K>(kernel: K) -> Arc<dyn DynKernel>
where
    K: FppKernel + Send + 'static,
    K::State: Sync + 'static,
{
    Arc::new(ErasedFpp(kernel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_graph::partition::{PartitionConfig, PartitionMethod};
    use fg_graph::partitioned::PartitionedGraph;
    use fg_graph::{gen, CsrGraph, Dist};

    use crate::engine::EngineConfig;
    use crate::kernels::SsspKernel;
    use crate::operation::Priority;

    /// A kernel that exists only in this test module: hop counts capped at a
    /// fixed radius. Monotone (min-relaxation on hop count), so one worker
    /// and a crew on the pool reach the same fixpoint byte-identically.
    struct RadiusKernel {
        radius: u32,
    }

    impl FppKernel for RadiusKernel {
        type Value = u32;
        type State = Vec<u32>;

        fn name(&self) -> &'static str {
            "radius"
        }

        fn init_state(&self, graph: &CsrGraph, _source: fg_graph::VertexId) -> Self::State {
            vec![u32::MAX; graph.num_vertices()]
        }

        fn source_op(&self, _source: fg_graph::VertexId) -> (Self::Value, Priority) {
            (0, 0)
        }

        fn process(
            &self,
            graph: &fg_graph::AdjacencyView<'_>,
            state: &mut Self::State,
            vertex: fg_graph::VertexId,
            value: Self::Value,
            _priority: Priority,
            emit: &mut dyn FnMut(fg_graph::VertexId, Self::Value, Priority),
        ) -> u64 {
            if value >= state[vertex as usize] {
                return 0;
            }
            state[vertex as usize] = value;
            if value >= self.radius {
                return 0;
            }
            let mut edges = 0u64;
            for t in graph.out_neighbors(vertex) {
                edges += 1;
                if value + 1 < state[t as usize] {
                    emit(t, value + 1, (value + 1) as u64);
                }
            }
            edges
        }
    }

    fn partitioned(parts: usize) -> (CsrGraph, PartitionedGraph) {
        let g = gen::rmat(9, 6, 51).with_random_weights(8, 51);
        let pg = PartitionedGraph::build(
            &g,
            PartitionConfig::with_partitions(PartitionMethod::Multilevel, parts),
        );
        (g, pg)
    }

    #[test]
    fn erased_builtin_matches_direct_run_byte_for_byte() {
        let (_, pg) = partitioned(6);
        let engine = ForkGraphEngine::new(&pg, EngineConfig::default());
        let sources = [0u32, 9, 42, 200];
        let direct = engine.run_sssp(&sources);
        let erased = erase(SsspKernel);
        let dyn_result = engine.run_dyn(&*erased, &sources);
        assert_eq!(dyn_result.per_query.len(), direct.per_query.len());
        for (erased_state, direct_state) in dyn_result.per_query.iter().zip(&direct.per_query) {
            let state = erased_state.downcast_ref::<Vec<Dist>>().expect("SSSP state is Vec<Dist>");
            assert_eq!(state, direct_state);
        }
    }

    #[test]
    fn erased_kernel_reports_its_types() {
        let erased = erase(RadiusKernel { radius: 3 });
        assert_eq!(erased.name(), "radius");
        assert!(erased.state_type_name().contains("Vec<u32>"));
    }

    #[test]
    fn custom_erased_kernel_is_identical_on_one_worker_and_the_pool() {
        let (_, pg) = partitioned(8);
        let sources = [0u32, 3, 77, 140];
        let kernel = erase(RadiusKernel { radius: 4 });
        let one_worker =
            ForkGraphEngine::new(&pg, EngineConfig::default()).run_dyn(&*kernel, &sources);
        let engine = ForkGraphEngine::new(&pg, EngineConfig::default().with_threads(3));
        let crew = engine.run_dyn(&*kernel, &sources);
        for (a, b) in one_worker.per_query.iter().zip(&crew.per_query) {
            assert_eq!(
                a.downcast_ref::<Vec<u32>>().unwrap(),
                b.downcast_ref::<Vec<u32>>().unwrap()
            );
        }
        let pool = engine.worker_pool().expect("a crew's run created a pool");
        assert!(pool.metrics().dispatches >= 1, "custom kernel ran through the pool");
    }

    #[test]
    fn erased_states_are_shareable_and_downcast_checked() {
        let (_, pg) = partitioned(4);
        let engine = ForkGraphEngine::new(&pg, EngineConfig::default());
        let kernel = erase(RadiusKernel { radius: 2 });
        let result = engine.run_dyn(&*kernel, &[5]);
        let state = Arc::clone(&result.per_query[0]);
        // Correct type: shared downcast succeeds.
        let hops: Arc<Vec<u32>> = Arc::downcast(state).expect("state is Vec<u32>");
        assert_eq!(hops[5], 0);
        // Wrong type: downcast refuses instead of transmuting.
        assert!(result.per_query[0].downcast_ref::<Vec<Dist>>().is_none());
    }
}
