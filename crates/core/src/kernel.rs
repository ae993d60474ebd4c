//! The query-kernel interface of ForkGraph.
//!
//! A kernel defines, for one query type (SSSP, BFS, PPR, …):
//!
//! * the per-query dense **state** (e.g. the distance array),
//! * the **value** carried by an operation ⟨query, vertex, value⟩ — only
//!   what its priority does not already hold,
//! * the **priority functor** mapping operations to scheduling priorities
//!   (lower priority values are processed first — shorter distances, higher
//!   residuals),
//! * the sequential **processing** of one operation against the state, which
//!   may emit new operations to neighbouring vertices.
//!
//! The engine guarantees that a query's state is only ever accessed by one
//! thread at a time (query-centric consolidation, Section 4.2), so kernels are
//! written as plain sequential code with no atomics.
//!
//! This trait is deliberately generic (unboxed `Copy` values in the hot
//! loop); systems that need to handle *arbitrary registered* kernels behind
//! one interface — like `fg-service`'s kernel registry — use the object-safe
//! erasure layer in [`crate::dynkernel`] instead.

use fg_graph::mutation::EdgeDelta;
use fg_graph::{AdjacencyView, CsrGraph, VertexId};

use crate::operation::Priority;

/// A fork-processing-pattern query kernel.
pub trait FppKernel: Sync {
    /// Payload carried by this kernel's operations beside their priority:
    /// only what neither the priority nor the state already holds. The
    /// built-in SSSP, BFS and PPR kernels carry `()` — a distance or level
    /// *is* the priority, and PPR's mass lives in `residual` — so their
    /// operations are 16 bytes (`query`, `vertex`, `priority`) on every copy
    /// a remote operation makes: routing scratch, mailbox stripe, lane
    /// inbox, the lane's sorted run. DFS carries `()` too; a random walk
    /// carries its walker batch.
    type Value: Copy + Send + Sync;
    /// Per-query state; the final state is the query's result.
    type State: Send;

    /// Query-type name ("sssp", "ppr", …).
    fn name(&self) -> &'static str;

    /// Allocate the initial state of a query from `source`, with the
    /// source's own entry already written (SSSP: distance 0; BFS: level 0;
    /// PPR: residual 1.0), so that the source operation arrives like any
    /// other: its entry written before it exists.
    fn init_state(&self, graph: &CsrGraph, source: VertexId) -> Self::State;

    /// The operation that seeds a query at its source vertex:
    /// `(value, priority)`.
    fn source_op(&self, source: VertexId) -> (Self::Value, Priority);

    /// Process one operation at `vertex` carrying `value` and popped at
    /// `priority` against `state`.
    ///
    /// Adjacency is read through `graph`, an [`AdjacencyView`] over the visit's
    /// partition: raw partitions borrow the monolithic CSR slices, compressed
    /// partitions stream-decode their varint payload — kernels never
    /// materialise a compressed adjacency list.
    ///
    /// New operations are handed to `emit(target_vertex, value, priority)`;
    /// the engine routes them to the right partition buffer. Returns the
    /// number of edges processed (0 when the operation was pruned), which
    /// feeds both the work counters and the yielding heuristics.
    ///
    /// # Combine at emit time
    ///
    /// `state` belongs to the query and the engine hands it to one
    /// `process` call at a time, so a kernel may write **any** vertex's entry
    /// from here — including a neighbour in a partition that is not being
    /// visited. That makes the edge the one place where the paper's
    /// consolidation ("operations on the same vertex are merged", §5.1) is
    /// free: the target's entry is being read anyway, so a kernel combines the
    /// value it would send into the entry and emits an operation only when
    /// the entry changed in a way that needs one. The engine has no combine
    /// hook of its own; a kernel that combines does it here, and the built-in
    /// ones combine as follows.
    ///
    /// **Min-relaxation (SSSP, BFS)** — the way `fg_seq::dijkstra` uses lazy
    /// deletion, with the tentative distance (level) as the priority and no
    /// value beside it:
    ///
    /// * **at relax time**, `if nd < state[t] { state[t] = nd; emit(t, (), nd) }`
    ///   — an operation that is already dominated is never created, buffered
    ///   or shipped;
    /// * **at process time**, prune on `priority > state[vertex]` (a better
    ///   value was written after this operation was emitted, and *its*
    ///   operation does the work) and otherwise expand from `priority`. That
    ///   test is the kernel's [`Self::is_dead`], so the engine also drops a
    ///   dominated arrival when it merges a lane's inbox, before it is ever
    ///   popped.
    ///   Every operation's entry is written before the operation exists: a
    ///   relaxation writes it as it emits, [`Self::init_state`] writes the
    ///   source's, and [`IncrementalKernel::restart_seeds`] writes its seeds.
    ///
    /// Equal values cannot be emitted twice under this contract: an emit
    /// happens only when `nd` is *strictly* below the entry, and writes the
    /// entry to `nd` in the same breath, so for every value a vertex's entry
    /// ever holds exactly one operation exists, and `priority ==
    /// state[vertex]` at process time identifies it. That is why the
    /// process-time prune is strict (`>`), and why restart seeds must be
    /// strict improvements too (see [`IncrementalKernel::restart_seeds`]).
    ///
    /// **Accumulation (PPR)** — the way `fg_seq::ppr::ppr_push` does it: a
    /// push adds its share into `residual[t]` on the edge and emits a
    /// massless `()` operation only when that addition carries
    /// `residual[t]` across `t`'s push threshold; the source's unit of mass
    /// is in its residual from [`Self::init_state`] on. A vertex therefore
    /// has a live operation exactly while its residual is at or above the
    /// threshold, without an `in_queue` flag, and every operation popped
    /// performs a push.
    ///
    /// **Opting out (random walk, DFS).** A random-walk operation is a walker
    /// batch carrying its own RNG seed, so two batches at one vertex are not
    /// one batch; a DFS operation's arrival order *is* the answer (the
    /// discovery index). Both emit every operation and combine nothing.
    ///
    /// The contract is the kernel's own business: the engine never looks
    /// inside `state`, and kernels that write only at process time (prune on
    /// `value >= state[vertex]`, or add the carried value when popped) remain
    /// correct — they just let operations travel that combining would have
    /// merged away.
    fn process(
        &self,
        graph: &AdjacencyView<'_>,
        state: &mut Self::State,
        vertex: VertexId,
        value: Self::Value,
        priority: Priority,
        emit: &mut dyn FnMut(VertexId, Self::Value, Priority),
    ) -> u64;

    /// True exactly when [`Self::is_dead`] can return true: an operation of
    /// this kernel can be dominated by a better one arriving later. Only such
    /// kernels yield ([`crate::YieldPolicy`]). A yield stops a lane so that
    /// a dominating arrival from a neighbouring partition can land before
    /// the lane runs ahead and expands what that arrival would have pruned;
    /// a kernel with no dominance (PPR's accumulated mass, DFS's discovery
    /// order, random-walk batches) cannot gain from it and only pays the
    /// re-visit, so its lanes drain every visit. Only these kernels run the
    /// merge-time `is_dead` pass, too.
    ///
    /// The default is `false`. A custom kernel that prunes dominated
    /// operations (min-relaxation, a hop cap that keeps the fewest hops)
    /// opts in by overriding both this and `is_dead`; it then gets early
    /// yields and the dead-arrival drop, which on a high-diameter graph save
    /// the edges its lanes would expand from operations that better
    /// arrivals dominate (one SSSP query on a 64×64 lattice in 8 partitions:
    /// 1.37× the sequential edges at a budget of twice its partition, 1.06×
    /// at the default quarter; `tests/work_ceilings.rs`).
    const PRUNES: bool = false;

    /// True if an operation at `vertex` with `priority` is already known to
    /// be dead: [`Self::process`] would prune it — return 0, emit nothing
    /// and leave `state` as it is. When [`Self::PRUNES`] is set, the engine
    /// asks this of every arrival when it merges a lane's inbox at visit
    /// start and drops the dead ones there, counting each as an executed,
    /// pruned operation, exactly as if it had been popped.
    ///
    /// The answer must be **stable**: once it is true for an operation, it
    /// stays true for the rest of the run, since a dropped operation is never
    /// asked again. Min-relaxation meets this — `priority > state[vertex]`
    /// can only become true, because entries only fall during a run
    /// ([`IncrementalKernel::restart_seeds`] resets entries before the run
    /// starts). A kernel that prunes this way should call `is_dead` from
    /// `process` for its prune, so the rule is written once.
    ///
    /// The default is `false`: nothing is dropped early, and every operation
    /// reaches `process`. A kernel that overrides it sets [`Self::PRUNES`].
    fn is_dead(&self, state: &Self::State, vertex: VertexId, priority: Priority) -> bool {
        let _ = (state, vertex, priority);
        false
    }
}

/// A kernel whose converged state can be *restarted* from an edge delta
/// instead of recomputed from scratch.
///
/// The built-in SSSP and BFS kernels are min-fixpoints, and restart after
/// any delta — insertions, deletions and weight changes in either direction
/// — through one min-plus rule: entries the delta may have made too small
/// (those whose old shortest path may have used a deleted or heavier edge)
/// go back to ∞ and are re-offered from their in-edges; every other entry is
/// still the length of a real path, and the run that follows lowers entries
/// only, to the exact fixpoint on the new graph, byte-identical to a
/// from-scratch run.
pub trait IncrementalKernel: FppKernel {
    /// Turn `state` — the converged state of a run from `source` on an
    /// earlier graph — into the start of a run on `graph`, which differs
    /// from that earlier graph by `delta`: reset whatever the delta may have
    /// invalidated, and hand `seed(vertex, value, priority)` the operations
    /// to restart from.
    ///
    /// A seed must **strictly** lower its vertex's entry, and is written
    /// into it: under the relax-time contract of [`FppKernel::process`] an
    /// operation whose priority *equals* the entry is the live one and gets
    /// expanded, so a seed that offered an entry its own value again would
    /// re-relax that vertex's neighbourhood for nothing.
    fn restart_seeds(
        &self,
        graph: &CsrGraph,
        state: &mut Self::State,
        source: VertexId,
        delta: EdgeDelta<'_>,
        seed: &mut dyn FnMut(VertexId, Self::Value, Priority),
    );
}
