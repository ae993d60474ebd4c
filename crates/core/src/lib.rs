//! # forkgraph-core
//!
//! The ForkGraph system: cache-efficient processing of **fork-processing
//! patterns** (FPPs) — batches of independent, homogeneous graph queries
//! launched from many source vertices on the same in-memory graph.
//!
//! The system implements the paper's buffered execution model:
//!
//! 1. The graph is divided into LLC-sized partitions
//!    ([`fg_graph::partitioned::PartitionedGraph`]).
//! 2. Each partition owns a [`buffer::PartitionBuffer`] holding the pending
//!    operations ⟨query, vertex, value⟩ of every query, one resident
//!    priority **lane** per query — the `K = |Q|` limit of the paper's
//!    multi-bucket buffer, where query-centric consolidation is structural:
//!    an operation is appended once to the lane it will be popped from.
//! 3. Every [`engine::ForkGraphEngine`] run is driven by the [`executor`]:
//!    a worker repeatedly picks the next runnable partition by the
//!    inter-partition [`sched::SchedulingPolicy`] and processes every
//!    query's lane there with a **sequential**, priority-ordered kernel
//!    ([`kernel::FppKernel`]), one query after another — atomic-free,
//!    because a query's state is only ever touched by one thread at a time.
//! 4. A [`yield_policy::YieldPolicy`] early-terminates a query inside a
//!    partition to avoid redundant work — the lane simply stays resident for
//!    the next visit; operations that target other partitions are sent to
//!    their partitions' mailboxes in batches, one per target, when the
//!    partition visit ends.
//! 5. [`engine::EngineConfig::num_threads`] sets only the worker count.
//!    `1` (the default) runs the worker loop on the calling thread. Above
//!    one, a crew processes **disjoint partitions concurrently**: workers
//!    claim partitions from the run's one runnable set by the scheduling
//!    policy, route remote operations through sharded, lock-striped
//!    mailboxes into the claimed partition's lanes, and quiesce via an
//!    ops-in-flight counter. The crew's threads belong to a persistent
//!    [`pool::WorkerPool`] (spawned once, parked between runs); each run
//!    builds its own mailboxes and lanes.
//! 6. Every run is **one kernel's pass**: [`engine::ForkGraphEngine::run`]
//!    seeds it at the sources,
//!    [`engine::ForkGraphEngine::run_incremental`] from an edge delta, and
//!    [`engine::ForkGraphEngine::run_dyn`] behind a type-erased kernel
//!    ([`dynkernel`]) — the one `fg-service`'s batcher loops over.
//!    ([`engine::ForkGraphEngine::run_multi`], such a loop, is kept only for
//!    `fgbench`.)
//!
//! Built-in kernels cover the query types of the paper: SSSP, BFS, DFS, PPR,
//! and random walks ([`kernels`]). Applications (BC, NCP, LL) live in the
//! `fg-apps` crate.
//!
//! Every layer is instrumented for the `fg-trace` event subsystem: attach a
//! [`fg_trace::TraceSink`] with [`engine::ForkGraphEngine::with_trace_sink`]
//! to record run/visit/claim/park events, or set
//! [`engine::EngineConfig::profile`] to get a per-run
//! [`fg_trace::RunProfile`] on the result without any sink.

#![deny(unsafe_code)]

pub mod buffer;
pub mod dynkernel;
pub mod engine;
pub mod executor;
pub mod kernel;
pub mod kernels;
pub mod operation;
pub mod pool;
pub mod sched;
pub mod yield_policy;

pub use buffer::PartitionBuffer;
pub use dynkernel::{erase, DynKernel, ErasedState};
pub use engine::{
    AblationLevel, EngineConfig, ForkGraphEngine, ForkGraphRunResult, MultiRunResult,
};
pub use kernel::{FppKernel, IncrementalKernel};
pub use operation::{Operation, Priority};
pub use pool::WorkerPool;
pub use sched::SchedulingPolicy;
pub use yield_policy::YieldPolicy;
