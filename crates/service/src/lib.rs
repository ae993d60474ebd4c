//! # fg-service
//!
//! An always-on, concurrent query-serving layer over the ForkGraph engine,
//! built around an **open kernel registry**.
//!
//! The engine (`forkgraph-core`) gets its cache efficiency from processing
//! *batches* of forked queries together, but its API is one-shot and
//! synchronous. This crate is the online embodiment of that batching thesis:
//! concurrently arriving client queries are consolidated into micro-batches
//! and executed as single engine runs over a shared
//! [`PartitionedGraph`](fg_graph::partitioned::PartitionedGraph).
//!
//! ```text
//!  clients ──submit──▶ [registry resolve] ─▶ [admission] ─▶ pending queue ─┐
//!     ▲                      │ typed errors     │ shed when full           │ batch window /
//!     │ cache hit            │                  ▼                          │ size budget
//!     └─────────────── [LRU result cache]                                  ▼
//!                            ▲                                  [micro-batcher thread]
//!                            │ insert                                      │ drains ALL ready
//!                            │                                             │ BatchKey cohorts
//!                            │                                             ▼
//!                            │                               one pinned epoch per drain,
//!                            │                               passes back to back: per cohort
//!                            │                               resumed members, then the rest
//!                            └── demux per (pass, source) ◀── (run_dyn or run_incremental)
//! ```
//!
//! * **Open kernels**: a query names a kernel *registered* in the service's
//!   [`KernelRegistry`] — the four built-ins (`"sssp"`, `"bfs"`, `"ppr"`,
//!   `"random_walk"`) are pre-registered, and any
//!   [`FppKernel`](forkgraph_core::FppKernel) defined anywhere (including
//!   outside this workspace) becomes servable with one
//!   [`KernelRegistry::register`] call. Batching, admission control, pool
//!   dispatch, and caching all work unchanged for kernels this crate has
//!   never heard of, because dispatch is type-erased
//!   ([`forkgraph_core::DynKernel`]).
//! * **One way in, one way out**: clients build a [`Query`]
//!   (`Query::kernel("ppr").source(v).param("epsilon", 1e-5)`), submit it
//!   with [`ServiceHandle::submit_query`], block on (or poll) the returned
//!   [`Ticket`], and read the kernel's state out of the [`QueryResult`]
//!   with [`QueryResult::try_state`], whose error names the kernel that
//!   actually produced the result.
//! * **Micro-batching across kernels**: a dedicated batcher thread
//!   accumulates submissions for [`ServiceConfig::batch_window`] (or until
//!   [`ServiceConfig::max_batch_size`]), then drains **every ready cohort**
//!   into **one** batch: one pinned epoch, one engine, and a loop over its
//!   **passes**, back to back, one homogeneous type-erased pass per kernel
//!   (the paper's fork-processing pattern; any [`forkgraph_core::DynKernel`]
//!   can ride a mixed batch). A cohort's SSSP/BFS members whose key has a
//!   cached answer — found stale after an insertion, a deletion or a weight
//!   change — form a pass of their own, resumed from that answer across the
//!   edge changes since its graph version
//!   ([`VersionedGraph::delta_since`](fg_graph::VersionedGraph::delta_since))
//!   with
//!   [`ForkGraphEngine::run_incremental`](forkgraph_core::ForkGraphEngine::run_incremental)
//!   ahead of the cohort's from-scratch pass: the part of the old answer a
//!   deletion or weight increase may have invalidated is reset and
//!   re-seeded from its boundary, the rest stands. Results demultiplex per
//!   `(pass, source)` back to submitters. Cohorts and cache entries are
//!   keyed by [`BatchKey`]/[`CacheKey`], derived from the *registration*
//!   (unique [`KernelId`] + canonical [`QueryParams`]), so same-named
//!   kernels of different registries can never alias. Observability:
//!   [`fg_metrics::BatchRecord::kernels_in_run`] and
//!   [`fg_metrics::ServiceSnapshot::mixed_run_rate`].
//! * **Resolution**: every submit looks the kernel name up and runs its
//!   factory, which validates the parameters and fills in defaults
//!   ([`KernelRegistry`] docs: factories must be pure).
//! * **Admission control**: the pending queue is bounded
//!   ([`ServiceConfig::max_queue_depth`]); a saturated service sheds load
//!   with [`ServiceError::Saturated`] instead of blocking submitters.
//! * **Result caching**: an LRU cache keyed by (registration, canonical
//!   params, source) short-circuits repeated hot queries. Each entry
//!   carries the graph version it was computed at; a lookup hits only if
//!   no mutation since could reach its source
//!   ([`VersionedGraph::changed_since`](fg_graph::VersionedGraph::changed_since)).
//! * **Observability**: queue depth, shed count, batch occupancy, cache hit
//!   rate, per-batch kernel/worker records, and p50/p99 latency via
//!   [`fg_metrics::ServiceSnapshot`]. Its fold and epoch figures (mutations
//!   applied, epochs published, partitions rebuilt and shared, snapshots
//!   reclaimed, pin lag) are read from the graph store that owns them
//!   ([`VersionedGraph::epoch_stats`](fg_graph::VersionedGraph::epoch_stats)).

#![forbid(unsafe_code)]

pub mod adaptive;
mod lru;
pub mod params;
pub mod query;
pub mod registry;
pub mod service;
pub mod ticket;

pub use adaptive::effective_workers;
pub use fg_graph::mutation::{EdgeMutation, MutationError};
pub use params::{ParamError, ParamValue, QueryParams};
pub use query::{BatchKey, CacheKey, KernelMismatch, Query, QueryResult};
pub use registry::{
    InstantiatedKernel, KernelFactory, KernelId, KernelRegistry, RegistryError, ResolvedKernel,
};
pub use service::{ForkGraphService, ServiceConfig, ServiceError, ServiceHandle, TraceHandle};
pub use ticket::Ticket;
