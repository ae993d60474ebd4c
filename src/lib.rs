//! # forkgraph
//!
//! Facade crate for the ForkGraph-rs workspace: a Rust reproduction of
//! *"Cache-Efficient Fork-Processing Patterns on Large Graphs"* (SIGMOD 2021).
//!
//! A **fork-processing pattern** (FPP) launches many independent, homogeneous
//! graph queries (PPR, SSSP, BFS, …) from different source vertices on the same
//! in-memory graph. ForkGraph processes such batches cache-efficiently by
//! partitioning the graph into LLC-sized partitions, buffering each query's
//! operations per partition, and draining the buffers partition-at-a-time with
//! work-efficient sequential kernels.
//!
//! ## Quick start
//!
//! ```
//! use forkgraph::prelude::*;
//!
//! // Build a small synthetic social-network-like graph.
//! let graph = fg_graph::gen::rmat(10, 8, 42).into_weighted(7);
//! // Partition it into (simulated) LLC-sized partitions.
//! let partitioned = PartitionedGraph::build(&graph, PartitionConfig::llc_sized(64 * 1024));
//! // Run a batch of SSSP queries with the ForkGraph engine.
//! let sources: Vec<u32> = (0..8).collect();
//! let engine = ForkGraphEngine::new(&partitioned, EngineConfig::default());
//! let result = engine.run_sssp(&sources);
//! assert_eq!(result.per_query.len(), sources.len());
//! ```
//!
//! See the `examples/` directory for larger end-to-end applications
//! (betweenness centrality, network community profiles, landmark labeling).

#![forbid(unsafe_code)]

pub use fg_apps as apps;
pub use fg_baselines as baselines;
pub use fg_cachesim as cachesim;
pub use fg_graph as graph;
pub use fg_metrics as metrics;
pub use fg_seq as seq;
pub use fg_server as server;
pub use fg_service as service;
pub use fg_trace as trace;
pub use forkgraph_core as core;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use fg_apps::{
        bc::BetweennessCentrality, ll::LandmarkLabeling, ncp::NetworkCommunityProfile,
    };
    pub use fg_baselines::fpp::{ExecutionScheme, FppDriver};
    pub use fg_cachesim::{CacheConfig, CacheSim};
    pub use fg_graph::partition::{PartitionConfig, PartitionMethod};
    pub use fg_graph::partitioned::PartitionedGraph;
    pub use fg_graph::{CsrGraph, GraphBuilder, VertexId, Weight};
    pub use fg_seq::dijkstra::dijkstra;
    pub use fg_server::{
        ForkGraphServer, Request, Response, ServerConfig, WireClient, WirePayload,
    };
    pub use fg_service::{
        ForkGraphService, InstantiatedKernel, KernelRegistry, Query, QueryParams, QueryResult,
        ServiceConfig, ServiceError, Ticket,
    };
    pub use fg_trace::{EventKind, RunProfile, TraceSink};
    pub use forkgraph_core::dynkernel::{erase, DynKernel};
    pub use forkgraph_core::engine::{EngineConfig, ForkGraphEngine};
    pub use forkgraph_core::pool::WorkerPool;
    pub use forkgraph_core::sched::SchedulingPolicy;
    pub use forkgraph_core::yield_policy::YieldPolicy;
}
