//! # fg-graph
//!
//! Graph substrate for ForkGraph-rs.
//!
//! This crate provides everything the rest of the workspace needs to represent
//! and prepare graphs:
//!
//! * [`CsrGraph`] — an immutable, compressed-sparse-row graph with both
//!   out-edge and in-edge adjacency (the latter is required by pull-based
//!   baseline engines), optional edge weights, and byte-size accounting used to
//!   size LLC partitions.
//! * [`GraphBuilder`] — mutable edge-list builder with de-duplication and
//!   symmetrisation.
//! * [`gen`] — synthetic graph generators that substitute for the real-world
//!   datasets of the paper (RMAT/power-law for social networks, 2D lattices for
//!   road networks, Erdős–Rényi for uniform random graphs). The paper's own
//!   datasets are not in the repository, and nothing reads graph files.
//! * [`partition`] — graph partitioners: hash, contiguous chunking
//!   (Gemini-style), and a multilevel edge-cut partitioner standing in for
//!   METIS.
//! * [`partitioned`] — [`partitioned::PartitionedGraph`], the LLC-sized
//!   partitioned representation consumed by the ForkGraph engine.
//! * [`mutation`] — [`VersionedGraph`], the edge-mutation seam that
//!   publishes the snapshots: a pending log folded into fresh snapshots
//!   (dirty partitions only); a run holds the current epoch's `Arc` while
//!   the next is folded, and a retired epoch's storage goes when its last
//!   `Arc` drops. It answers whether an answer computed at a version is
//!   still fresh (no fold since changed an edge, no mutation pending) and
//!   the edge delta since it.
//! * [`payload`] — per-partition adjacency: the CSR rows, or
//!   delta/varint-compressed bytes beside them ([`StorageConfig`] policy),
//!   plus the
//!   [`AdjacencyView`] kernels read adjacency through.
//! * [`datasets`] — scaled-down synthetic stand-ins for six of the eight
//!   graphs of Table 2 in the paper.

#![forbid(unsafe_code)]

pub mod builder;
pub mod csr;
pub mod datasets;
pub mod gen;
pub mod mutation;
pub mod partition;
pub mod partitioned;
pub mod payload;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use mutation::{AppliedDeltas, EdgeMutation, EpochStats, MutationError, VersionedGraph};
pub use payload::{AdjacencyView, CompressedEdges, StorageConfig};

/// Vertex identifier. Graphs in this workspace are bounded by `u32::MAX`
/// vertices, which comfortably covers the scaled datasets and matches the
/// 4-byte vertex ids used by Ligra/Gemini/GraphIt.
pub type VertexId = u32;

/// Edge weight. The paper's weighted experiments draw integer weights uniformly
/// from `[1, log |V|)`; integer weights keep priority-queue ordering exact.
pub type Weight = u32;

/// A shortest-path distance (sum of [`Weight`]s along a path).
pub type Dist = u64;

/// Distance value representing "unreached".
pub const INF_DIST: Dist = Dist::MAX;

/// An edge in a plain edge list: `(source, target, weight)`.
pub type Edge = (VertexId, VertexId, Weight);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_aliases_are_consistent() {
        let e: Edge = (0, 1, 3);
        assert_eq!(e.0 as u64 + e.1 as u64 + e.2 as u64, 4);
        // INF_DIST must dominate any realistic path sum, not just any single
        // weight: a worst-case path visits every vertex at maximum weight.
        let inf: Dist = INF_DIST;
        let worst_case_path: Dist = 100_000_000 * (u32::MAX as Dist);
        assert!(inf > worst_case_path, "INF_DIST must dominate 1e8 vertices at max weight");
    }
}
