//! LLC-sized partitioned graph representation.
//!
//! [`PartitionedGraph`] combines a [`CsrGraph`] with a [`PartitionPlan`] and the
//! per-partition metadata the ForkGraph engine needs: the vertex membership of
//! every partition, internal/cut edge counts, and byte footprints used to check
//! that partitions actually fit the (simulated) last-level cache.
//!
//! The monolithic CSR is the graph's only raw adjacency: a partition's
//! adjacency is its vertices' CSR rows. Each partition's metadata and
//! quotient-graph row — plus, when its storage policy compresses it, a
//! varint payload beside the CSR — live in an individually [`Arc`]-held
//! [`PartitionStore`]. Two snapshots that differ in a few partitions *share*
//! every untouched store: [`crate::mutation::VersionedGraph`] builds the next
//! CSR from the old one plus the batch's edits, re-materialises only dirty
//! partitions' stores from it, and splices the clean stores into the next
//! epoch.

use std::sync::Arc;

use crate::partition::{PartitionConfig, PartitionId, PartitionPlan};
use crate::payload::{AdjacencyView, CompressedEdges, StorageConfig};
use crate::{CsrGraph, VertexId, Weight};

/// Per-partition metadata.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionInfo {
    /// Partition id (index into the store list).
    pub id: PartitionId,
    /// Global ids of the vertices in this partition, ascending.
    pub vertices: Vec<VertexId>,
    /// Edges whose source and target both lie in this partition.
    pub num_internal_edges: usize,
    /// Edges leaving this partition.
    pub num_cut_edges: usize,
    /// Approximate bytes of CSR adjacency + vertex state touched when
    /// processing this partition.
    pub footprint_bytes: usize,
}

impl PartitionInfo {
    /// Number of vertices in the partition.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Total out-edges of the partition's vertices (internal + cut).
    pub fn num_edges(&self) -> usize {
        self.num_internal_edges + self.num_cut_edges
    }
}

/// One partition's independently shareable store: metadata, its cached
/// quotient-graph adjacency row and, when compressed, its varint payload.
/// Snapshots hold these behind [`Arc`]s; a store untouched by a mutation
/// batch is shared across epochs, and its memory is reclaimed only when the
/// last snapshot referencing it is dropped.
#[derive(Clone, Debug)]
pub struct PartitionStore {
    /// Partition metadata (vertex membership, edge counts, footprint).
    pub info: PartitionInfo,
    /// The partition's vertices' out-edges delta/varint-encoded, when the
    /// build-time [`StorageConfig`] policy compresses it; `None` means visits
    /// read the vertices' CSR rows.
    pub compressed: Option<CompressedEdges>,
    /// This partition's row of the quotient adjacency bitset (bit `q` set iff
    /// some edge of this partition targets partition `q`), in
    /// `plan.num_partitions.div_ceil(64).max(1)` words. Cached here so
    /// reachability refreshes after a partial rebuild cost `O(dirty edges)`,
    /// not an `O(m)` rescan.
    pub quotient_row: Vec<u64>,
}

impl PartitionStore {
    /// Build one partition's store from its vertex list and their rows of
    /// `graph`, computing the metadata and quotient row the plan implies, and
    /// encoding a payload if `storage` asks for one. The policy is applied
    /// per store, so epoch-advance partial rebuilds re-encode exactly the
    /// dirty partitions.
    pub(crate) fn build(
        graph: &CsrGraph,
        id: PartitionId,
        vertices: Vec<VertexId>,
        plan: &PartitionPlan,
        storage: StorageConfig,
    ) -> Self {
        let words = plan.num_partitions.div_ceil(64).max(1);
        let mut internal = 0usize;
        let mut cut = 0usize;
        let mut quotient_row = vec![0u64; words];
        for &v in &vertices {
            for &t in graph.out_neighbors(v) {
                let pt = plan.partition_of(t);
                quotient_row[pt as usize / 64] |= 1u64 << (pt as usize % 64);
                if pt == id {
                    internal += 1;
                } else {
                    cut += 1;
                }
            }
        }
        let raw_adjacency_bytes =
            raw_adjacency_bytes(internal + cut, vertices.len(), graph.is_weighted());
        let compressed =
            storage.wants_compression().then(|| CompressedEdges::encode(graph, &vertices));
        let adjacency_bytes =
            compressed.as_ref().map_or(raw_adjacency_bytes, CompressedEdges::payload_bytes);
        // Vertex state: one distance/residual slot per vertex (8 bytes) as a
        // conservative per-query footprint estimate.
        let footprint_bytes = adjacency_bytes + vertices.len() * 8;
        PartitionStore {
            info: PartitionInfo {
                id,
                vertices,
                num_internal_edges: internal,
                num_cut_edges: cut,
                footprint_bytes,
            },
            compressed,
            quotient_row,
        }
    }

    /// Whether this store holds its adjacency compressed.
    #[inline]
    pub fn is_compressed(&self) -> bool {
        self.compressed.is_some()
    }
}

/// Bytes of a partition's CSR rows: targets + per-vertex offsets
/// (+ weights) — what a raw visit streams, and the baseline the compression
/// metrics compare against.
fn raw_adjacency_bytes(num_edges: usize, num_vertices: usize, weighted: bool) -> usize {
    let mut bytes =
        num_edges * std::mem::size_of::<VertexId>() + num_vertices * std::mem::size_of::<u64>();
    if weighted {
        bytes += num_edges * std::mem::size_of::<Weight>();
    }
    bytes
}

/// A graph divided into LLC-sized partitions, each behind its own
/// [`Arc<PartitionStore>`].
#[derive(Clone, Debug)]
pub struct PartitionedGraph {
    graph: Arc<CsrGraph>,
    /// Shared by every epoch folded from this one: a fold never re-plans.
    plan: Arc<PartitionPlan>,
    stores: Vec<Arc<PartitionStore>>,
    config: PartitionConfig,
}

impl PartitionedGraph {
    /// Partition `graph` according to `config` (clones the graph into an
    /// [`Arc`]; use [`Self::build_arc`] to avoid the copy).
    pub fn build(graph: &CsrGraph, config: PartitionConfig) -> PartitionedGraph {
        Self::build_arc(Arc::new(graph.clone()), config)
    }

    /// Partition an already shared graph.
    pub fn build_arc(graph: Arc<CsrGraph>, config: PartitionConfig) -> PartitionedGraph {
        let plan = PartitionPlan::compute(&graph, &config);
        let stores = Self::collect_stores(&graph, &plan, config.storage);
        PartitionedGraph { graph, plan: Arc::new(plan), stores, config }
    }

    /// Build from a precomputed plan (used by the partition-method sweeps).
    pub fn from_plan(graph: Arc<CsrGraph>, plan: PartitionPlan, config: PartitionConfig) -> Self {
        assert!(plan.validate(&graph), "partition plan does not cover the graph");
        let stores = Self::collect_stores(&graph, &plan, config.storage);
        PartitionedGraph { graph, plan: Arc::new(plan), stores, config }
    }

    /// This snapshot's plan and config over `graph`, with per-partition
    /// stores built from it, reusing the stores' `Arc`s (clean partitions
    /// keep sharing memory with the previous epoch) and the plan's (a fold
    /// clones a pointer, not the `n`-entry assignment). `stores[p]` must be
    /// partition `p`'s store under the plan.
    pub(crate) fn with_stores(
        &self,
        graph: Arc<CsrGraph>,
        stores: Vec<Arc<PartitionStore>>,
    ) -> Self {
        debug_assert_eq!(stores.len(), self.plan.num_partitions);
        debug_assert!(stores.iter().enumerate().all(|(p, s)| s.info.id as usize == p));
        PartitionedGraph { graph, plan: Arc::clone(&self.plan), stores, config: self.config }
    }

    fn collect_stores(
        graph: &CsrGraph,
        plan: &PartitionPlan,
        storage: StorageConfig,
    ) -> Vec<Arc<PartitionStore>> {
        let k = plan.num_partitions;
        let mut vertices: Vec<Vec<VertexId>> = vec![Vec::new(); k];
        for v in 0..graph.num_vertices() as VertexId {
            vertices[plan.partition_of(v) as usize].push(v);
        }
        vertices
            .into_iter()
            .enumerate()
            .map(|(id, verts)| {
                Arc::new(PartitionStore::build(graph, id as PartitionId, verts, plan, storage))
            })
            .collect()
    }

    /// The underlying graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Shared handle to the underlying graph.
    pub fn graph_arc(&self) -> Arc<CsrGraph> {
        Arc::clone(&self.graph)
    }

    /// The partition plan.
    pub fn plan(&self) -> &PartitionPlan {
        &self.plan
    }

    /// Configuration this partitioned graph was built with.
    pub fn config(&self) -> &PartitionConfig {
        &self.config
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.stores.len()
    }

    /// Per-partition metadata, in partition order.
    pub fn partitions(&self) -> impl Iterator<Item = &PartitionInfo> {
        self.stores.iter().map(|s| &s.info)
    }

    /// Metadata of partition `p`.
    pub fn partition(&self, p: PartitionId) -> &PartitionInfo {
        &self.stores[p as usize].info
    }

    /// Partition `p`'s shareable store. The `Arc` identity is the partial
    /// rebuild contract: after an epoch advance, `Arc::ptr_eq` holds between
    /// epochs exactly for the partitions the batch left clean.
    pub fn store(&self, p: PartitionId) -> &Arc<PartitionStore> {
        &self.stores[p as usize]
    }

    /// Partition containing vertex `v`.
    #[inline]
    pub fn partition_of(&self, v: VertexId) -> PartitionId {
        self.plan.partition_of(v)
    }

    /// Total number of cut edges (counted once per directed edge).
    pub fn total_cut_edges(&self) -> usize {
        self.partitions().map(|p| p.num_cut_edges).sum()
    }

    /// Fraction of directed edges that cross partitions.
    pub fn cut_ratio(&self) -> f64 {
        if self.graph.num_edges() == 0 {
            0.0
        } else {
            self.total_cut_edges() as f64 / self.graph.num_edges() as f64
        }
    }

    /// Largest partition footprint in bytes. Reflects the *actual* payload
    /// representation: compressed partitions report their encoded size, so
    /// [`PartitionConfig::llc_sized`] sizing packs more compressed partitions
    /// per LLC target.
    pub fn max_footprint_bytes(&self) -> usize {
        self.partitions().map(|p| p.footprint_bytes).max().unwrap_or(0)
    }

    /// Adjacency read access for visits to partition `p`: raw partitions get
    /// a plain CSR view, compressed partitions a streaming varint-decode
    /// view.
    #[inline]
    pub fn adjacency_view(&self, p: PartitionId) -> AdjacencyView<'_> {
        let store = &self.stores[p as usize];
        match &store.compressed {
            None => AdjacencyView::from_csr(&self.graph),
            Some(c) => AdjacencyView::compressed(&self.graph, &store.info.vertices, c),
        }
    }

    /// Number of partitions stored compressed.
    pub fn compressed_partitions(&self) -> usize {
        self.stores.iter().filter(|s| s.is_compressed()).count()
    }

    /// Bytes of the CSR rows raw-stored partitions read (targets +
    /// per-vertex offsets + weights).
    pub fn payload_bytes_raw(&self) -> usize {
        self.stores
            .iter()
            .filter(|s| !s.is_compressed())
            .map(|s| self.raw_equivalent_bytes(&s.info))
            .sum()
    }

    /// Total adjacency payload bytes of compressed-stored partitions
    /// (varint bytes + offsets).
    pub fn payload_bytes_compressed(&self) -> usize {
        self.stores
            .iter()
            .filter_map(|s| s.compressed.as_ref().map(CompressedEdges::payload_bytes))
            .sum()
    }

    /// Mean adjacency bytes a visit streams per directed edge, under each
    /// partition's representation. Compressed payloads sit beside the CSR,
    /// so this is not the resident size.
    pub fn bytes_per_edge(&self) -> f64 {
        if self.graph.num_edges() == 0 {
            return 0.0;
        }
        (self.payload_bytes_raw() + self.payload_bytes_compressed()) as f64
            / self.graph.num_edges() as f64
    }

    /// Bytes of `info`'s partition's CSR rows.
    fn raw_equivalent_bytes(&self, info: &PartitionInfo) -> usize {
        raw_adjacency_bytes(info.num_edges(), info.num_vertices(), self.graph.is_weighted())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::partition::PartitionMethod;

    #[test]
    fn partitions_cover_all_vertices_exactly_once() {
        let g = gen::rmat(9, 5, 1);
        let pg = PartitionedGraph::build(
            &g,
            PartitionConfig::with_partitions(PartitionMethod::Multilevel, 6),
        );
        let mut seen = vec![false; g.num_vertices()];
        for p in pg.partitions() {
            for &v in &p.vertices {
                assert!(!seen[v as usize], "vertex {v} in two partitions");
                seen[v as usize] = true;
                assert_eq!(pg.partition_of(v), p.id);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn edge_counts_are_consistent() {
        let g = gen::grid2d(30, 30, 0.05, 2);
        let pg = PartitionedGraph::build(
            &g,
            PartitionConfig::with_partitions(PartitionMethod::Chunked, 5),
        );
        let total: usize = pg.partitions().map(|p| p.num_edges()).sum();
        assert_eq!(total, g.num_edges());
        assert_eq!(pg.total_cut_edges(), pg.plan().edge_cut(&g));
    }

    #[test]
    fn llc_sized_partitions_respect_footprint() {
        let g = gen::rmat(11, 8, 3);
        let llc = 64 * 1024;
        let pg = PartitionedGraph::build(&g, PartitionConfig::llc_sized(llc));
        assert!(pg.num_partitions() > 1);
        // Footprints should be in the same ballpark as the LLC budget: allow a
        // generous factor because hub vertices cannot be split.
        assert!(pg.max_footprint_bytes() < llc * 4, "footprint {}", pg.max_footprint_bytes());
    }

    #[test]
    fn cut_ratio_bounds() {
        let g = gen::grid2d(40, 40, 0.0, 1);
        let pg = PartitionedGraph::build(
            &g,
            PartitionConfig::with_partitions(PartitionMethod::Multilevel, 8),
        );
        let ratio = pg.cut_ratio();
        assert!(ratio > 0.0 && ratio < 0.5, "cut ratio {ratio}");
    }

    #[test]
    fn from_plan_rejects_invalid_plans() {
        let g = gen::path(10);
        let plan = PartitionPlan { assignment: vec![0; 5], num_partitions: 1 };
        let result = std::panic::catch_unwind(|| {
            PartitionedGraph::from_plan(
                Arc::new(g.clone()),
                plan,
                PartitionConfig::with_partitions(PartitionMethod::Hash, 1),
            )
        });
        assert!(result.is_err());
    }

    /// The cached quotient rows must agree with a from-scratch edge scan.
    #[test]
    fn quotient_rows_match_edge_scan() {
        let g = gen::rmat(8, 5, 11);
        let pg = PartitionedGraph::build(
            &g,
            PartitionConfig::with_partitions(PartitionMethod::Chunked, 7),
        );
        let words = pg.num_partitions().div_ceil(64).max(1);
        let mut expected = vec![vec![0u64; words]; pg.num_partitions()];
        for (u, v, _) in g.edges() {
            let (pu, pv) = (pg.partition_of(u) as usize, pg.partition_of(v) as usize);
            expected[pu][pv / 64] |= 1u64 << (pv % 64);
        }
        for (p, row) in expected.iter().enumerate() {
            assert_eq!(&pg.store(p as PartitionId).quotient_row, row, "row {p}");
        }
    }

    #[test]
    fn single_partition_graph() {
        let g = gen::path(20);
        let pg = PartitionedGraph::build(
            &g,
            PartitionConfig::with_partitions(PartitionMethod::Multilevel, 1),
        );
        assert_eq!(pg.num_partitions(), 1);
        assert_eq!(pg.total_cut_edges(), 0);
        assert_eq!(pg.partition(0).num_vertices(), 20);
    }

    #[test]
    fn compressed_storage_round_trips_and_shrinks() {
        let g = gen::rmat(10, 6, 4).into_weighted(8);
        let base = PartitionConfig::with_partitions(PartitionMethod::Multilevel, 6);
        // One plan for both stores, which are compared partition by partition.
        let plan = crate::partition::PartitionPlan::compute(&g, &base);
        let arc = Arc::new(g.clone());
        let raw = PartitionedGraph::from_plan(Arc::clone(&arc), plan.clone(), base);
        let comp =
            PartitionedGraph::from_plan(arc, plan, base.with_storage(StorageConfig::Compressed));
        // Same monolithic CSR regardless of payload representation.
        assert_eq!(raw.graph(), comp.graph());
        assert_eq!(raw.compressed_partitions(), 0);
        assert_eq!(comp.compressed_partitions(), comp.num_partitions());
        assert_eq!(raw.payload_bytes_compressed(), 0);
        assert_eq!(comp.payload_bytes_raw(), 0);
        // Compression saves more than 30 % of the raw adjacency bytes.
        assert!(
            (comp.payload_bytes_compressed() as f64) < 0.7 * raw.payload_bytes_raw() as f64,
            "compressed {} vs raw {} payload bytes",
            comp.payload_bytes_compressed(),
            raw.payload_bytes_raw()
        );
        assert!(
            comp.bytes_per_edge() <= 0.6 * raw.bytes_per_edge(),
            "compressed {} vs raw {} bytes/edge",
            comp.bytes_per_edge(),
            raw.bytes_per_edge()
        );
        assert!(comp.max_footprint_bytes() < raw.max_footprint_bytes());
        // Every partition's view decodes to its vertices' CSR rows.
        for p in 0..raw.num_partitions() as PartitionId {
            assert!(comp.store(p).is_compressed());
            let (raw_view, comp_view) = (raw.adjacency_view(p), comp.adjacency_view(p));
            assert!(!raw_view.is_compressed() && comp_view.is_compressed());
            for &v in &raw.partition(p).vertices {
                assert!(raw_view.out_edges(v).eq(comp_view.out_edges(v)), "part {p} vertex {v}");
            }
            assert_eq!(raw.store(p).quotient_row, comp.store(p).quotient_row, "row {p}");
        }
    }
}
