//! Per-partition adjacency payloads: the partition's rows of the monolithic
//! CSR, or delta/varint-compressed bytes beside them.
//!
//! The paper sizes partitions to the LLC so a fork-processing pass stays
//! cache-resident; the same discipline extends one level down — fewer **bytes
//! per edge** streamed per visit means more of each partition fits per cache
//! line and more partitions fit in the LLC at once. Every
//! [`crate::partitioned::PartitionStore`] reads its adjacency one of two ways:
//!
//! * **raw** — straight from its vertices' rows of the monolithic
//!   [`CsrGraph`] (8 bytes/edge weighted, plus offsets), zero decode cost.
//!   The store holds no second copy.
//! * **compressed** — a [`CompressedEdges`] payload *beside* the CSR:
//!   per-vertex adjacency encoded as LEB128 varints, a degree prefix, then
//!   the sorted targets as deltas (first target absolute, subsequent targets
//!   as strictly positive gaps), with weights varint-interleaved when the
//!   graph is weighted. On the power-law and lattice graphs in this
//!   workspace that lands at 2–4 bytes/edge streamed per visit; the CSR
//!   rows stay resident too.
//!
//! Which representation a partition gets is policy-driven ([`StorageConfig`]
//! on [`crate::partition::PartitionConfig`]), decided at store build time and
//! preserved across epoch re-materialisation: a dirty-partition rebuild
//! re-encodes only the dirty stores from the new CSR, clean compressed stores
//! stay `Arc`-shared.
//!
//! Kernels never materialise a compressed partition: they read adjacency
//! through [`AdjacencyView`], whose iterators either borrow the monolithic
//! CSR slices (raw partitions — identical code path to before this module
//! existed) or stream-decode the varint bytes in place (compressed
//! partitions).

use crate::{CsrGraph, VertexId, Weight};

/// Per-partition storage policy, carried by
/// [`crate::partition::PartitionConfig`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StorageConfig {
    /// Read every partition's adjacency from the CSR rows (zero decode
    /// cost).
    #[default]
    Raw,
    /// Delta/varint-encode every partition.
    Compressed,
}

impl StorageConfig {
    /// Whether a partition is stored compressed under this policy.
    pub fn wants_compression(&self) -> bool {
        *self == StorageConfig::Compressed
    }
}

/// Append `value` to `buf` as an LEB128 varint (7 bits per byte, high bit =
/// continuation).
#[inline]
pub fn write_varint(buf: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        buf.push((value as u8 & 0x7f) | 0x80);
        value >>= 7;
    }
    buf.push(value as u8);
}

/// Read one LEB128 varint from `bytes` at `*pos`, advancing `*pos`.
#[inline]
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    // Single-byte fast path: the overwhelmingly common case for gap-encoded
    // adjacency (gaps within an LLC-sized partition are small).
    let b = bytes[*pos];
    *pos += 1;
    if b < 0x80 {
        return b as u64;
    }
    let mut value = (b & 0x7f) as u64;
    let mut shift = 7u32;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        value |= ((b & 0x7f) as u64) << shift;
        if b < 0x80 {
            return value;
        }
        shift += 7;
    }
}

/// One partition's adjacency, delta/varint-encoded.
///
/// Layout: `offsets[i]..offsets[i+1]` delimits the byte run of the
/// partition's `i`-th vertex (ascending order of its global vertex ids).
/// Each run is `varint(degree)`, then per edge `varint(target delta)`
/// (+ `varint(weight)` when weighted). The first delta is the absolute
/// target id; subsequent deltas are gaps between consecutive sorted targets,
/// strictly positive under the CSR contract (per-vertex targets strictly
/// increasing).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompressedEdges {
    /// Byte offsets into `bytes`, one per local vertex plus a final sentinel.
    offsets: Vec<u32>,
    /// The varint payload.
    bytes: Vec<u8>,
    /// Total edges encoded (sum of all degree prefixes).
    num_edges: usize,
    /// Whether weights are interleaved after each target delta.
    weighted: bool,
}

impl CompressedEdges {
    /// Encode the rows of `graph` that belong to `vertices` (a partition's
    /// global vertex ids, ascending).
    pub(crate) fn encode(graph: &CsrGraph, vertices: &[VertexId]) -> Self {
        let weighted = graph.is_weighted();
        let mut offsets = Vec::with_capacity(vertices.len() + 1);
        let mut bytes = Vec::new();
        let mut num_edges = 0usize;
        offsets.push(0u32);
        for &v in vertices {
            let degree = graph.out_degree(v);
            write_varint(&mut bytes, degree as u64);
            num_edges += degree;
            let mut prev: VertexId = 0;
            for (t, w) in graph.out_edges(v) {
                write_varint(&mut bytes, (t - prev) as u64);
                if weighted {
                    write_varint(&mut bytes, w as u64);
                }
                prev = t;
            }
            offsets.push(u32::try_from(bytes.len()).expect("partition payload exceeds 4 GiB"));
        }
        bytes.shrink_to_fit();
        CompressedEdges { offsets, bytes, num_edges, weighted }
    }

    /// Number of edges encoded.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Whether weights are interleaved.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weighted
    }

    /// Actual on-heap payload size: varint bytes plus the offsets array.
    pub fn payload_bytes(&self) -> usize {
        self.bytes.len() + self.offsets.len() * std::mem::size_of::<u32>()
    }

    /// Byte range (within this payload) occupied by the `local`-th vertex's
    /// run — what a decode-on-visit actually touches, used by the cache
    /// simulator to model compressed adjacency scans.
    #[inline]
    pub fn byte_range(&self, local: usize) -> (u64, u64) {
        (self.offsets[local] as u64, self.offsets[local + 1] as u64)
    }

    /// Stream-decode the `local`-th vertex's `(target, weight)` pairs.
    /// Unweighted payloads yield weight 1, mirroring [`CsrGraph::out_edges`].
    #[inline(always)] // see `AdjacencyView::out_edges`
    pub fn out_edges(&self, local: usize) -> CompressedOutEdges<'_> {
        let mut pos = self.offsets[local] as usize;
        let degree = read_varint(&self.bytes, &mut pos) as usize;
        CompressedOutEdges {
            bytes: &self.bytes,
            pos,
            remaining: degree,
            prev: 0,
            weighted: self.weighted,
        }
    }
}

/// Streaming decoder over one vertex's compressed adjacency run.
#[derive(Clone, Debug)]
pub struct CompressedOutEdges<'a> {
    bytes: &'a [u8],
    pos: usize,
    remaining: usize,
    prev: VertexId,
    weighted: bool,
}

impl Iterator for CompressedOutEdges<'_> {
    type Item = (VertexId, Weight);

    #[inline(always)] // see `AdjacencyView::out_edges`
    fn next(&mut self) -> Option<(VertexId, Weight)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let delta = read_varint(self.bytes, &mut self.pos) as VertexId;
        let target = self.prev + delta;
        self.prev = target;
        let weight =
            if self.weighted { read_varint(self.bytes, &mut self.pos) as Weight } else { 1 };
        Some((target, weight))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for CompressedOutEdges<'_> {}

/// Read access to one partition's adjacency — the first argument of every
/// [`fg-core` kernel's] `process` hook.
///
/// [`fg-core` kernel's]: https://docs.rs/fg-core
///
/// For raw partitions (and for unpartitioned unit-test graphs via
/// [`AdjacencyView::from_csr`]) every accessor forwards to the monolithic
/// [`CsrGraph`] slices, so the pre-compression code path is unchanged. For
/// compressed partitions the edge accessors stream-decode the varint payload
/// in place (the degree is read from the CSR offsets either way); vertices
/// outside the view's partition fall back to the CSR, so a view is always
/// total over the graph.
#[derive(Clone, Copy, Debug)]
pub struct AdjacencyView<'a> {
    graph: &'a CsrGraph,
    compressed: Option<(&'a [VertexId], &'a CompressedEdges)>,
}

impl<'a> AdjacencyView<'a> {
    /// A raw view over the whole graph (every accessor forwards to the CSR).
    #[inline]
    pub fn from_csr(graph: &'a CsrGraph) -> Self {
        AdjacencyView { graph, compressed: None }
    }

    /// A view that decodes `payload` for the partition whose (ascending)
    /// global vertex ids are `vertices`, falling back to `graph` elsewhere.
    #[inline]
    pub fn compressed(
        graph: &'a CsrGraph,
        vertices: &'a [VertexId],
        payload: &'a CompressedEdges,
    ) -> Self {
        AdjacencyView { graph, compressed: Some((vertices, payload)) }
    }

    /// Whether visits through this view decode compressed bytes.
    #[inline]
    pub fn is_compressed(&self) -> bool {
        self.compressed.is_some()
    }

    /// The monolithic CSR behind this view (for state sizing; adjacency reads
    /// should go through the view's own accessors).
    #[inline]
    pub fn csr(&self) -> &'a CsrGraph {
        self.graph
    }

    /// Local index of `v` within the compressed partition, if this view is
    /// compressed and `v` belongs to it.
    #[inline(always)] // see `AdjacencyView::out_edges`
    fn local_of(&self, v: VertexId) -> Option<(usize, &'a CompressedEdges)> {
        let (vertices, payload) = self.compressed?;
        vertices.binary_search(&v).ok().map(|local| (local, payload))
    }

    /// Out-degree of `v`: two CSR offsets, which every storage mode keeps,
    /// so a compressed view pays neither the partition lookup nor a decode
    /// (PPR asks once per neighbour of every push).
    #[inline(always)] // see `AdjacencyView::out_edges`
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.graph.out_degree(v)
    }

    /// Iterate `(target, weight)` pairs of `v`'s out-edges; unweighted graphs
    /// yield weight 1 (the [`CsrGraph::out_edges`] contract).
    //
    // This, the iterators' `next` and the decode steps under them are the
    // inner loop of every kernel's `process`, and are forced inline: with a
    // plain `#[inline]`, LLVM keeps them out of line whenever several
    // kernels land in one codegen unit, and which do is up to rustc's
    // partitioning — a split that merged the built-in kernels cost ~10 % on
    // PPR and serving workloads.
    #[inline(always)]
    pub fn out_edges(&self, v: VertexId) -> OutEdges<'a> {
        match self.local_of(v) {
            Some((local, payload)) => OutEdges::Compressed(payload.out_edges(local)),
            None => OutEdges::Raw {
                targets: self.graph.out_neighbors(v),
                weights: self.graph.out_weights(v),
                i: 0,
            },
        }
    }

    /// Iterate `v`'s out-neighbours by value.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> OutNeighbors<'a> {
        OutNeighbors(self.out_edges(v))
    }

    /// The `i`-th out-neighbour of `v` (panics if `i >= out_degree(v)`,
    /// matching slice indexing). O(1) on raw views, O(i) decode on compressed
    /// ones — used by random-walk kernels that sample a neighbour by index.
    #[inline]
    pub fn neighbor_at(&self, v: VertexId, i: usize) -> VertexId {
        match self.local_of(v) {
            Some((local, payload)) => payload
                .out_edges(local)
                .nth(i)
                .map(|(t, _)| t)
                .expect("neighbor index out of bounds"),
            None => self.graph.out_neighbors(v)[i],
        }
    }

    /// For compressed views: the payload byte range `v`'s decode touches,
    /// plus `v`'s local index (cache-simulator instrumentation). `None` on
    /// raw views or for vertices outside the partition.
    #[inline]
    pub fn decode_byte_range(&self, v: VertexId) -> Option<(u64, u64)> {
        self.local_of(v).map(|(local, payload)| payload.byte_range(local))
    }
}

/// Iterator over `(target, weight)` pairs of one vertex's out-edges through
/// an [`AdjacencyView`].
#[derive(Clone, Debug)]
pub enum OutEdges<'a> {
    /// Borrowed CSR slices (raw partitions / whole-graph views).
    Raw {
        /// Targets slice of the vertex.
        targets: &'a [VertexId],
        /// Parallel weights, absent on unweighted graphs.
        weights: Option<&'a [Weight]>,
        /// Cursor.
        i: usize,
    },
    /// Streaming varint decode (compressed partitions).
    Compressed(CompressedOutEdges<'a>),
}

impl Iterator for OutEdges<'_> {
    type Item = (VertexId, Weight);

    #[inline(always)] // see `AdjacencyView::out_edges`
    fn next(&mut self) -> Option<(VertexId, Weight)> {
        match self {
            OutEdges::Raw { targets, weights, i } => {
                let t = *targets.get(*i)?;
                let w = weights.map_or(1, |w| w[*i]);
                *i += 1;
                Some((t, w))
            }
            OutEdges::Compressed(inner) => inner.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            OutEdges::Raw { targets, i, .. } => {
                let n = targets.len() - *i;
                (n, Some(n))
            }
            OutEdges::Compressed(inner) => inner.size_hint(),
        }
    }
}

impl ExactSizeIterator for OutEdges<'_> {}

/// Iterator over one vertex's out-neighbours (by value) through an
/// [`AdjacencyView`].
#[derive(Clone, Debug)]
pub struct OutNeighbors<'a>(OutEdges<'a>);

impl Iterator for OutNeighbors<'_> {
    type Item = VertexId;

    #[inline(always)] // see `AdjacencyView::out_edges`
    fn next(&mut self) -> Option<VertexId> {
        self.0.next().map(|(t, _)| t)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for OutNeighbors<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn varint_round_trips_edge_values() {
        let mut buf = Vec::new();
        let values =
            [0u64, 1, 5, 127, 128, 129, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX >> 1];
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos), v);
        }
        assert_eq!(pos, buf.len());
    }

    /// A graph and a "partition" of every third vertex, exercising
    /// non-contiguous ids.
    fn partition_fixture(weighted: bool) -> (CsrGraph, Vec<VertexId>) {
        let g = if weighted { gen::rmat(8, 6, 5).into_weighted(8) } else { gen::rmat(8, 6, 5) };
        let vertices = (0..g.num_vertices() as VertexId).filter(|v| v % 3 == 1).collect();
        (g, vertices)
    }

    #[test]
    fn encode_round_trips_the_csr_rows() {
        for weighted in [false, true] {
            let (g, vertices) = partition_fixture(weighted);
            let c = CompressedEdges::encode(&g, &vertices);
            assert_eq!(c.is_weighted(), weighted);
            let mut edges = 0;
            for (local, &v) in vertices.iter().enumerate() {
                assert_eq!(c.out_edges(local).len(), g.out_degree(v));
                assert!(c.out_edges(local).eq(g.out_edges(v)), "weighted={weighted} vertex {v}");
                edges += g.out_degree(v);
            }
            assert_eq!(c.num_edges(), edges);
        }
    }

    #[test]
    fn compression_beats_raw_bytes_on_real_graphs() {
        let (g, vertices) = partition_fixture(true);
        let c = CompressedEdges::encode(&g, &vertices);
        // What the same rows occupy in the CSR: target + weight per edge,
        // one offset per vertex.
        let raw_bytes = c.num_edges() * 8 + vertices.len() * 8;
        assert!(
            c.payload_bytes() * 2 < raw_bytes,
            "compressed {} vs raw {raw_bytes}",
            c.payload_bytes()
        );
    }

    #[test]
    fn empty_and_isolated_vertices_encode() {
        let mut b = crate::GraphBuilder::new(10);
        b.add_edge(7, 1, 2);
        b.add_edge(7, 4, 1);
        let g = b.build();
        let c = CompressedEdges::encode(&g, &[]);
        assert_eq!(c.num_edges(), 0);
        // Vertices with no out-edges get a lone zero-degree prefix.
        let c = CompressedEdges::encode(&g, &[3, 7, 9]);
        assert_eq!(c.out_edges(0).len(), 0);
        assert_eq!(c.out_edges(1).len(), 2);
        assert_eq!(c.out_edges(2).len(), 0);
        assert_eq!(c.out_edges(1).collect::<Vec<_>>(), vec![(1, 2), (4, 1)]);
    }

    #[test]
    fn view_raw_and_compressed_agree() {
        let g = gen::rmat(8, 6, 5).into_weighted(8);
        let vertices: Vec<VertexId> =
            (0..g.num_vertices() as VertexId).filter(|v| v % 2 == 0).collect();
        let c = CompressedEdges::encode(&g, &vertices);
        let raw = AdjacencyView::from_csr(&g);
        let comp = AdjacencyView::compressed(&g, &vertices, &c);
        assert!(!raw.is_compressed() && comp.is_compressed());
        for v in 0..g.num_vertices() as VertexId {
            assert_eq!(raw.out_degree(v), comp.out_degree(v), "degree of {v}");
            let a: Vec<_> = raw.out_edges(v).collect();
            let b: Vec<_> = comp.out_edges(v).collect();
            assert_eq!(a, b, "edges of {v}");
            let na: Vec<_> = raw.out_neighbors(v).collect();
            let nb: Vec<_> = comp.out_neighbors(v).collect();
            assert_eq!(na, nb, "neighbors of {v}");
            for i in 0..raw.out_degree(v) {
                assert_eq!(raw.neighbor_at(v, i), comp.neighbor_at(v, i));
            }
            // In-partition vertices expose a decode byte range, others don't.
            assert_eq!(comp.decode_byte_range(v).is_some(), v % 2 == 0);
            assert!(raw.decode_byte_range(v).is_none());
        }
    }

    #[test]
    fn storage_config_policy() {
        assert!(!StorageConfig::Raw.wants_compression());
        assert!(StorageConfig::Compressed.wants_compression());
        assert_eq!(StorageConfig::default(), StorageConfig::Raw);
    }
}
