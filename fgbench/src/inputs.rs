//! Seeded inputs. Everything a workload feeds the program — graphs, weights,
//! sources, request streams, mutations — is a function of `--seed` alone;
//! the program under test receives only what is generated here.

use fg_graph::partition::{PartitionConfig, PartitionMethod, PartitionTarget};
use fg_graph::{gen, CsrGraph, StorageConfig, VertexId};

use crate::spec::Scale;

/// SplitMix64: a self-contained generator so the benchmark's inputs do not
/// change when the workspace's `rand` stand-in does.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, purpose)`: every consumer gets its own stream,
    /// so adding a draw in one place never shifts another's inputs.
    pub fn new(seed: u64, purpose: &str) -> Rng {
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        for byte in purpose.bytes() {
            state = (state ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut rng = Rng(state);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`); the modulo bias is below 2^-32
    /// for every bound used here.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Which graph family a workload runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphKind {
    /// R-MAT `2^levels`, edge factor 8, weights 1..=9, `partitions` Chunked
    /// partitions: the low-diameter, skewed "social" shape.
    Social { levels: u32, partitions: usize },
    /// `side × side` lattice with 2% shortcut edges, weights 1..=9, Chunked
    /// partitions of `llc_bytes`: the high-diameter "road" shape.
    Road { side: usize, llc_bytes: usize },
}

impl GraphKind {
    /// The resident graph of `scale`.
    pub fn social(scale: &Scale) -> GraphKind {
        GraphKind::Social { levels: scale.rmat_levels, partitions: scale.social_partitions }
    }

    /// The beyond-cache graph of `scale`.
    pub fn road(scale: &Scale) -> GraphKind {
        GraphKind::Road { side: scale.grid_side, llc_bytes: scale.road_partition_bytes }
    }

    /// Generate and weight the graph. Seeded.
    pub fn generate(&self, seed: u64) -> CsrGraph {
        match *self {
            GraphKind::Social { levels, .. } => {
                gen::rmat(levels, 8, seed).with_random_weights(9, seed)
            }
            GraphKind::Road { side, .. } => {
                gen::grid2d(side, side, 0.02, seed).with_random_weights(9, seed)
            }
        }
    }

    /// The partitioning every timed run uses. Always `Chunked`:
    /// `PartitionMethod::Multilevel` iterates `std::collections::HashMap`s
    /// (`crates/graph/src/partition.rs:422` and `:507`), so each process
    /// gets another layout, other work counters and other run times.
    pub fn partition_config(&self, storage: StorageConfig) -> PartitionConfig {
        let target = match *self {
            GraphKind::Social { partitions, .. } => PartitionTarget::NumPartitions(partitions),
            GraphKind::Road { llc_bytes, .. } => PartitionTarget::LlcBytes(llc_bytes),
        };
        PartitionConfig { method: PartitionMethod::Chunked, target, seed: 42, storage }
    }
}

/// `count` distinct query sources, one per out-degree stratum, lowest
/// degrees first.
///
/// Sources come from the largest component (found from the highest-degree
/// vertex; the generated graphs are symmetric) and are stratified by
/// out-degree: the component's vertices are sorted by degree and cut into
/// `count` equal strata, and the seed picks one vertex per stratum. A plain
/// uniform draw would let the seed decide how many sources sit in two-vertex
/// components or on hubs, and with it the amount of work — a property of the
/// draw, not of the program. Fewer than `count` only when the component is
/// smaller than that.
pub fn stratified_sources(graph: &CsrGraph, count: usize, rng: &mut Rng) -> Vec<VertexId> {
    let n = graph.num_vertices();
    let Some(hub) = (0..n as VertexId).max_by_key(|&v| (graph.out_degree(v), std::cmp::Reverse(v)))
    else {
        return Vec::new();
    };
    let mut reached = vec![false; n];
    let mut frontier = vec![hub];
    reached[hub as usize] = true;
    while let Some(u) = frontier.pop() {
        for &v in graph.out_neighbors(u) {
            if !reached[v as usize] {
                reached[v as usize] = true;
                frontier.push(v);
            }
        }
    }
    let mut component: Vec<VertexId> =
        (0..n as VertexId).filter(|&v| reached[v as usize] && graph.out_degree(v) >= 1).collect();
    component.sort_by_key(|&v| (graph.out_degree(v), v));
    let count = count.min(component.len());
    (0..count)
        .map(|stratum| {
            let lo = stratum * component.len() / count;
            let hi = (stratum + 1) * component.len() / count;
            component[lo + rng.below((hi - lo) as u64) as usize]
        })
        .collect()
}

/// [`stratified_sources`] in seeded order.
pub fn pick_sources(graph: &CsrGraph, count: usize, rng: &mut Rng) -> Vec<VertexId> {
    let mut sources = stratified_sources(graph, count, rng);
    rng.shuffle(&mut sources);
    sources
}

/// One read request of a serving workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReadKey {
    pub bfs: bool,
    pub source: VertexId,
}

impl ReadKey {
    pub fn kernel(&self) -> &'static str {
        if self.bfs {
            "bfs"
        } else {
            "sssp"
        }
    }
}

/// A request stream of `len` reads whose source follows Zipf(1.0) over
/// `pool` (rank 1 first) and whose kernel is SSSP or BFS, half each.
///
/// The stream is a *stratified* sample: rank `r` appears
/// `len · (1/r) / H(pool)` times, rounded by largest remainder, and each
/// rank's appearances are split between the two kernels as evenly as an
/// integer allows. The seed decides which vertex holds which rank, which
/// kernel gets a rank's odd appearance, and the order of the stream. Drawing
/// every request independently would add binomial noise to the number of
/// distinct keys — hence to the hit rate and the run time — that says
/// nothing about the program.
pub fn zipf_stream(pool: &[VertexId], len: usize, rng: &mut Rng) -> Vec<ReadKey> {
    assert!(!pool.is_empty(), "zipf_stream needs a vertex pool");
    let harmonic: f64 = (1..=pool.len()).map(|r| 1.0 / r as f64).sum();
    let exact: Vec<f64> = (1..=pool.len()).map(|r| len as f64 / (r as f64 * harmonic)).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..pool.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())).then(a.cmp(&b))
    });
    let assigned: usize = counts.iter().sum();
    for &rank in by_remainder.iter().take(len - assigned) {
        counts[rank] += 1;
    }
    let mut stream = Vec::with_capacity(len);
    for (rank, &count) in counts.iter().enumerate() {
        let odd_is_bfs = rng.below(2) == 1;
        for i in 0..count {
            let bfs = if i + 1 == count && count % 2 == 1 { odd_is_bfs } else { i % 2 == 1 };
            stream.push(ReadKey { bfs, source: pool[rank] });
        }
    }
    rng.shuffle(&mut stream);
    stream
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_a_function_of_the_seed() {
        let graph = GraphKind::Social { levels: 8, partitions: 4 }.generate(3);
        assert_eq!(graph, GraphKind::Social { levels: 8, partitions: 4 }.generate(3));
        let a = pick_sources(&graph, 16, &mut Rng::new(3, "sources"));
        let b = pick_sources(&graph, 16, &mut Rng::new(3, "sources"));
        let c = pick_sources(&graph, 16, &mut Rng::new(4, "sources"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut distinct = a.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), a.len());
        assert!(a.iter().all(|&v| graph.out_degree(v) >= 1));
    }

    #[test]
    fn zipf_stream_has_the_expected_shape_for_every_seed() {
        let pool: Vec<VertexId> = (100..164).collect();
        let shape = |seed: u64| {
            let stream = zipf_stream(&pool, 500, &mut Rng::new(seed, "reads"));
            assert_eq!(stream.len(), 500);
            let top = stream.iter().filter(|k| k.source == pool[0]).count();
            let bfs = stream.iter().filter(|k| k.bfs).count();
            let mut keys = stream.clone();
            keys.sort();
            keys.dedup();
            (top, keys.len(), bfs, stream)
        };
        let (top_a, distinct_a, bfs_a, stream_a) = shape(1);
        let (top_b, distinct_b, bfs_b, stream_b) = shape(2);
        // Rank 1 of 64 under Zipf(1.0) holds 1/H(64) = 21% of the stream.
        assert_eq!(top_a, 105);
        assert_eq!((top_a, distinct_a), (top_b, distinct_b), "shape is seed-independent");
        assert!((bfs_a as i64 - 250).abs() <= 32 && (bfs_b as i64 - 250).abs() <= 32);
        assert_ne!(stream_a, stream_b, "order is seeded");
    }
}
