//! Graph partitioning.
//!
//! ForkGraph divides the graph into LLC-sized partitions (`|P| =
//! graph.size / LLC.size`, Section 6.1 of the paper). The paper pre-processes
//! graphs with METIS for road/citation/web graphs and falls back to random
//! partitioning for large social networks. This module provides:
//!
//! * [`PartitionMethod::Hash`] — deterministic hash assignment (stands in for
//!   GridGraph-style partitioning in the partition-method comparison),
//! * [`PartitionMethod::Chunked`] — contiguous vertex ranges balanced by edge
//!   count (Gemini's lightweight partitioning),
//! * [`PartitionMethod::Multilevel`] — a METIS-like multilevel edge-cut
//!   partitioner (heavy-edge-matching coarsening, region-growing initial
//!   partitioning, greedy boundary refinement).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::payload::StorageConfig;
use crate::{CsrGraph, VertexId};

/// Identifier of a partition within a [`PartitionPlan`].
pub type PartitionId = u32;

/// The partitioning algorithm to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionMethod {
    /// Deterministic hash of the vertex id.
    Hash,
    /// Contiguous vertex ranges balanced by out-degree sum (Gemini-style).
    Chunked,
    /// METIS-like multilevel edge-cut partitioning (default).
    Multilevel,
}

impl PartitionMethod {
    /// All methods, for sweeps in the evaluation harness.
    pub fn all() -> [PartitionMethod; 3] {
        [PartitionMethod::Hash, PartitionMethod::Chunked, PartitionMethod::Multilevel]
    }

    /// Short human-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            PartitionMethod::Hash => "hash",
            PartitionMethod::Chunked => "chunked",
            PartitionMethod::Multilevel => "multilevel",
        }
    }
}

/// How many partitions to produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionTarget {
    /// Produce exactly this many partitions.
    NumPartitions(usize),
    /// Produce `ceil(graph.size_bytes() / bytes)` partitions, i.e. partitions
    /// sized to a (simulated) last-level cache of `bytes` bytes.
    LlcBytes(usize),
}

/// Configuration handed to [`PartitionPlan::compute`] /
/// [`crate::partitioned::PartitionedGraph::build`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartitionConfig {
    /// Partitioning algorithm.
    pub method: PartitionMethod,
    /// Partition-count target.
    pub target: PartitionTarget,
    /// Seed of the multilevel partitioner's matching and region-growing order.
    pub seed: u64,
    /// Per-partition payload storage policy (raw or compressed). Defaults to
    /// [`StorageConfig::Raw`].
    pub storage: StorageConfig,
}

impl PartitionConfig {
    /// LLC-sized multilevel partitioning — the paper's default configuration.
    pub fn llc_sized(llc_bytes: usize) -> Self {
        PartitionConfig {
            method: PartitionMethod::Multilevel,
            target: PartitionTarget::LlcBytes(llc_bytes),
            seed: 42,
            storage: StorageConfig::Raw,
        }
    }

    /// Exactly `k` partitions with the given method.
    pub fn with_partitions(method: PartitionMethod, k: usize) -> Self {
        PartitionConfig {
            method,
            target: PartitionTarget::NumPartitions(k),
            seed: 42,
            storage: StorageConfig::Raw,
        }
    }

    /// Override the payload storage policy.
    pub fn with_storage(mut self, storage: StorageConfig) -> Self {
        self.storage = storage;
        self
    }

    /// Resolve the number of partitions for a concrete graph.
    pub fn resolve_num_partitions(&self, graph: &CsrGraph) -> usize {
        match self.target {
            PartitionTarget::NumPartitions(k) => k.max(1),
            PartitionTarget::LlcBytes(bytes) => {
                let bytes = bytes.max(1);
                graph.size_bytes().div_ceil(bytes).max(1)
            }
        }
    }
}

impl Default for PartitionConfig {
    fn default() -> Self {
        // 2 MiB simulated LLC: scaled from the paper's 13.75 MiB to match the
        // scaled-down synthetic datasets.
        PartitionConfig::llc_sized(2 * 1024 * 1024)
    }
}

/// Result of partitioning: a partition id per vertex.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionPlan {
    /// `assignment[v]` is the partition of vertex `v`.
    pub assignment: Vec<PartitionId>,
    /// Number of partitions (some may be empty).
    pub num_partitions: usize,
}

impl PartitionPlan {
    /// Compute a plan for `graph` under `config`.
    pub fn compute(graph: &CsrGraph, config: &PartitionConfig) -> PartitionPlan {
        let k = config.resolve_num_partitions(graph).min(graph.num_vertices().max(1));
        let assignment = match config.method {
            PartitionMethod::Hash => hash_partition(graph, k),
            PartitionMethod::Chunked => chunked_partition(graph, k),
            PartitionMethod::Multilevel => multilevel_partition(graph, k, config.seed),
        };
        PartitionPlan { assignment, num_partitions: k }
    }

    /// Partition of vertex `v`.
    #[inline]
    pub fn partition_of(&self, v: VertexId) -> PartitionId {
        self.assignment[v as usize]
    }

    /// Number of vertices in each partition.
    pub fn partition_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_partitions];
        for &p in &self.assignment {
            sizes[p as usize] += 1;
        }
        sizes
    }

    /// Number of edges whose endpoints lie in different partitions.
    pub fn edge_cut(&self, graph: &CsrGraph) -> usize {
        let mut cut = 0usize;
        for u in 0..graph.num_vertices() as VertexId {
            let pu = self.assignment[u as usize];
            for &v in graph.out_neighbors(u) {
                if self.assignment[v as usize] != pu {
                    cut += 1;
                }
            }
        }
        cut
    }

    /// Load imbalance: max partition size / average partition size.
    pub fn imbalance(&self) -> f64 {
        let sizes = self.partition_sizes();
        let non_empty = sizes.iter().filter(|&&s| s > 0).count().max(1);
        let max = *sizes.iter().max().unwrap_or(&0) as f64;
        let avg = self.assignment.len() as f64 / non_empty as f64;
        if avg == 0.0 {
            1.0
        } else {
            max / avg
        }
    }

    /// Check that every vertex is assigned to a valid partition.
    pub fn validate(&self, graph: &CsrGraph) -> bool {
        self.assignment.len() == graph.num_vertices()
            && self.assignment.iter().all(|&p| (p as usize) < self.num_partitions)
    }
}

fn hash_partition(graph: &CsrGraph, k: usize) -> Vec<PartitionId> {
    (0..graph.num_vertices() as u64)
        .map(|v| {
            let mut x = v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            x ^= x >> 29;
            x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            (x % k as u64) as PartitionId
        })
        .collect()
}

/// Contiguous ranges balanced by out-degree: every partition receives roughly
/// `|E| / k` edges, mirroring Gemini's lightweight chunking.
fn chunked_partition(graph: &CsrGraph, k: usize) -> Vec<PartitionId> {
    let n = graph.num_vertices();
    let total_edges = graph.num_edges().max(1);
    let per_part = (total_edges as f64 / k as f64).max(1.0);
    let mut assignment = vec![0 as PartitionId; n];
    let mut current = 0usize;
    let mut acc = 0usize;
    for (v, slot) in assignment.iter_mut().enumerate() {
        *slot = current as PartitionId;
        acc += graph.out_degree(v as VertexId).max(1);
        if acc as f64 >= per_part && current + 1 < k {
            current += 1;
            acc = 0;
        }
    }
    assignment
}

// ---------------------------------------------------------------------------
// Multilevel (METIS-like) partitioning
// ---------------------------------------------------------------------------

struct CoarseGraph {
    /// adjacency as (neighbor, edge_weight)
    adj: Vec<Vec<(u32, u64)>>,
    /// number of original vertices collapsed into each coarse vertex
    vertex_weight: Vec<u64>,
    /// map from finer-level vertex to this level's vertex
    fine_to_coarse: Vec<u32>,
}

/// METIS-like multilevel edge-cut partitioner.
///
/// 1. *Coarsening*: repeated heavy-edge matching until the graph is small.
/// 2. *Initial partitioning*: weighted region growing on the coarsest graph.
/// 3. *Uncoarsening*: project the assignment back and run a greedy boundary
///    refinement pass at every level.
fn multilevel_partition(graph: &CsrGraph, k: usize, seed: u64) -> Vec<PartitionId> {
    let n = graph.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    if k <= 1 {
        return vec![0; n];
    }

    // Level 0 adjacency (collapse parallel edges, weight = multiplicity).
    let mut base_adj: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
    for u in 0..n as VertexId {
        for &v in graph.out_neighbors(u) {
            if u != v {
                base_adj[u as usize].push((v, 1));
            }
        }
    }
    let mut levels: Vec<CoarseGraph> = vec![CoarseGraph {
        adj: base_adj,
        vertex_weight: vec![1; n],
        fine_to_coarse: Vec::new(), // unused for level 0
    }];

    // Coarsen.
    let coarsen_stop = (4 * k).max(128);
    let mut rng = SmallRng::seed_from_u64(seed);
    while levels.last().unwrap().adj.len() > coarsen_stop {
        let current = levels.last().unwrap();
        let coarse = coarsen(current, &mut rng);
        let shrunk = coarse.adj.len() < current.adj.len() * 95 / 100;
        levels.push(coarse);
        if !shrunk {
            break; // matching no longer makes progress (e.g. star graphs)
        }
    }

    // Initial partitioning on the coarsest level.
    let coarsest = levels.last().unwrap();
    let mut assignment = initial_partition(coarsest, k, &mut rng);
    refine(coarsest, &mut assignment, k);

    // Uncoarsen and refine at each level.
    for level in (1..levels.len()).rev() {
        let fine = &levels[level - 1];
        let coarse = &levels[level];
        let mut fine_assignment = vec![0 as PartitionId; fine.adj.len()];
        for (v, fa) in fine_assignment.iter_mut().enumerate() {
            *fa = assignment[coarse.fine_to_coarse[v] as usize];
        }
        assignment = fine_assignment;
        refine(fine, &mut assignment, k);
    }
    assignment
}

/// Heavy-edge matching coarsening step.
fn coarsen(g: &CoarseGraph, rng: &mut SmallRng) -> CoarseGraph {
    let n = g.adj.len();
    let mut matched = vec![u32::MAX; n];
    let mut order: Vec<u32> = (0..n as u32).collect();
    // Visit vertices in random order for better matchings.
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    for &u in &order {
        if matched[u as usize] != u32::MAX {
            continue;
        }
        // Pick the heaviest unmatched neighbour; among equally heavy edges
        // the lightest neighbour, so coarse vertices stay evenly sized.
        let mut best: Option<(u32, u64)> = None;
        for &(v, w) in &g.adj[u as usize] {
            if matched[v as usize] == u32::MAX
                && v != u
                && best.is_none_or(|(bv, bw)| {
                    w > bw
                        || (w == bw && g.vertex_weight[v as usize] < g.vertex_weight[bv as usize])
                })
            {
                best = Some((v, w));
            }
        }
        match best {
            Some((v, _)) => {
                matched[u as usize] = v;
                matched[v as usize] = u;
            }
            None => matched[u as usize] = u,
        }
    }

    // Assign coarse ids.
    let mut fine_to_coarse = vec![u32::MAX; n];
    let mut next = 0u32;
    for u in 0..n as u32 {
        if fine_to_coarse[u as usize] != u32::MAX {
            continue;
        }
        let m = matched[u as usize];
        fine_to_coarse[u as usize] = next;
        if m != u && m != u32::MAX {
            fine_to_coarse[m as usize] = next;
        }
        next += 1;
    }
    let cn = next as usize;

    let mut vertex_weight = vec![0u64; cn];
    for u in 0..n {
        vertex_weight[fine_to_coarse[u] as usize] += g.vertex_weight[u];
    }

    // Aggregate edges between coarse vertices: gather, sort by neighbour,
    // merge parallel edges. Sorted adjacency (rather than hash order) keeps
    // the next level's matching and region growing deterministic.
    let mut adj: Vec<Vec<(u32, u64)>> = vec![Vec::new(); cn];
    for u in 0..n {
        let cu = fine_to_coarse[u];
        for &(v, w) in &g.adj[u] {
            let cv = fine_to_coarse[v as usize];
            if cu != cv {
                adj[cu as usize].push((cv, w));
            }
        }
    }
    for edges in &mut adj {
        merge_by_key(edges);
    }
    CoarseGraph { adj, vertex_weight, fine_to_coarse }
}

/// Sort `(key, weight)` pairs by key and sum the weights of equal keys.
fn merge_by_key(pairs: &mut Vec<(u32, u64)>) {
    pairs.sort_unstable_by_key(|&(key, _)| key);
    pairs.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
}

/// Weighted region growing to produce an initial balanced partition.
fn initial_partition(g: &CoarseGraph, k: usize, rng: &mut SmallRng) -> Vec<PartitionId> {
    let n = g.adj.len();
    let total_weight: u64 = g.vertex_weight.iter().sum();
    let cap = (total_weight as f64 / k as f64 * 1.1).ceil() as u64 + 1;
    let mut assignment = vec![PartitionId::MAX; n];
    let mut loads = vec![0u64; k];
    let mut unvisited: Vec<u32> = (0..n as u32).collect();
    for i in (1..unvisited.len()).rev() {
        let j = rng.gen_range(0..=i);
        unvisited.swap(i, j);
    }
    let mut cursor = 0usize;
    for (p, load) in loads.iter_mut().enumerate() {
        // Find a seed.
        while cursor < unvisited.len() && assignment[unvisited[cursor] as usize] != PartitionId::MAX
        {
            cursor += 1;
        }
        if cursor >= unvisited.len() {
            break;
        }
        let seed = unvisited[cursor];
        let mut queue = std::collections::VecDeque::new();
        assignment[seed as usize] = p as PartitionId;
        *load += g.vertex_weight[seed as usize];
        queue.push_back(seed);
        while let Some(u) = queue.pop_front() {
            if *load >= cap {
                break;
            }
            for &(v, _) in &g.adj[u as usize] {
                if assignment[v as usize] == PartitionId::MAX && *load < cap {
                    assignment[v as usize] = p as PartitionId;
                    *load += g.vertex_weight[v as usize];
                    queue.push_back(v);
                }
            }
        }
    }
    // Any stragglers go to the least loaded partition.
    for (v, slot) in assignment.iter_mut().enumerate() {
        if *slot == PartitionId::MAX {
            let p = loads.iter().enumerate().min_by_key(|&(_, l)| *l).map(|(i, _)| i).unwrap_or(0);
            *slot = p as PartitionId;
            loads[p] += g.vertex_weight[v];
        }
    }
    assignment
}

/// One greedy boundary-refinement pass: move a vertex to the neighbouring
/// partition with the largest cut gain, if balance allows.
fn refine(g: &CoarseGraph, assignment: &mut [PartitionId], k: usize) {
    let n = g.adj.len();
    let total_weight: u64 = g.vertex_weight.iter().sum();
    let cap = (total_weight as f64 / k as f64 * 1.15).ceil() as u64 + 1;
    let mut loads = vec![0u64; k];
    for v in 0..n {
        loads[assignment[v] as usize] += g.vertex_weight[v];
    }
    let mut towards: Vec<(PartitionId, u64)> = Vec::new();
    for _pass in 0..2 {
        let mut moved = 0usize;
        for u in 0..n {
            let pu = assignment[u];
            if g.adj[u].is_empty() {
                continue;
            }
            // Edge weight towards each neighbouring partition, by id.
            towards.clear();
            towards.extend(g.adj[u].iter().map(|&(v, w)| (assignment[v as usize], w)));
            merge_by_key(&mut towards);
            let mut internal = 0;
            let mut best: Option<(PartitionId, u64)> = None;
            for &(p, w) in &towards {
                if p == pu {
                    internal = w;
                } else if best.is_none_or(|(_, bw)| w > bw) {
                    // Strictly heavier only: ties go to the lowest id.
                    best = Some((p, w));
                }
            }
            if let Some((best_p, best_w)) = best {
                let vw = g.vertex_weight[u];
                if best_w > internal && loads[best_p as usize] + vw <= cap {
                    loads[pu as usize] -= vw;
                    loads[best_p as usize] += vw;
                    assignment[u] = best_p;
                    moved += 1;
                }
            }
        }
        if moved == 0 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn check_plan(graph: &CsrGraph, plan: &PartitionPlan) {
        assert!(plan.validate(graph));
        assert_eq!(plan.partition_sizes().iter().sum::<usize>(), graph.num_vertices());
    }

    #[test]
    fn every_method_produces_a_valid_cover() {
        let g = gen::rmat(9, 6, 1);
        for method in PartitionMethod::all() {
            let plan = PartitionPlan::compute(&g, &PartitionConfig::with_partitions(method, 8));
            check_plan(&g, &plan);
            assert_eq!(plan.num_partitions, 8, "{method:?}");
        }
    }

    #[test]
    fn llc_target_resolves_partition_count() {
        let g = gen::grid2d(100, 100, 0.0, 1);
        let config = PartitionConfig::llc_sized(16 * 1024);
        let k = config.resolve_num_partitions(&g);
        assert_eq!(k, g.size_bytes().div_ceil(16 * 1024));
        let plan = PartitionPlan::compute(&g, &config);
        check_plan(&g, &plan);
        assert_eq!(plan.num_partitions, k.min(g.num_vertices()));
    }

    #[test]
    fn single_partition_when_graph_fits() {
        let g = gen::path(10);
        let config = PartitionConfig::llc_sized(1024 * 1024 * 1024);
        let plan = PartitionPlan::compute(&g, &config);
        assert_eq!(plan.num_partitions, 1);
        assert!(plan.assignment.iter().all(|&p| p == 0));
    }

    #[test]
    fn chunked_is_contiguous() {
        let g = gen::grid2d(40, 40, 0.0, 1);
        let plan = PartitionPlan::compute(
            &g,
            &PartitionConfig::with_partitions(PartitionMethod::Chunked, 7),
        );
        // Assignment must be non-decreasing for contiguous ranges.
        assert!(plan.assignment.windows(2).all(|w| w[0] <= w[1]));
        check_plan(&g, &plan);
    }

    #[test]
    fn multilevel_beats_hash_on_grid_cut() {
        let g = gen::grid2d(60, 60, 0.0, 1);
        let k = 9;
        let hash =
            PartitionPlan::compute(&g, &PartitionConfig::with_partitions(PartitionMethod::Hash, k));
        let multi = PartitionPlan::compute(
            &g,
            &PartitionConfig::with_partitions(PartitionMethod::Multilevel, k),
        );
        check_plan(&g, &multi);
        let hc = hash.edge_cut(&g);
        let mc = multi.edge_cut(&g);
        assert!(
            (mc as f64) < hc as f64 * 0.5,
            "multilevel cut {mc} should be far below hash cut {hc}"
        );
    }

    #[test]
    fn multilevel_balance_is_reasonable() {
        let g = gen::rmat(10, 8, 2);
        let plan = PartitionPlan::compute(
            &g,
            &PartitionConfig::with_partitions(PartitionMethod::Multilevel, 10),
        );
        check_plan(&g, &plan);
        assert!(plan.imbalance() < 3.0, "imbalance {}", plan.imbalance());
    }

    #[test]
    fn hash_plans_are_deterministic() {
        let g = gen::erdos_renyi(200, 1000, 3);
        let h = PartitionConfig::with_partitions(PartitionMethod::Hash, 4);
        assert_eq!(PartitionPlan::compute(&g, &h), PartitionPlan::compute(&g, &h));
    }

    #[test]
    fn more_partitions_than_vertices_is_clamped() {
        let g = gen::path(4);
        let plan = PartitionPlan::compute(
            &g,
            &PartitionConfig::with_partitions(PartitionMethod::Multilevel, 100),
        );
        assert!(plan.num_partitions <= 4);
        check_plan(&g, &plan);
    }

    #[test]
    fn edge_cut_zero_for_single_partition() {
        let g = gen::rmat(7, 4, 1);
        let plan =
            PartitionPlan::compute(&g, &PartitionConfig::with_partitions(PartitionMethod::Hash, 1));
        assert_eq!(plan.edge_cut(&g), 0);
    }

    #[test]
    fn disconnected_graph_is_fully_assigned() {
        // Two disjoint paths plus isolated vertices.
        let mut b = crate::GraphBuilder::new(20);
        for i in 0..5u32 {
            b.add_undirected_edge(i, i + 1, 1);
        }
        for i in 10..14u32 {
            b.add_undirected_edge(i, i + 1, 1);
        }
        let g = b.build();
        for method in PartitionMethod::all() {
            let plan = PartitionPlan::compute(&g, &PartitionConfig::with_partitions(method, 3));
            check_plan(&g, &plan);
        }
    }
}
