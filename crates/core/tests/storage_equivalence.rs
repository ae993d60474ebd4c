//! Equivalence properties for compressed partition storage.
//!
//! The contract under test (ISSUE 10 acceptance): kernel results are
//! **byte-identical** whether a partition's adjacency is stored raw (CSR
//! slices), compressed (delta/varint payloads decoded on visit), or chosen
//! adaptively per partition — for SSSP, BFS, and erased (`run_dyn`) random
//! walks, on the serial loop and the pool, and across dynamic-graph mutation batches
//! with epoch advances (dirty-partition re-encodes included). The storage
//! policy itself must survive epoch re-materialisation: a store built
//! compressed stays compressed after a fold. And the reason compression
//! exists is held here too: on a graph larger than the simulated LLC it
//! strictly reduces simulated misses.
//!
//! All stores in one comparison share a single [`PartitionPlan`], computed
//! once, so they differ in storage format only.
//!
//! Hand-rolled seeded harness (no proptest in the build environment); a
//! failure prints the case number, which reproduces the trial exactly.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

use fg_graph::mutation::VersionedGraph;
use fg_graph::partition::{PartitionConfig, PartitionMethod, PartitionPlan};
use fg_graph::partitioned::PartitionedGraph;
use fg_graph::{CsrGraph, GraphBuilder, StorageConfig, VertexId};
use fg_seq::random_walk::RandomWalkConfig;
use forkgraph_core::kernels::{RandomWalkKernel, RwState};
use forkgraph_core::{erase, EngineConfig, ForkGraphEngine, SchedulingPolicy};

const CASES: u64 = 5;

/// Worker counts: the serial loop plus the persistent pool.
const WORKERS: [usize; 2] = [1, 4];

/// Adaptive threshold giving a raw/compressed mix on the generated graphs.
const ADAPTIVE_MIN_BYTES: usize = 800;

fn arb_graph(rng: &mut SmallRng) -> CsrGraph {
    let n = rng.gen_range(60usize..200);
    let num_edges = rng.gen_range(2 * n..5 * n);
    let mut b = GraphBuilder::new(n);
    for _ in 0..num_edges {
        let u = rng.gen_range(0u32..n as u32);
        let v = rng.gen_range(0u32..n as u32);
        let w = rng.gen_range(1u32..16);
        b.add_edge(u, v, w);
    }
    b.build()
}

fn arb_sources(rng: &mut SmallRng, n: usize, max: usize) -> Vec<VertexId> {
    (0..rng.gen_range(2usize..=max)).map(|_| rng.gen_range(0..n as u32)).collect()
}

/// One graph, one plan, three stores differing only in storage policy.
fn storage_triple(rng: &mut SmallRng, graph: CsrGraph) -> [Arc<PartitionedGraph>; 3] {
    let parts = rng.gen_range(4usize..13);
    let method = [PartitionMethod::Multilevel, PartitionMethod::Chunked, PartitionMethod::Hash]
        [rng.gen_range(0usize..3)];
    let base = PartitionConfig::with_partitions(method, parts);
    let arc = Arc::new(graph);
    let plan = PartitionPlan::compute(&arc, &base);
    [
        StorageConfig::Raw,
        StorageConfig::Compressed,
        StorageConfig::Adaptive { min_bytes: ADAPTIVE_MIN_BYTES },
    ]
    .map(|storage| {
        Arc::new(PartitionedGraph::from_plan(
            Arc::clone(&arc),
            plan.clone(),
            base.with_storage(storage),
        ))
    })
}

/// A mixed batch: insertions, weight changes, and one deletion (results are
/// compared from scratch per store, so monotonicity is irrelevant here).
fn log_mixed_batch(rng: &mut SmallRng, vg: &VersionedGraph) {
    let n = vg.current().graph().num_vertices() as u32;
    for _ in 0..6 {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            vg.insert_edge(u, v, rng.gen_range(1u32..16)).unwrap();
        }
    }
    if let Some((u, v, _)) = vg.current().graph().edges().nth(3) {
        let _ = vg.delete_edge(u, v);
    }
}

#[test]
fn sssp_and_bfs_are_byte_identical_across_storage_modes_and_executors() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x570A + case);
        let graph = arb_graph(&mut rng);
        let sources = arb_sources(&mut rng, graph.num_vertices(), 5);
        let [raw, compressed, adaptive] = storage_triple(&mut rng, graph);
        assert_eq!(compressed.compressed_partitions(), compressed.num_partitions());
        assert_eq!(raw.compressed_partitions(), 0);

        for workers in WORKERS {
            let config = EngineConfig::default().with_threads(workers);
            let baseline_sssp = ForkGraphEngine::new(&raw, config).run_sssp(&sources).per_query;
            let baseline_bfs = ForkGraphEngine::new(&raw, config).run_bfs(&sources).per_query;
            for (label, pg) in [("compressed", &compressed), ("adaptive", &adaptive)] {
                let engine = ForkGraphEngine::new(pg, config);
                assert_eq!(
                    engine.run_sssp(&sources).per_query,
                    baseline_sssp,
                    "case {case} {label} sssp workers={workers}"
                );
                assert_eq!(
                    engine.run_bfs(&sources).per_query,
                    baseline_bfs,
                    "case {case} {label} bfs workers={workers}"
                );
            }
            // The shared fixpoint is the true one.
            assert_eq!(
                baseline_sssp[0],
                fg_seq::dijkstra::dijkstra(raw.graph(), sources[0]).dist,
                "case {case}: raw-store run disagrees with Dijkstra"
            );
        }
    }
}

#[test]
fn erased_random_walks_are_byte_identical_across_storage_modes() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x570B + case);
        let graph = arb_graph(&mut rng);
        let sources = arb_sources(&mut rng, graph.num_vertices(), 3);
        let [raw, compressed, adaptive] = storage_triple(&mut rng, graph);

        let walks = erase(RandomWalkKernel::new(RandomWalkConfig {
            num_walks: 3,
            walk_length: 6,
            restart_prob: 0.0,
            seed: 11,
        }));
        let run = |pg: &Arc<PartitionedGraph>| {
            ForkGraphEngine::new(pg, EngineConfig::default()).run_dyn(&*walks, &sources).per_query
        };
        let baseline = run(&raw);
        for (label, pg) in [("compressed", &compressed), ("adaptive", &adaptive)] {
            for (q, (a, b)) in run(pg).iter().zip(&baseline).enumerate() {
                assert_eq!(
                    a.downcast_ref::<RwState>().unwrap(),
                    b.downcast_ref::<RwState>().unwrap(),
                    "case {case} {label} query {q}"
                );
            }
        }
    }
}

/// On a graph whose adjacency dwarfs the simulated LLC, compressed partition
/// storage **strictly reduces** simulated misses — each visit streams the
/// (much smaller) encoded byte range instead of the raw CSR lines — while
/// producing byte-identical results, and the storage numbers flow through
/// the measurement.
#[test]
fn compressed_storage_strictly_reduces_simulated_misses() {
    let graph = Arc::new(fg_graph::gen::rmat(11, 12, 53).with_random_weights(8, 53));
    let base = PartitionConfig::with_partitions(PartitionMethod::Multilevel, 8);
    let plan = PartitionPlan::compute(&graph, &base);
    let raw = PartitionedGraph::from_plan(Arc::clone(&graph), plan.clone(), base);
    let compressed =
        PartitionedGraph::from_plan(graph, plan, base.with_storage(StorageConfig::Compressed));
    let n = raw.graph().num_vertices() as u32;
    let sources: Vec<VertexId> = (0..4u32).map(|i| (i * 193 + 5) % n).collect();

    // ~256 KiB simulated LLC, deterministic serial FIFO schedule.
    let config = EngineConfig::default().with_scheduling(SchedulingPolicy::Fifo).with_cache(
        fg_cachesim::CacheConfig { capacity_bytes: 256 * 1024, line_bytes: 64, associativity: 16 },
    );
    let raw_run = ForkGraphEngine::new(&raw, config).run_sssp(&sources);
    let comp_run = ForkGraphEngine::new(&compressed, config).run_sssp(&sources);
    assert_eq!(comp_run.per_query, raw_run.per_query);

    let raw_misses = raw_run.measurement.cache.expect("tracer attached").misses;
    let comp_misses = comp_run.measurement.cache.expect("tracer attached").misses;
    assert!(
        0 < comp_misses && comp_misses < raw_misses,
        "compressed storage must reduce simulated misses: {comp_misses} vs {raw_misses} raw"
    );

    let storage = comp_run.measurement.storage.expect("partition store attached");
    assert_eq!((storage.compressed_partitions, storage.total_partitions), (8, 8));
    assert!(storage.payload_bytes_compressed > 0);
    let raw_storage = raw_run.measurement.storage.expect("partition store attached");
    assert_eq!(raw_storage.compressed_partitions, 0);
    assert!(storage.bytes_per_edge < raw_storage.bytes_per_edge);
}

#[test]
fn storage_modes_agree_after_mutation_batches_and_epoch_advances() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x570C + case);
        let graph = arb_graph(&mut rng);
        let sources = arb_sources(&mut rng, graph.num_vertices(), 4);
        let [raw, compressed, adaptive] = storage_triple(&mut rng, graph);

        let versioned: Vec<VersionedGraph> = [&raw, &compressed, &adaptive]
            .into_iter()
            .map(|pg| VersionedGraph::new(Arc::clone(pg)))
            .collect();

        for round in 0..3 {
            // The identical batch against each store: fork one RNG per store
            // so all three log the same mutations.
            let batch_seed = rng.gen::<u64>();
            let snapshots: Vec<Arc<PartitionedGraph>> = versioned
                .iter()
                .map(|vg| {
                    let mut batch_rng = SmallRng::seed_from_u64(batch_seed);
                    log_mixed_batch(&mut batch_rng, vg);
                    vg.advance().expect("batch logged").graph
                })
                .collect();

            // The storage policy survived the epoch's dirty-partition
            // re-materialisation.
            assert_eq!(
                snapshots[1].compressed_partitions(),
                snapshots[1].num_partitions(),
                "case {case} round {round}: compressed store lost its policy in the fold"
            );
            assert_eq!(snapshots[0].compressed_partitions(), 0);

            let baseline =
                ForkGraphEngine::new(&snapshots[0], EngineConfig::default()).run_sssp(&sources);
            for (label, pg) in [("compressed", &snapshots[1]), ("adaptive", &snapshots[2])] {
                let got = ForkGraphEngine::new(pg, EngineConfig::default()).run_sssp(&sources);
                assert_eq!(
                    got.per_query, baseline.per_query,
                    "case {case} round {round} {label}: post-mutation results diverged"
                );
            }
            assert_eq!(
                baseline.per_query[0],
                fg_seq::dijkstra::dijkstra(snapshots[0].graph(), sources[0]).dist,
                "case {case} round {round}: post-mutation raw run disagrees with Dijkstra"
            );
        }
    }
}

/// The adaptive sweep actually exercises both payload kinds somewhere in the
/// deterministic case set — otherwise the "adaptive" rows above would be
/// silently testing a single mode.
#[test]
fn adaptive_sweep_covers_both_payload_kinds() {
    let mut compressed_seen = 0usize;
    let mut raw_seen = 0usize;
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x570A + case);
        let graph = arb_graph(&mut rng);
        let _ = arb_sources(&mut rng, graph.num_vertices(), 5);
        let [_, _, adaptive] = storage_triple(&mut rng, graph);
        compressed_seen += adaptive.compressed_partitions();
        raw_seen += adaptive.num_partitions() - adaptive.compressed_partitions();
    }
    assert!(compressed_seen > 0, "adaptive threshold never compressed a partition");
    assert!(raw_seen > 0, "adaptive threshold compressed everything");
}
