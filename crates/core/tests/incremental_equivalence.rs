//! Equivalence properties for delta-frontier incremental restart.
//!
//! The contract under test (ISSUE 8 acceptance): after a **monotone** edge
//! batch (insertions and weight decreases), resuming converged SSSP/BFS
//! states from the delta frontier via `run_incremental` is **byte-identical**
//! to a from-scratch run on the post-mutation graph — under the serial loop
//! and the pooled parallel executor alike. Non-monotone batches
//! (deletions, weight increases) are flagged by
//! [`fg_graph::mutation::AppliedDeltas::monotone`] so callers take the
//! full-re-run fallback; that classification and the fallback's correctness
//! are asserted here too, not assumed.
//!
//! Hand-rolled seeded harness (no proptest in the build environment); a
//! failure prints the case number, which reproduces the trial exactly.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

use fg_graph::mutation::VersionedGraph;
use fg_graph::partition::{PartitionConfig, PartitionMethod};
use fg_graph::partitioned::PartitionedGraph;
use fg_graph::{CsrGraph, GraphBuilder, VertexId};
use forkgraph_core::kernels::{BfsKernel, SsspKernel};
use forkgraph_core::{EngineConfig, ForkGraphEngine};

const CASES: u64 = 6;

/// Worker counts: the serial loop, and the pool at two crew sizes.
const WORKERS: [usize; 3] = [1, 2, 4];

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

fn arb_partitioned(rng: &mut SmallRng, graph: CsrGraph) -> Arc<PartitionedGraph> {
    let parts = rng.gen_range(4usize..13);
    let method = [PartitionMethod::Multilevel, PartitionMethod::Chunked, PartitionMethod::Hash]
        [rng.gen_range(0usize..3)];
    Arc::new(PartitionedGraph::build_arc(
        Arc::new(graph),
        PartitionConfig::with_partitions(method, parts),
    ))
}

fn arb_sources(rng: &mut SmallRng, n: usize, max: usize) -> Vec<VertexId> {
    (0..rng.gen_range(2usize..=max)).map(|_| rng.gen_range(0..n as u32)).collect()
}

/// Log a random batch of insertions and weight *decreases* — mutations a
/// monotone kernel can absorb incrementally.
fn log_monotone_batch(rng: &mut SmallRng, vg: &VersionedGraph) {
    let pg = vg.current();
    let n = pg.graph().num_vertices() as u32;
    let existing: std::collections::HashMap<(u32, u32), u32> =
        pg.graph().edges().map(|(u, v, w)| ((u, v), w)).collect();
    let mut logged = 0;
    while logged < 8 {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        match existing.get(&(u, v)) {
            Some(&w) if w > 1 => vg.insert_edge(u, v, rng.gen_range(1..w)).unwrap(),
            Some(_) => continue, // already at minimum weight; a rewrite would be a no-op
            None => vg.insert_edge(u, v, rng.gen_range(1u32..16)).unwrap(),
        };
        logged += 1;
    }
}

#[test]
fn incremental_sssp_after_insertions_is_byte_identical_across_executors() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1AC5 + case);
        let graph = arb_graph(&mut rng);
        let pg0 = arb_partitioned(&mut rng, graph);
        let sources = arb_sources(&mut rng, pg0.graph().num_vertices(), 5);

        let prev = ForkGraphEngine::new(&pg0, EngineConfig::default()).run_sssp(&sources);

        let vg = VersionedGraph::new(Arc::clone(&pg0));
        log_monotone_batch(&mut rng, &vg);
        let applied = vg.advance().expect("batch logged");
        assert!(applied.monotone, "case {case}: insert/decrease batch must classify monotone");

        let scratch =
            ForkGraphEngine::new(&applied.graph, EngineConfig::default()).run_sssp(&sources);

        for workers in WORKERS {
            let config = EngineConfig::default().with_threads(workers);
            let engine = ForkGraphEngine::new(&applied.graph, config);
            let incremental = engine.run_incremental(
                &SsspKernel,
                &sources,
                prev.per_query.clone(),
                &applied.seed_edges,
            );
            assert_eq!(
                incremental.per_query, scratch.per_query,
                "case {case} workers={workers}: incremental != from-scratch"
            );
        }

        // Belt and braces: the shared fixpoint is the true one.
        assert_eq!(
            scratch.per_query[0],
            fg_seq::dijkstra::dijkstra(applied.graph.graph(), sources[0]).dist,
            "case {case}: from-scratch run disagrees with Dijkstra"
        );
    }
}

#[test]
fn incremental_bfs_after_insertions_is_byte_identical_across_executors() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1BF5 + case);
        let graph = arb_graph(&mut rng);
        let pg0 = arb_partitioned(&mut rng, graph);
        let sources = arb_sources(&mut rng, pg0.graph().num_vertices(), 5);

        let prev = ForkGraphEngine::new(&pg0, EngineConfig::default()).run_bfs(&sources);

        let vg = VersionedGraph::new(Arc::clone(&pg0));
        log_monotone_batch(&mut rng, &vg);
        let applied = vg.advance().expect("batch logged");
        assert!(applied.monotone);

        let scratch =
            ForkGraphEngine::new(&applied.graph, EngineConfig::default()).run_bfs(&sources);

        for workers in WORKERS {
            let config = EngineConfig::default().with_threads(workers);
            let engine = ForkGraphEngine::new(&applied.graph, config);
            let incremental = engine.run_incremental(
                &BfsKernel,
                &sources,
                prev.per_query.clone(),
                &applied.seed_edges,
            );
            assert_eq!(incremental.per_query, scratch.per_query, "case {case} workers={workers}");
        }
    }
}

/// Deletions must be classified non-monotone so callers take the
/// full-re-run fallback — and that fallback must actually be correct on the
/// post-deletion graph.
#[test]
fn deletions_classify_non_monotone_and_full_rerun_fallback_is_correct() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xDE1 + case);
        let graph = arb_graph(&mut rng);
        let pg0 = arb_partitioned(&mut rng, graph);
        let sources = arb_sources(&mut rng, pg0.graph().num_vertices(), 4);

        let vg = VersionedGraph::new(Arc::clone(&pg0));
        // Delete a handful of real edges (plus one monotone insert to prove
        // a single deletion poisons the whole batch).
        let victims: Vec<_> = pg0.graph().edges().step_by(7).take(4).collect();
        assert!(!victims.is_empty());
        for &(u, v, _) in &victims {
            vg.delete_edge(u, v).unwrap();
        }
        let n = pg0.graph().num_vertices() as u32;
        let (u, v) = ((victims[0].0 + 1) % n, (victims[0].1 + 2) % n);
        if u != v {
            let _ = vg.insert_edge(u, v, 3);
        }
        let applied = vg.advance().expect("batch logged");
        assert!(!applied.monotone, "case {case}: a deletion must force the fallback");

        // The fallback: a plain from-scratch run on the new snapshot.
        let full = ForkGraphEngine::new(&applied.graph, EngineConfig::default()).run_sssp(&sources);
        for (q, &s) in sources.iter().enumerate() {
            assert_eq!(
                full.per_query[q],
                fg_seq::dijkstra::dijkstra(applied.graph.graph(), s).dist,
                "case {case} source {s}: fallback result wrong after deletion"
            );
        }
    }
}

/// An empty delta frontier (every delta edge hangs off unreached vertices)
/// must return the previous states untouched — in particular it must not
/// enter the parallel executor, which cannot quiesce a zero-operation run.
#[test]
fn zero_seed_incremental_run_short_circuits_under_parallel_executors() {
    // Two disjoint chains: 0→1→2 and 10→11→12. Queries from 0 never reach
    // the 10-chain, so a new edge 11→12-area seeds nothing for them.
    let mut b = GraphBuilder::new(16);
    for (u, v) in [(0, 1), (1, 2), (10, 11), (11, 12)] {
        b.add_edge(u, v, 1);
    }
    let pg0 = Arc::new(PartitionedGraph::build_arc(
        Arc::new(b.build()),
        PartitionConfig::with_partitions(PartitionMethod::Chunked, 4),
    ));
    let sources = vec![0u32, 2u32];
    let prev = ForkGraphEngine::new(&pg0, EngineConfig::default()).run_sssp(&sources);

    let vg = VersionedGraph::new(Arc::clone(&pg0));
    vg.insert_edge(11, 13, 2).unwrap();
    let applied = vg.advance().unwrap();
    assert!(applied.monotone);
    assert_eq!(applied.seed_edges, vec![(11, 13, 2)]);

    for workers in WORKERS {
        let config = EngineConfig::default().with_threads(workers);
        let engine = ForkGraphEngine::new(&applied.graph, config);
        let incremental = engine.run_incremental(
            &SsspKernel,
            &sources,
            prev.per_query.clone(),
            &applied.seed_edges,
        );
        assert_eq!(
            incremental.per_query, prev.per_query,
            "workers={workers}: unreachable delta must leave states untouched"
        );
    }
}

/// A delta edge that offers its head exactly the value it already has
/// (`dist(u) + w == dist(v)`) improves nothing. Under the relax-time
/// contract an operation whose value *equals* the state entry is live, so
/// such a seed would re-relax `v`'s neighbourhood for no change;
/// `delta_seed` must refuse it, and the run must do no work at all.
#[test]
fn no_op_delta_edge_seeds_nothing_and_processes_no_edges() {
    // A diamond with a tail: 0→1 (2), 0→2 (5), 1→3 (4), 2→3 (1), 3→4→5.
    let mut b = GraphBuilder::new(8);
    for (u, v, w) in [(0, 1, 2), (0, 2, 5), (1, 3, 4), (2, 3, 1), (3, 4, 1), (4, 5, 1)] {
        b.add_edge(u, v, w);
    }
    let pg0 = Arc::new(PartitionedGraph::build_arc(
        Arc::new(b.build()),
        PartitionConfig::with_partitions(PartitionMethod::Chunked, 4),
    ));
    let sources = vec![0u32];
    let engine0 = ForkGraphEngine::new(&pg0, EngineConfig::default());
    let prev_sssp = engine0.run_sssp(&sources);
    let prev_bfs = engine0.run_bfs(&sources);
    assert_eq!(&prev_sssp.per_query[0][..6], &[0, 2, 5, 6, 7, 8]);
    assert_eq!(&prev_bfs.per_query[0][..6], &[0, 1, 1, 2, 3, 4]);

    // 1→2 with weight 3 reaches vertex 2 at 2 + 3 == 5, its distance already
    // (and at level 1 + 1 == 2 > 1 for BFS): a no-op for both kernels.
    let vg = VersionedGraph::new(Arc::clone(&pg0));
    vg.insert_edge(1, 2, 3).unwrap();
    let applied = vg.advance().unwrap();
    assert!(applied.monotone);
    assert_eq!(applied.seed_edges, vec![(1, 2, 3)]);

    for workers in WORKERS {
        let config = EngineConfig::default().with_threads(workers);
        let engine = ForkGraphEngine::new(&applied.graph, config);
        let sssp = engine.run_incremental(
            &SsspKernel,
            &sources,
            prev_sssp.per_query.clone(),
            &applied.seed_edges,
        );
        assert_eq!(sssp.per_query, prev_sssp.per_query, "workers={workers}");
        assert_eq!(
            sssp.work().edges_processed,
            0,
            "workers={workers}: a tie must not be re-relaxed"
        );
        assert_eq!(sssp.work().operations_buffered, 0, "workers={workers}");
        let bfs = engine.run_incremental(
            &BfsKernel,
            &sources,
            prev_bfs.per_query.clone(),
            &applied.seed_edges,
        );
        assert_eq!(bfs.per_query, prev_bfs.per_query, "workers={workers}");
        assert_eq!(bfs.work().edges_processed, 0, "workers={workers}");
    }

    // The same edge one unit cheaper is a real improvement and does work.
    let vg = VersionedGraph::new(Arc::clone(&pg0));
    vg.insert_edge(1, 2, 2).unwrap();
    let applied = vg.advance().unwrap();
    let engine = ForkGraphEngine::new(&applied.graph, EngineConfig::default());
    let sssp = engine.run_incremental(
        &SsspKernel,
        &sources,
        prev_sssp.per_query.clone(),
        &applied.seed_edges,
    );
    assert_eq!(&sssp.per_query[0][..6], &[0, 2, 4, 5, 6, 7]);
    assert!(sssp.work().edges_processed > 0);
    assert_eq!(sssp.per_query, engine.run_sssp(&sources).per_query);
}

/// Accumulated monotone batches: apply several quiesce rounds in sequence,
/// restarting incrementally from each round's result. Stale-but-dominated
/// seeds must be pruned, keeping every round exact.
#[test]
fn chained_monotone_batches_stay_exact() {
    let mut rng = SmallRng::seed_from_u64(0xC4A1);
    let graph = arb_graph(&mut rng);
    let pg0 = arb_partitioned(&mut rng, graph);
    let sources = arb_sources(&mut rng, pg0.graph().num_vertices(), 4);
    let vg = VersionedGraph::new(Arc::clone(&pg0));

    let mut prev = ForkGraphEngine::new(&pg0, EngineConfig::default()).run_sssp(&sources).per_query;
    for round in 0..4 {
        log_monotone_batch(&mut rng, &vg);
        let applied = vg.advance().unwrap();
        assert!(applied.monotone);
        let config = EngineConfig::default().with_threads(4);
        let engine = ForkGraphEngine::new(&applied.graph, config);
        let incremental = engine.run_incremental(&SsspKernel, &sources, prev, &applied.seed_edges);
        let scratch =
            ForkGraphEngine::new(&applied.graph, EngineConfig::default()).run_sssp(&sources);
        assert_eq!(incremental.per_query, scratch.per_query, "round {round}");
        prev = incremental.per_query;
    }
}
