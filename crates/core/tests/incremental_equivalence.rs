//! Equivalence properties for incremental restart.
//!
//! The contract under test: after any edge delta — insertions, deletions,
//! weight increases and decreases, chained over several folds — resuming
//! converged SSSP/BFS states with `run_incremental` is **byte-identical** to
//! a from-scratch `run` on the post-mutation graph, and both equal `fg-seq`,
//! on one worker and on a crew on the pool alike. A delta
//! that spans several folds is the store's `delta_since`, as `fg-service`'s
//! batcher reads it, and states captured before its first fold and at its
//! latest one must both resume exactly.
//!
//! Hand-rolled seeded harness (no proptest in the build environment); a
//! failure prints the case number, which reproduces the trial exactly.

use std::fmt::Debug;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use fg_graph::mutation::{EdgeDelta, VersionedGraph};
use fg_graph::partition::{PartitionConfig, PartitionMethod};
use fg_graph::partitioned::PartitionedGraph;
use fg_graph::{CsrGraph, Dist, Edge, GraphBuilder, VertexId, Weight, INF_DIST};
use forkgraph_core::kernels::{BfsKernel, SsspKernel};
use forkgraph_core::{EngineConfig, ForkGraphEngine, IncrementalKernel};

const CASES: u64 = 6;

/// Worker counts: one worker, and the pool at two crew sizes.
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

fn partitioned(n: usize, edges: &[Edge]) -> Arc<PartitionedGraph> {
    let mut b = GraphBuilder::new(n);
    for &(u, v, w) in edges {
        b.add_edge(u, v, w);
    }
    Arc::new(PartitionedGraph::build_arc(
        Arc::new(b.build()),
        PartitionConfig::with_partitions(PartitionMethod::Chunked, 4),
    ))
}

fn dijkstra(graph: &CsrGraph, sources: &[VertexId]) -> Vec<Vec<Dist>> {
    sources.iter().map(|&s| fg_seq::dijkstra::dijkstra(graph, s).dist).collect()
}

fn bfs(graph: &CsrGraph, sources: &[VertexId]) -> Vec<Vec<u32>> {
    sources.iter().map(|&s| fg_seq::bfs::bfs(graph, s).level).collect()
}

/// Log a random batch of insertions and weight *decreases* only.
fn log_monotone_batch(rng: &mut SmallRng, vg: &VersionedGraph) {
    let (_, pg) = vg.snapshot();
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

/// Log a batch of every kind of change: inserts, deletions of edges on a
/// source's shortest paths (SSSP-tight and BFS-tight), deletions of a
/// source's own out-edges, weight increases and decreases (down to zero),
/// and one edge deleted and re-inserted within the batch.
fn log_mixed_batch(rng: &mut SmallRng, vg: &VersionedGraph, sources: &[VertexId]) {
    let (_, pg) = vg.snapshot();
    let graph = pg.graph();
    let n = graph.num_vertices() as u32;
    let edges: Vec<Edge> = graph.edges().collect();
    let pick = |rng: &mut SmallRng| edges[rng.gen_range(0..edges.len())];
    for _ in 0..3 {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v {
            vg.insert_edge(u, v, rng.gen_range(1u32..16)).unwrap();
        }
    }
    for &s in sources.iter().take(2) {
        let dist = &fg_seq::dijkstra::dijkstra(graph, s).dist;
        let level = &fg_seq::bfs::bfs(graph, s).level;
        let tight = |u: VertexId, v: VertexId, w: Weight| {
            dist[u as usize].checked_add(w as Dist) == Some(dist[v as usize])
                || level[u as usize].checked_add(1) == Some(level[v as usize])
        };
        let on_paths: Vec<&Edge> = edges.iter().filter(|&&(u, v, w)| tight(u, v, w)).collect();
        for _ in 0..2.min(on_paths.len()) {
            let &(u, v, _) = on_paths[rng.gen_range(0..on_paths.len())];
            vg.delete_edge(u, v).unwrap();
        }
        if let Some((v, _)) = graph.out_edges(s).next() {
            vg.delete_edge(s, v).unwrap();
        }
    }
    let (u, v, w) = pick(rng);
    vg.update_weight(u, v, w + rng.gen_range(1..8)).unwrap();
    let (u, v, w) = pick(rng);
    vg.update_weight(u, v, rng.gen_range(0..w.max(1))).unwrap();
    let (u, v, _) = pick(rng);
    vg.delete_edge(u, v).unwrap();
    vg.insert_edge(u, v, rng.gen_range(1u32..16)).unwrap();
}

/// `run` on `pg` must equal `oracle`, and so must `run_incremental` from
/// every one of `starts` across its delta, on every worker count.
fn check_restarts<K>(
    kernel: &K,
    pg: &PartitionedGraph,
    sources: &[VertexId],
    starts: &[(&str, &Vec<K::State>, EdgeDelta<'_>)],
    oracle: &[K::State],
    label: &str,
) where
    K: IncrementalKernel,
    K::State: Clone + PartialEq + Debug,
{
    let scratch = ForkGraphEngine::new(pg, EngineConfig::default()).run(kernel, sources);
    assert_eq!(scratch.per_query, oracle, "{label}: run != fg-seq");
    for workers in WORKERS {
        let engine = ForkGraphEngine::new(pg, EngineConfig::default().with_threads(workers));
        for &(start, prev, delta) in starts {
            let resumed = engine.run_incremental(kernel, sources, prev.clone(), delta);
            assert_eq!(
                resumed.per_query, oracle,
                "{label} workers={workers}: run_incremental from the {start} state"
            );
            let work = resumed.work();
            assert_eq!(work.operations_processed, work.operations_buffered, "{label}");
        }
    }
}

/// The property: chained folds of every kind of change, each resumed from
/// the states captured before the first fold, across `delta_since(0)`; from
/// the previous fold's states across the same delta, which then holds
/// changes those states already saw; and from the previous fold's states
/// across `delta_since` their own version.
#[test]
fn restarts_across_chained_deltas_of_every_kind_equal_run_and_fg_seq() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xDE1 + case);
        let graph = arb_graph(&mut rng);
        let pg0 = arb_partitioned(&mut rng, graph);
        let sources = arb_sources(&mut rng, pg0.graph().num_vertices(), 5);
        let vg = VersionedGraph::new(Arc::clone(&pg0));
        let first = (dijkstra(pg0.graph(), &sources), bfs(pg0.graph(), &sources));
        let mut latest = first.clone();
        for fold in 0..4 {
            log_mixed_batch(&mut rng, &vg, &sources);
            let applied = vg.advance().expect("batch logged");
            assert!(!applied.raised_edges.is_empty(), "case {case} fold {fold}: nothing raised");
            let (seeds, raised) = vg.delta_since(0).expect("the log reaches back to 0");
            let all = EdgeDelta { seeds: &seeds, raised: &raised };
            let (seeds, raised) = vg.delta_since(applied.version - 1).expect("the last fold");
            let last = EdgeDelta { seeds: &seeds, raised: &raised };
            let now =
                (dijkstra(applied.graph.graph(), &sources), bfs(applied.graph.graph(), &sources));
            let label = format!("case {case} fold {fold}");
            let starts = [
                ("first", &first.0, all),
                ("latest, whole log", &latest.0, all),
                ("latest", &latest.0, last),
            ];
            check_restarts(&SsspKernel, &applied.graph, &sources, &starts, &now.0, &label);
            let starts = [
                ("first", &first.1, all),
                ("latest, whole log", &latest.1, all),
                ("latest", &latest.1, last),
            ];
            check_restarts(&BfsKernel, &applied.graph, &sources, &starts, &now.1, &label);
            latest = now;
        }
    }
}

/// Run both kernels from `sources` on `before`, apply `mutate`, and hold
/// both restarts to `run` and `fg-seq` on the result; returns the SSSP and
/// BFS answers after the change.
fn restart_after(
    before: Arc<PartitionedGraph>,
    sources: &[VertexId],
    mutate: impl FnOnce(&VersionedGraph),
    label: &str,
) -> (Vec<Vec<Dist>>, Vec<Vec<u32>>) {
    let prev = (dijkstra(before.graph(), sources), bfs(before.graph(), sources));
    let vg = VersionedGraph::new(before);
    mutate(&vg);
    let applied = vg.advance().expect("batch logged");
    let now = (dijkstra(applied.graph.graph(), sources), bfs(applied.graph.graph(), sources));
    let pg = &applied.graph;
    check_restarts(&SsspKernel, pg, sources, &[("pre", &prev.0, applied.delta())], &now.0, label);
    check_restarts(&BfsKernel, pg, sources, &[("pre", &prev.1, applied.delta())], &now.1, label);
    now
}

/// A deletion that cuts a subtree off: its entries go back to ∞.
#[test]
fn a_disconnecting_delete_sends_its_subtree_back_to_infinity() {
    // 0 → 1 → 2 → 3 and 0 → 4; deleting 1 → 2 strands 2 and 3.
    let pg = partitioned(6, &[(0, 1, 2), (1, 2, 2), (2, 3, 2), (0, 4, 1), (3, 4, 1)]);
    let (dist, level) =
        restart_after(pg, &[0], |vg| vg.delete_edge(1, 2).map(drop).unwrap(), "cut");
    assert_eq!(&dist[0][..5], &[0, 2, INF_DIST, INF_DIST, 1]);
    assert_eq!(&level[0][..5], &[0, 1, u32::MAX, u32::MAX, 1]);
}

/// Zero-weight edges into the source: a cone walk that admitted the source
/// would reset it and, through it, everything it reaches.
#[test]
fn zero_weight_edges_into_the_source_keep_the_source_out_of_the_cone() {
    let edges = [(0, 1, 0), (1, 0, 0), (0, 2, 0), (2, 0, 0), (2, 1, 4), (1, 3, 1)];
    let pg = partitioned(4, &edges);
    let delete = |vg: &VersionedGraph| vg.delete_edge(0, 1).map(drop).unwrap();
    let (dist, level) = restart_after(pg, &[0], delete, "zero weights");
    assert_eq!(dist[0], vec![0, 4, 0, 5]);
    assert_eq!(level[0], vec![0, 2, 1, 3]);
}

/// A raised edge whose tail the query never reached changes nothing for
/// it, and the restart does no work at all.
#[test]
fn a_raised_edge_with_an_unreached_tail_is_not_a_root() {
    // 5 is unreachable from 0; its edges into 0's tree go away or get
    // heavier.
    let edges = [(0, 1, 1), (1, 2, 1), (5, 1, 1), (5, 2, 3), (5, 6, 1)];
    let pg = partitioned(8, &edges);
    let mutate = |vg: &VersionedGraph| {
        vg.delete_edge(5, 1).unwrap();
        vg.update_weight(5, 2, 9).unwrap();
        vg.delete_edge(5, 6).unwrap();
    };
    let prev = dijkstra(pg.graph(), &[0]);
    let (dist, _) = restart_after(Arc::clone(&pg), &[0], mutate, "unreached tail");
    assert_eq!(dist, prev);
    let vg = VersionedGraph::new(pg);
    mutate(&vg);
    let applied = vg.advance().unwrap();
    let engine = ForkGraphEngine::new(&applied.graph, EngineConfig::default());
    let resumed = engine.run_incremental(&SsspKernel, &[0], prev, applied.delta());
    assert_eq!(resumed.work().operations_buffered, 0);
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
        assert!(applied.raised_edges.is_empty(), "case {case}: insert/decrease batch raised");

        let scratch =
            ForkGraphEngine::new(&applied.graph, EngineConfig::default()).run_sssp(&sources);

        for workers in WORKERS {
            let config = EngineConfig::default().with_threads(workers);
            let engine = ForkGraphEngine::new(&applied.graph, config);
            let incremental = engine.run_incremental(
                &SsspKernel,
                &sources,
                prev.per_query.clone(),
                applied.delta(),
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
        assert!(applied.raised_edges.is_empty());

        let scratch =
            ForkGraphEngine::new(&applied.graph, EngineConfig::default()).run_bfs(&sources);

        for workers in WORKERS {
            let config = EngineConfig::default().with_threads(workers);
            let engine = ForkGraphEngine::new(&applied.graph, config);
            let incremental = engine.run_incremental(
                &BfsKernel,
                &sources,
                prev.per_query.clone(),
                applied.delta(),
            );
            assert_eq!(incremental.per_query, scratch.per_query, "case {case} workers={workers}");
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
    assert_eq!(applied.seed_edges, vec![(11, 13, 2)]);

    for workers in WORKERS {
        let config = EngineConfig::default().with_threads(workers);
        let engine = ForkGraphEngine::new(&applied.graph, config);
        let incremental =
            engine.run_incremental(&SsspKernel, &sources, prev.per_query.clone(), applied.delta());
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
/// `restart_seeds` must refuse it, and the run must do no work at all.
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
    assert_eq!(applied.seed_edges, vec![(1, 2, 3)]);

    for workers in WORKERS {
        let config = EngineConfig::default().with_threads(workers);
        let engine = ForkGraphEngine::new(&applied.graph, config);
        let sssp = engine.run_incremental(
            &SsspKernel,
            &sources,
            prev_sssp.per_query.clone(),
            applied.delta(),
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
            applied.delta(),
        );
        assert_eq!(bfs.per_query, prev_bfs.per_query, "workers={workers}");
        assert_eq!(bfs.work().edges_processed, 0, "workers={workers}");
    }

    // The same edge one unit cheaper is a real improvement and does work.
    let vg = VersionedGraph::new(Arc::clone(&pg0));
    vg.insert_edge(1, 2, 2).unwrap();
    let applied = vg.advance().unwrap();
    let engine = ForkGraphEngine::new(&applied.graph, EngineConfig::default());
    let sssp =
        engine.run_incremental(&SsspKernel, &sources, prev_sssp.per_query.clone(), applied.delta());
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
        assert!(applied.raised_edges.is_empty());
        let config = EngineConfig::default().with_threads(4);
        let engine = ForkGraphEngine::new(&applied.graph, config);
        let incremental = engine.run_incremental(&SsspKernel, &sources, prev, applied.delta());
        let scratch =
            ForkGraphEngine::new(&applied.graph, EngineConfig::default()).run_sssp(&sources);
        assert_eq!(incremental.per_query, scratch.per_query, "round {round}");
        prev = incremental.per_query;
    }
}
