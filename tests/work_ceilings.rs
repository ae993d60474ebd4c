//! Exact-counter ceilings against `fg-seq`: the tier-1 guard on the engine's
//! bookkeeping cost, with no clock anywhere.
//!
//! The engine used to create 10 operations per settled vertex and buffer each
//! of them another ten times — every yield drained a query's heap back into
//! the partition buffer, to be re-sorted and re-heapified by the next visit
//! (19.6 M buffered operations for 3.67 M edges on the benchmark's resident
//! workload). With resident per-(partition, query) lanes a yield re-buffers
//! nothing, and with relax-time dominance a dominated operation is never
//! created. Both are visible in counters that repeat exactly, so `cargo test
//! -q` catches a return of either without timing anything.
//!
//! PPR had the same disease in its own form — one operation per out-edge per
//! push, each added into the residual only when popped, ≈ 23 operations per
//! push — until it combined at emit time like `fg_seq::ppr_push`: the share
//! is added on the edge, and an operation exists only for a threshold
//! crossing, so every operation is a push.
//!
//! Deletion repair is held the same way: a resumed run after a deletion
//! does the same handful of operations on a 256 × 256 grid as on a 32 × 32
//! one.
//!
//! So is the size of the operation every one of those counts copies: 16
//! bytes for SSSP, BFS and PPR, whose priority — or state — already holds
//! what a value would carry.

use std::sync::Arc;
use std::time::Duration;

use forkgraph::core::kernels::{BfsKernel, PprKernel, PprState, SsspKernel};
use forkgraph::core::{FppKernel, Operation, YieldPolicy};
use forkgraph::graph::gen;
use forkgraph::graph::mutation::VersionedGraph;
use forkgraph::graph::INF_DIST;
use forkgraph::metrics::{WorkSnapshot, WorkerSnapshot};
use forkgraph::prelude::*;
use forkgraph::seq::bfs::bfs;
use forkgraph::seq::ppr::{ppr_push, PprConfig};
use forkgraph::seq::random_walk::RandomWalkConfig;

/// Operations that entered a lane per vertex the batch reached: one per
/// improvement of a tentative distance. `fg_seq::dijkstra` itself pushes
/// 1.5–2 heap entries per settled vertex on these graphs.
const BUFFERED_PER_REACHED_VERTEX: f64 = 3.0;
/// Edge work over the sequential loop's (partition-at-a-time processing
/// re-relaxes a little across partition borders).
const EDGES_OVER_SEQUENTIAL: f64 = 1.2;

fn chunked(graph: &CsrGraph, parts: usize) -> PartitionedGraph {
    // Chunked partitioning: the layout, and with it every counter below, is
    // the same in every process.
    PartitionedGraph::build(
        graph,
        PartitionConfig::with_partitions(PartitionMethod::Chunked, parts),
    )
}

fn yield_policies() -> [YieldPolicy; 2] {
    // The default, and a budget of one edge per visit (`factor · |E_P| /
    // |Q|` rounds up to at least one edge).
    [YieldPolicy::default(), YieldPolicy::EdgeBudgetAuto { factor: 0.0 }]
}

fn check_ceilings(name: &str, graph: &CsrGraph, parts: usize, sources: &[VertexId]) {
    let pg = chunked(graph, parts);
    let sequential: Vec<_> = sources.iter().map(|&s| dijkstra(graph, s)).collect();
    let sequential_edges: u64 = sequential.iter().map(|r| r.edges_processed).sum();
    let reached: u64 =
        sequential.iter().map(|r| r.dist.iter().filter(|&&d| d != INF_DIST).count() as u64).sum();

    for yield_policy in yield_policies() {
        let config = EngineConfig::default().with_yield_policy(yield_policy);
        let result = ForkGraphEngine::new(&pg, config).run_sssp(sources);
        let label = format!("{name} {yield_policy:?}");
        for (got, expected) in result.per_query.iter().zip(&sequential) {
            assert_eq!(got, &expected.dist, "{label}");
        }
        let work = result.work();
        assert_eq!(
            work.operations_processed, work.operations_buffered,
            "{label}: every operation enters a lane once and is executed once"
        );
        let buffered = work.operations_buffered as f64 / reached as f64;
        assert!(
            buffered <= BUFFERED_PER_REACHED_VERTEX,
            "{label}: {buffered:.2} operations buffered per reached vertex ({} for {reached}) — \
             is something re-buffering on yield, or emitting dominated operations?",
            work.operations_buffered
        );
        let edges = work.edges_processed as f64 / sequential_edges as f64;
        assert!(
            edges <= EDGES_OVER_SEQUENTIAL,
            "{label}: {edges:.3}x the sequential edge work ({} vs {sequential_edges})",
            work.edges_processed
        );
    }

    // Every run is the executor's, one worker included: each reports one
    // entry per worker, each worker counts only its own work, and the
    // entries sum to the run's totals.
    for threads in [1, 2] {
        let config = EngineConfig::default().with_threads(threads);
        let result = ForkGraphEngine::new(&pg, config).run_sssp(sources);
        let label = format!("{name} {threads} workers");
        for (got, expected) in result.per_query.iter().zip(&sequential) {
            assert_eq!(got, &expected.dist, "{label}");
        }
        let work = result.work();
        assert_eq!(work.workers.len(), threads, "{label}: one entry per worker");
        let sum = |field: fn(&WorkerSnapshot) -> u64| work.workers.iter().map(field).sum::<u64>();
        let totals = [
            ("edges", sum(|w| w.edges), work.edges_processed),
            ("pruned", sum(|w| w.pruned), work.operations_pruned),
            ("yields", sum(|w| w.yields), work.yields),
            ("visits", sum(|w| w.visits), work.partition_visits),
            ("idle waits", sum(|w| w.idle_waits), work.idle_waits),
            ("operations", sum(|w| w.operations), work.operations_processed),
            (
                "seeds + emitted",
                sources.len() as u64 + sum(|w| w.emitted),
                work.operations_buffered,
            ),
        ];
        for (field, summed, total) in totals {
            assert_eq!(summed, total, "{label}: {field}");
        }
        // A visit processes each of its partition's active lanes once: at
        // least one lane, at most one per query. A yield ends a lane visit.
        let lane_visits = sum(|w| w.lane_visits);
        let visits = work.partition_visits;
        assert!(
            visits <= lane_visits && lane_visits <= visits * sources.len() as u64,
            "{label}: {lane_visits} lane visits over {visits} visits of {} queries",
            sources.len()
        );
        assert!(work.yields <= lane_visits, "{label}: {} yields", work.yields);
        if threads == 1 {
            let only = &work.workers[0];
            assert_eq!(
                [only.edges, only.pruned, only.yields, only.visits, only.operations],
                [
                    work.edges_processed,
                    work.operations_pruned,
                    work.yields,
                    work.partition_visits,
                    work.operations_processed,
                ],
                "{label}: the one worker's tally is the run's"
            );
            assert_eq!(only.idle_waits, 0, "{label}: one worker never waits");
        }
    }
}

#[test]
fn engine_bookkeeping_stays_within_exact_ceilings_of_the_sequential_loop() {
    let social = gen::rmat(11, 8, 42).with_random_weights(9, 42);
    let sources: Vec<VertexId> = (0..16).map(|i| i * 127 % social.num_vertices() as u32).collect();
    check_ceilings("rmat", &social, 16, &sources);

    let road = gen::grid2d(64, 64, 0.02, 7).with_random_weights(9, 7);
    let sources: Vec<VertexId> = (0..8).map(|i| i * 509 % road.num_vertices() as u32).collect();
    check_ceilings("grid", &road, 8, &sources);
}

/// One SSSP query on a high-diameter lattice runs far ahead of the arrivals
/// that would prune its work unless it yields; with |Q| floored at 8 in the
/// edge budget, a lone query yields after a quarter of its partition and
/// stays near the sequential edge work (1.06× and 1.04× here, against 1.37×
/// and 1.43× when a lone query's budget was twice its partition).
#[test]
fn a_lone_sssp_query_on_a_lattice_stays_near_the_sequential_edge_work() {
    const LONE_QUERY_EDGES_OVER_SEQUENTIAL: f64 = 1.10;
    let road = gen::grid2d(64, 64, 0.02, 5).with_random_weights(9, 5);
    let pg = chunked(&road, 8);
    let engine = ForkGraphEngine::new(&pg, EngineConfig::default());
    for source in [0, 2055] {
        let sequential = dijkstra(&road, source);
        let result = engine.run_sssp(&[source]);
        assert_eq!(result.per_query[0], sequential.dist, "source {source}");
        let edges = result.work().edges_processed as f64 / sequential.edges_processed as f64;
        assert!(
            edges <= LONE_QUERY_EDGES_OVER_SEQUENTIAL,
            "source {source}: {edges:.3}x the sequential edge work ({} vs {})",
            result.work().edges_processed,
            sequential.edges_processed
        );
    }
}

/// On one partition nothing can arrive from another, so a yield would only
/// re-visit the same partition: the whole batch is one visit.
#[test]
fn a_one_partition_graph_is_one_visit_and_never_yields() {
    let social = gen::rmat(11, 8, 42).with_random_weights(9, 42);
    let sources: Vec<VertexId> = (0..32).map(|i| i * 61 % social.num_vertices() as u32).collect();
    let result =
        ForkGraphEngine::new(&chunked(&social, 1), EngineConfig::default()).run_sssp(&sources);
    for (got, &source) in result.per_query.iter().zip(&sources) {
        assert_eq!(got, &dijkstra(&social, source).dist, "source {source}");
    }
    assert_eq!((result.work().partition_visits, result.work().yields), (1, 0));
}

/// Only a kernel whose operations can be dominated gains from a yield, so
/// only those yield, even at a budget of one edge per visit.
#[test]
fn only_pruning_kernels_yield() {
    let graph = gen::rmat(10, 8, 3).with_random_weights(9, 3);
    let pg = chunked(&graph, 8);
    let seeds: Vec<VertexId> = vec![0, 17, 300, 511];
    let config =
        EngineConfig::default().with_yield_policy(YieldPolicy::EdgeBudgetAuto { factor: 0.0 });
    let engine = ForkGraphEngine::new(&pg, config);
    let ppr = PprConfig { epsilon: 1e-4, ..Default::default() };
    let walks = RandomWalkConfig { num_walks: 8, walk_length: 32, restart_prob: 0.0, seed: 5 };
    let never = [
        ("ppr", engine.run_ppr(&seeds, &ppr).work().yields),
        ("dfs", engine.run_dfs(&seeds).work().yields),
        ("random walk", engine.run_random_walks(&seeds, &walks).work().yields),
    ];
    assert_eq!(never, [("ppr", 0), ("dfs", 0), ("random walk", 0)]);
    assert!(engine.run_sssp(&seeds).work().yields > 0, "sssp at a one-edge budget");
}

/// Deletion repair resets only the cone of vertices whose shortest paths
/// may have crossed a deleted edge, and re-seeds it from its boundary, so on
/// a bounded-degree lattice its work does not depend on the graph's size —
/// the shape of Berkholz, Keppeler and Schweikardt's bound for updates on
/// bounded-degree inputs. The far corner of a unit-weight grid, seen from
/// the near one, has two in-edges on shortest paths: deleting one is a tie
/// its distance survives, deleting both strands it.
#[test]
fn deletion_repair_work_is_flat_in_n() {
    let mut work_by_size = Vec::new();
    for side in [32usize, 256] {
        let graph = gen::grid2d(side, side, 0.0, 7);
        let corner = (side * side - 1) as VertexId;
        let into_corner = graph.in_neighbors(corner).to_vec();
        assert_eq!(into_corner.len(), 2);
        let pg = Arc::new(chunked(&graph, 8));
        let (dist, level) = (dijkstra(&graph, 0).dist, bfs(&graph, 0).level);
        let mut work = Vec::new();
        for deleted in [&into_corner[..1], &into_corner[..]] {
            let label = format!("{side}x{side} deleting {deleted:?} → {corner}");
            let vg = VersionedGraph::new(Arc::clone(&pg));
            for &u in deleted {
                vg.delete_edge(u, corner).unwrap();
            }
            let applied = vg.advance().unwrap();
            let after = applied.graph.graph();
            let engine = ForkGraphEngine::new(&applied.graph, EngineConfig::default());
            let sssp =
                engine.run_incremental(&SsspKernel, &[0], vec![dist.clone()], applied.delta());
            assert_eq!(sssp.per_query[0], dijkstra(after, 0).dist, "{label}: sssp");
            let levels =
                engine.run_incremental(&BfsKernel, &[0], vec![level.clone()], applied.delta());
            assert_eq!(levels.per_query[0], bfs(after, 0).level, "{label}: bfs");
            for (kernel, run) in [("sssp", sssp.work()), ("bfs", levels.work())] {
                let counters = (run.edges_processed, run.operations_buffered);
                assert!(counters.0 <= 4 && counters.1 <= 4, "{label}: {kernel} {counters:?}");
                work.push(counters);
            }
        }
        work_by_size.push(work);
    }
    assert_eq!(work_by_size[0], work_by_size[1], "repair work grew with the grid");
}

fn check_ppr_ceilings(name: &str, graph: &CsrGraph, parts: usize, seeds: &[VertexId]) {
    let pg = chunked(graph, parts);
    let ppr = PprConfig { epsilon: 1e-4, ..Default::default() };
    let sequential_edges: u64 =
        seeds.iter().map(|&s| ppr_push(graph, s, &ppr).edges_processed).sum();
    let threshold = |v: usize| ppr.epsilon * graph.out_degree(v as VertexId).max(1) as f64;

    for yield_policy in yield_policies() {
        let config = EngineConfig::default().with_yield_policy(yield_policy);
        let result = ForkGraphEngine::new(&pg, config).run_ppr(seeds, &ppr);
        let label = format!("{name} ppr {yield_policy:?}");
        for (q, state) in result.per_query.iter().enumerate() {
            assert!((state.total_mass() - 1.0).abs() < 1e-9, "{label} query {q}: mass");
            let active = (0..graph.num_vertices()).find(|&v| state.residual[v] >= threshold(v));
            assert_eq!(active, None, "{label} query {q}: a vertex is still above its threshold");
        }
        let work = result.work();
        assert_eq!(
            work.operations_processed, work.operations_buffered,
            "{label}: every operation enters a lane once and is executed once"
        );
        let pushes: u64 = result.per_query.iter().map(|state| state.pushes).sum();
        assert!(
            work.operations_processed <= pushes + seeds.len() as u64,
            "{label}: {} operations for {pushes} pushes — is an operation emitted per edge \
             instead of per threshold crossing?",
            work.operations_processed
        );
        let edges = work.edges_processed as f64 / sequential_edges as f64;
        assert!(
            edges <= EDGES_OVER_SEQUENTIAL,
            "{label}: {edges:.3}x the sequential edge work ({} vs {sequential_edges})",
            work.edges_processed
        );
    }
}

#[test]
fn ppr_runs_one_operation_per_push_within_the_sequential_edge_work() {
    let social = gen::rmat(11, 8, 42);
    let seeds: Vec<VertexId> = (0..16).map(|i| i * 127 % social.num_vertices() as u32).collect();
    check_ppr_ceilings("rmat", &social, 16, &seeds);

    let road = gen::grid2d(64, 64, 0.02, 7);
    let seeds: Vec<VertexId> = (0..8).map(|i| i * 509 % road.num_vertices() as u32).collect();
    check_ppr_ceilings("grid", &road, 8, &seeds);
}

/// `max_pushes` is the safety valve `fg-seq` and the baselines honour and the
/// service keys cohorts by; the engine must honour it too, leaving the
/// unpushed mass in `residual`.
#[test]
fn ppr_max_pushes_caps_the_engine_and_the_service() {
    let graph = gen::rmat(10, 8, 3);
    let pg = Arc::new(chunked(&graph, 6));
    let seeds: Vec<VertexId> = vec![0, 17, 300];
    let capped = PprConfig { epsilon: 1e-6, max_pushes: 10, ..Default::default() };
    let check = |label: &str, pushes: u64, mass: f64| {
        assert!(pushes <= capped.max_pushes, "{label}: {pushes} pushes");
        assert!((mass - 1.0).abs() < 1e-9, "{label}: mass {mass}");
    };

    let direct = ForkGraphEngine::new(&pg, EngineConfig::default()).run_ppr(&seeds, &capped);
    for (seed, state) in seeds.iter().zip(&direct.per_query) {
        check(&format!("run_ppr {seed}"), state.pushes, state.total_mass());
    }

    let service = ForkGraphService::start(
        Arc::clone(&pg),
        EngineConfig::default(),
        ServiceConfig { batch_window: Duration::from_millis(20), ..ServiceConfig::default() },
    );
    let handle = service.handle();
    for &seed in &seeds {
        let query = Query::kernel("ppr").source(seed).param("epsilon", capped.epsilon);
        let query = query.param("max_pushes", capped.max_pushes);
        let result = handle.submit_query(query).unwrap().wait().unwrap();
        let state = result.try_state::<PprState>().unwrap();
        check(&format!("service {seed}"), state.pushes, state.total_mass());
    }
}

/// A remote operation is copied four times (routing scratch, mailbox stripe,
/// lane inbox, the lane's sorted run), each copy an `Operation<K::Value>`. The traversal
/// kernels carry no value beside the priority, which needs the source's
/// entry to be written by `init_state` rather than by its operation.
#[test]
fn traversal_operations_are_16_bytes_and_init_state_writes_the_source() {
    fn operation_bytes<K: FppKernel>(_: &K) -> usize {
        std::mem::size_of::<Operation<K::Value>>()
    }
    assert_eq!(operation_bytes(&SsspKernel), 16, "SSSP");
    assert_eq!(operation_bytes(&BfsKernel), 16, "BFS");
    assert_eq!(operation_bytes(&PprKernel::default()), 16, "PPR");

    let graph = gen::rmat(6, 4, 1).with_random_weights(9, 1);
    let source: VertexId = 5;
    let only_source = |v: usize| v == source as usize;
    let dist = SsspKernel.init_state(&graph, source);
    assert!(dist.iter().enumerate().all(|(v, &d)| d == if only_source(v) { 0 } else { INF_DIST }));
    let level = BfsKernel.init_state(&graph, source);
    assert!(level.iter().enumerate().all(|(v, &l)| l == if only_source(v) { 0 } else { u32::MAX }));
    let ppr = PprKernel::default().init_state(&graph, source);
    assert!(ppr
        .residual
        .iter()
        .enumerate()
        .all(|(v, &r)| r == if only_source(v) { 1.0 } else { 0.0 }));
    assert!(ppr.estimate.iter().all(|&p| p == 0.0));
    assert_eq!(ppr.pushes, 0);
}

/// Exact counters of one yielding batch on one worker, so that a change to
/// the partition visit that reorders lanes, yields elsewhere or drops an
/// arrival it should have kept shows here and not only in the benchmark's
/// determinism digests.
#[test]
fn a_yielding_batch_repeats_its_exact_counters() {
    let social = gen::rmat(11, 8, 42).with_random_weights(9, 42);
    let n = social.num_vertices() as u32;
    let sources: Vec<VertexId> = (0..32).map(|i| (i * 61) % n).collect();
    let pg = chunked(&social, 8);
    let engine = ForkGraphEngine::new(&pg, EngineConfig::default());
    let counters = |work: &WorkSnapshot| {
        [
            work.edges_processed,
            work.operations_processed,
            work.operations_buffered,
            work.operations_pruned,
            work.partition_visits,
            work.yields,
            work.workers.iter().map(|w| w.lane_visits).sum(),
        ]
    };

    let sssp = engine.run_sssp(&sources);
    for (got, &source) in sssp.per_query.iter().zip(&sources) {
        assert_eq!(got, &dijkstra(&social, source).dist, "source {source}");
    }
    assert_eq!(counters(sssp.work()), [591_827, 71_149, 71_149, 36_860, 143, 2_359, 2_608], "sssp");

    let ppr = engine.run(&PprKernel::default(), &sources[..4]);
    assert_eq!(counters(ppr.work()), [2_442_352, 103_846, 103_846, 86, 234, 0, 664], "ppr");
}
