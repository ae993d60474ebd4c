//! Equivalence property tests for the executor at every worker count.
//!
//! On seeded random graphs, every worker count (1/2/4/8, one worker running
//! on the calling thread and the rest on the pool) under all four
//! scheduling policies must produce **byte-identical** per-query results to
//! `fg-seq`'s Dijkstra and BFS: both kernels relax monotonically to a unique
//! fixpoint, so any schedule that runs to quiescence lands on exactly the
//! same integer state as the sequential oracle.
//!
//! PPR is checked separately and deliberately *not* bitwise: the ACL lazy
//! forward-push is non-confluent — the quiescent `(estimate, residual)` pair
//! depends on how operations group into visits, so even two *one-worker*
//! scheduling policies disagree in the last ulps (asserted below as
//! `one_worker_ppr_is_itself_schedule_dependent`, which documents why). What
//! every schedule must preserve is the approximation contract: exact mass
//! conservation and estimates within the epsilon-scaled error bound of the
//! one-worker result.
//!
//! Hand-rolled seeded harness (no proptest in the build environment); a
//! failure prints the case number, which reproduces the trial exactly.

use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use fg_graph::partition::{PartitionConfig, PartitionMethod};
use fg_graph::partitioned::PartitionedGraph;
use fg_graph::{CsrGraph, Dist, GraphBuilder};
use fg_seq::bfs::bfs;
use fg_seq::dijkstra::dijkstra;
use fg_seq::ppr::PprConfig;
use forkgraph_core::{EngineConfig, ForkGraphEngine, SchedulingPolicy};

const CASES: u64 = 6;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// The crews the PPR check compares against the one-worker result.
const CREWS: [usize; 3] = [2, 4, 8];

/// A random weighted graph over `60..240` vertices with `2n..6n` edges.
fn arb_graph(rng: &mut SmallRng) -> CsrGraph {
    let n = rng.gen_range(60usize..240);
    let num_edges = rng.gen_range(2 * n..6 * n);
    let mut b = GraphBuilder::new(n);
    for _ in 0..num_edges {
        let u = rng.gen_range(0u32..n as u32);
        let v = rng.gen_range(0u32..n as u32);
        let w = rng.gen_range(1u32..16);
        b.add_edge(u, v, w);
    }
    b.build()
}

fn arb_partitioned(rng: &mut SmallRng, graph: &CsrGraph) -> PartitionedGraph {
    let parts = rng.gen_range(4usize..17);
    let method = [PartitionMethod::Multilevel, PartitionMethod::Chunked, PartitionMethod::Hash]
        [rng.gen_range(0usize..3)];
    PartitionedGraph::build(graph, PartitionConfig::with_partitions(method, parts))
}

fn arb_sources(rng: &mut SmallRng, graph: &CsrGraph, max: usize) -> Vec<u32> {
    let n = graph.num_vertices() as u32;
    (0..rng.gen_range(2usize..=max)).map(|_| rng.gen_range(0..n)).collect()
}

#[test]
fn sssp_equals_dijkstra_for_all_policies_and_worker_counts() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x55_5F + case);
        let graph = arb_graph(&mut rng);
        let pg = arb_partitioned(&mut rng, &graph);
        let sources = arb_sources(&mut rng, &graph, 6);
        let oracle: Vec<Vec<Dist>> = sources.iter().map(|&s| dijkstra(&graph, s).dist).collect();
        for policy in SchedulingPolicy::all() {
            let config = EngineConfig::default().with_scheduling(policy);
            for workers in WORKER_COUNTS {
                let result =
                    ForkGraphEngine::new(&pg, config.with_threads(workers)).run_sssp(&sources);
                assert_eq!(
                    result.per_query, oracle,
                    "case {case} policy {policy:?} workers {workers}"
                );
            }
        }
    }
}

#[test]
fn bfs_equals_sequential_bfs_for_all_policies_and_worker_counts() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xBF5 + case);
        let graph = arb_graph(&mut rng);
        let pg = arb_partitioned(&mut rng, &graph);
        let sources = arb_sources(&mut rng, &graph, 6);
        let oracle: Vec<Vec<u32>> = sources.iter().map(|&s| bfs(&graph, s).level).collect();
        for policy in SchedulingPolicy::all() {
            let config = EngineConfig::default().with_scheduling(policy);
            for workers in WORKER_COUNTS {
                let result =
                    ForkGraphEngine::new(&pg, config.with_threads(workers)).run_bfs(&sources);
                assert_eq!(
                    result.per_query, oracle,
                    "case {case} policy {policy:?} workers {workers}"
                );
            }
        }
    }
}

/// A smaller random graph for the PPR properties: push-based PPR emits an
/// operation per edge per push, so debug-mode runtimes grow steeply with size.
fn arb_small_graph(rng: &mut SmallRng) -> CsrGraph {
    let n = rng.gen_range(40usize..100);
    let num_edges = rng.gen_range(2 * n..4 * n);
    let mut b = GraphBuilder::new(n);
    for _ in 0..num_edges {
        let u = rng.gen_range(0u32..n as u32);
        let v = rng.gen_range(0u32..n as u32);
        b.add_edge(u, v, 1);
    }
    b.build()
}

#[test]
fn crew_ppr_preserves_mass_and_matches_one_worker_within_epsilon_bound() {
    let ppr = PprConfig { epsilon: 1e-4, ..Default::default() };
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x99_12 + case);
        let graph = arb_small_graph(&mut rng);
        let pg = arb_partitioned(&mut rng, &graph);
        let seeds = arb_sources(&mut rng, &graph, 3);
        let one_worker = ForkGraphEngine::new(&pg, EngineConfig::default()).run_ppr(&seeds, &ppr);
        for workers in CREWS {
            let crew = ForkGraphEngine::new(&pg, EngineConfig::default().with_threads(workers))
                .run_ppr(&seeds, &ppr);
            for (q, (a, b)) in one_worker.per_query.iter().zip(crew.per_query.iter()).enumerate() {
                assert!(
                    (b.total_mass() - 1.0).abs() < 1e-9,
                    "case {case} workers {workers} query {q}: mass {}",
                    b.total_mass()
                );
                // Quiescent residuals are below epsilon*deg everywhere, so two
                // runs can differ per vertex by at most one sub-threshold push
                // share; sum the per-vertex slack for the L1 budget.
                let budget: f64 = (0..graph.num_vertices())
                    .map(|v| ppr.epsilon * graph.out_degree(v as u32).max(1) as f64)
                    .sum::<f64>()
                    * 2.0;
                let l1: f64 =
                    a.estimate.iter().zip(b.estimate.iter()).map(|(x, y)| (x - y).abs()).sum();
                assert!(
                    l1 <= budget,
                    "case {case} workers {workers} query {q}: l1 {l1} > budget {budget}"
                );
            }
        }
    }
}

/// Documents why the PPR check above is not bitwise: one worker alone
/// produces schedule-dependent PPR states — lazy forward-push is not
/// confluent, independent of any parallelism.
#[test]
fn one_worker_ppr_is_itself_schedule_dependent() {
    let mut rng = SmallRng::seed_from_u64(0xD0C);
    let mut found_difference = false;
    for _ in 0..8 {
        let graph = arb_small_graph(&mut rng);
        let pg = arb_partitioned(&mut rng, &graph);
        let seeds = arb_sources(&mut rng, &graph, 3);
        let ppr = PprConfig { epsilon: 1e-4, ..Default::default() };
        let a = ForkGraphEngine::new(&pg, EngineConfig::default()).run_ppr(&seeds, &ppr);
        let b = ForkGraphEngine::new(
            &pg,
            EngineConfig::default().with_scheduling(SchedulingPolicy::Fifo),
        )
        .run_ppr(&seeds, &ppr);
        if a.per_query.iter().zip(b.per_query.iter()).any(|(x, y)| x.estimate != y.estimate) {
            found_difference = true;
            break;
        }
    }
    assert!(
        found_difference,
        "one-worker PPR became schedule-invariant; the crew PPR check can be tightened to bitwise"
    );
}

/// On a directed path with one source at most one partition is runnable at
/// any time, so all but one worker of a crew wait on the runnable set's
/// condvar, and every handoff between partitions is a wakeup. A waiting
/// worker has no timeout to fall back on, so a lost wakeup hangs the run:
/// the runs go on a helper thread, and the test fails if they have not
/// finished within 30 s.
#[test]
fn crews_on_a_path_never_lose_a_wakeup() {
    const RUNS: usize = 200;
    let mut b = GraphBuilder::new(64);
    for v in 1..64u32 {
        b.add_edge(v - 1, v, 1 + v % 3);
    }
    let graph = b.build();
    let oracle = dijkstra(&graph, 0).dist;
    let pg = PartitionedGraph::build(
        &graph,
        PartitionConfig::with_partitions(PartitionMethod::Chunked, 8),
    );
    let (finished, wait_for_finish) = channel::<()>();
    let helper = std::thread::spawn(move || {
        // Dropped, disconnecting the channel, when the runs end or panic.
        let _finished = finished;
        [2, 4].map(|workers| {
            let engine = ForkGraphEngine::new(&pg, EngineConfig::default().with_threads(workers));
            (0..RUNS)
                .map(|run| {
                    let result = engine.run_sssp(&[0]);
                    assert_eq!(result.per_query[0], oracle, "{workers} workers, run {run}");
                    result.work().idle_waits
                })
                .sum::<u64>()
        })
    });
    if let Err(RecvTimeoutError::Timeout) = wait_for_finish.recv_timeout(Duration::from_secs(30)) {
        panic!("a crew lost a wakeup: {RUNS} runs took over 30 s");
    }
    let idle_waits = helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
    assert!(idle_waits[1] > 0, "4 workers on one runnable partition never waited: {idle_waits:?}");
}
