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

use forkgraph::core::YieldPolicy;
use forkgraph::graph::gen;
use forkgraph::graph::INF_DIST;
use forkgraph::prelude::*;

/// Operations that entered a lane per vertex the batch reached: one per
/// improvement of a tentative distance. `fg_seq::dijkstra` itself pushes
/// 1.5–2 heap entries per settled vertex on these graphs.
const BUFFERED_PER_REACHED_VERTEX: f64 = 3.0;
/// Edge work over the sequential loop's (partition-at-a-time processing
/// re-relaxes a little across partition borders).
const EDGES_OVER_SEQUENTIAL: f64 = 1.2;

fn check_ceilings(name: &str, graph: &CsrGraph, parts: usize, sources: &[VertexId]) {
    // Chunked partitioning: the layout, and with it every counter below, is
    // the same in every process.
    let pg = PartitionedGraph::build(
        graph,
        PartitionConfig::with_partitions(PartitionMethod::Chunked, parts),
    );
    let sequential: Vec<_> = sources.iter().map(|&s| dijkstra(graph, s)).collect();
    let sequential_edges: u64 = sequential.iter().map(|r| r.edges_processed).sum();
    let reached: u64 =
        sequential.iter().map(|r| r.dist.iter().filter(|&&d| d != INF_DIST).count() as u64).sum();

    for yield_policy in [YieldPolicy::default(), YieldPolicy::EdgeBudget { threshold: 1 }] {
        let config = EngineConfig::default().with_yield_policy(yield_policy);
        let result = ForkGraphEngine::new(&pg, config).run_sssp(sources);
        let label = format!("{name} {}", yield_policy.name());
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
