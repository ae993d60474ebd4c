//! One service batch, four kernels, every answer held to `fg-seq`.
//!
//! A mixed batch runs its cohorts back to back, one pass per kernel, on one
//! pinned epoch — so *any* [`DynKernel`] can ride one, including a
//! hand-written implementation that never went through [`erase`]. (While
//! cohorts shared one erased-payload pass, such a kernel could only ever run
//! alone: submitted first, as here, it kept the whole batch to itself.)

use std::sync::Arc;
use std::time::Duration;

use forkgraph::core::kernels::{BfsKernel, PprState};
use forkgraph::core::{ErasedState, ForkGraphRunResult};
use forkgraph::graph::{gen, Dist};
use forkgraph::prelude::*;
use forkgraph::seq::ppr::PprConfig;

/// How far a BFS from the source gets.
#[derive(Debug, PartialEq, Eq)]
struct Reach {
    vertices: usize,
    depth: u32,
}

fn reach_of(levels: &[u32]) -> Reach {
    let reached = levels.iter().filter(|&&level| level != u32::MAX);
    Reach { vertices: reached.clone().count(), depth: reached.max().copied().unwrap_or(0) }
}

/// A `DynKernel` written by hand: it drives the built-in BFS kernel through
/// the engine and folds each level array into a [`Reach`] — a result type
/// that is not the inner kernel's state, which `erase` cannot express.
struct ReachKernel;

impl DynKernel for ReachKernel {
    fn name(&self) -> &str {
        "reach"
    }

    fn state_type_name(&self) -> &'static str {
        std::any::type_name::<Reach>()
    }

    fn run_erased(
        &self,
        engine: &ForkGraphEngine<'_>,
        sources: &[VertexId],
    ) -> ForkGraphRunResult<ErasedState> {
        let run = engine.run(&BfsKernel, sources);
        ForkGraphRunResult {
            per_query: run
                .per_query
                .iter()
                .map(|levels| Arc::new(reach_of(levels)) as ErasedState)
                .collect(),
            measurement: run.measurement,
            profile: run.profile,
        }
    }
}

#[test]
fn a_hand_written_kernel_shares_a_batch_with_three_builtin_cohorts() {
    let graph = gen::rmat(9, 6, 77).with_random_weights(8, 77);
    let pg = Arc::new(PartitionedGraph::build(
        &graph,
        PartitionConfig::with_partitions(PartitionMethod::Chunked, 6),
    ));
    let service = ForkGraphService::start(
        Arc::clone(&pg),
        EngineConfig::default(),
        ServiceConfig {
            // Long enough that everything below lands in one batch even on a
            // loaded one-core box; no cache, so every query reaches the engine.
            batch_window: Duration::from_millis(500),
            cache_capacity: 0,
            ..ServiceConfig::default()
        },
    );
    let handle = service.handle();
    let reach_id = handle
        .register_kernel("reach", |params: &QueryParams| {
            params.ensure_known(&[])?;
            Ok(InstantiatedKernel::new(Arc::new(ReachKernel), QueryParams::new()))
        })
        .unwrap();

    let ppr_config = PprConfig { epsilon: 1e-5, ..Default::default() };
    let submit = |kernel: &str, sources: &[VertexId]| -> Vec<(VertexId, Ticket)> {
        sources
            .iter()
            .map(|&s| (s, handle.submit_query(Query::kernel(kernel).source(s)).unwrap()))
            .collect()
    };
    // The hand-written kernel first: its cohort leads the batch.
    let reach = submit("reach", &[5, 60]);
    let sssp = submit("sssp", &[3, 77, 150]);
    let bfs = submit("bfs", &[9, 42]);
    let ppr: Vec<(VertexId, Ticket)> = [11u32, 88]
        .iter()
        .map(|&s| {
            let query = Query::kernel("ppr").source(s).param("epsilon", ppr_config.epsilon);
            (s, handle.submit_query(query).unwrap())
        })
        .collect();

    for (source, ticket) in &reach {
        let result = ticket.wait().unwrap();
        let oracle = reach_of(&forkgraph::seq::bfs::bfs(&graph, *source).level);
        assert_eq!(result.try_state::<Reach>().unwrap(), &oracle, "reach from {source}");
    }
    for (source, ticket) in &sssp {
        let result = ticket.wait().unwrap();
        assert_eq!(
            result.try_state::<Vec<Dist>>().unwrap(),
            &dijkstra(&graph, *source).dist,
            "sssp {source}"
        );
    }
    for (source, ticket) in &bfs {
        let result = ticket.wait().unwrap();
        let oracle = forkgraph::seq::bfs::bfs(&graph, *source).level;
        assert_eq!(result.try_state::<Vec<u32>>().unwrap(), &oracle, "bfs {source}");
    }
    for (seed, ticket) in &ppr {
        let result = ticket.wait().unwrap();
        let state = result.try_state::<PprState>().unwrap();
        assert!((state.total_mass() - 1.0).abs() < 1e-9, "ppr {seed}: mass");
        let oracle =
            forkgraph::seq::ppr::ppr_push(&graph, *seed, &ppr_config).dense(graph.num_vertices());
        let l1: f64 = state.estimate.iter().zip(&oracle).map(|(a, b)| (a - b).abs()).sum();
        assert!(l1 < 0.05, "ppr {seed}: l1 distance {l1}");
    }

    let records = service.batch_records();
    let metrics = service.metrics();
    service.shutdown();
    assert!(
        records.iter().any(|r| r.kernel_id == reach_id.as_u64() && r.kernels_in_run >= 2),
        "the hand-written kernel's cohort must share its batch: {records:?}"
    );
    assert!(metrics.mixed_runs >= 1, "{metrics:?}");
}
