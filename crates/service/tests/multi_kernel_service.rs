//! Service-level acceptance for mixed batches: cohorts of *different*
//! kernels waiting in the same batch window join **one** batch
//! (`BatchRecord::kernels_in_run >= 2`; their passes run back to back on one
//! pinned epoch) however many cohorts are ready, and every ticket still gets
//! exactly the result a direct one-worker engine run would produce.

use std::sync::Arc;
use std::time::Duration;

use fg_graph::partition::{PartitionConfig, PartitionMethod};
use fg_graph::partitioned::PartitionedGraph;
use fg_graph::{gen, AdjacencyView, CsrGraph, Dist, VertexId};
use fg_seq::ppr::PprConfig;
use fg_service::{
    ForkGraphService, InstantiatedKernel, ParamError, Query, QueryParams, ServiceConfig,
};
use forkgraph_core::kernels::{PprState, RwState};
use forkgraph_core::{erase, EngineConfig, ForkGraphEngine, FppKernel};

fn shared_graph(seed: u64) -> Arc<PartitionedGraph> {
    let g = gen::erdos_renyi(350, 2800, seed).with_random_weights(8, seed);
    Arc::new(PartitionedGraph::build(
        &g,
        PartitionConfig::with_partitions(PartitionMethod::Multilevel, 6),
    ))
}

/// A window long enough that every submission below lands in one batch even
/// on a heavily loaded 1-core CI box.
fn consolidating_config() -> ServiceConfig {
    ServiceConfig {
        batch_window: Duration::from_millis(500),
        cache_capacity: 0, // every query must demonstrably reach the engine
        ..ServiceConfig::default()
    }
}

/// Acceptance check: two different-kernel cohorts share one batch and
/// all tickets match direct one-worker oracles.
#[test]
fn different_kernel_cohorts_consolidate_into_one_run() {
    let pg = shared_graph(211);
    let service =
        ForkGraphService::start(Arc::clone(&pg), EngineConfig::default(), consolidating_config());
    let handle = service.handle();

    let sssp_sources: Vec<VertexId> = vec![3, 77, 150, 201];
    let bfs_sources: Vec<VertexId> = vec![9, 42, 111];
    let sssp_tickets: Vec<_> = sssp_sources
        .iter()
        .map(|&s| handle.submit_query(Query::kernel("sssp").source(s)).unwrap())
        .collect();
    let bfs_tickets: Vec<_> = bfs_sources
        .iter()
        .map(|&s| handle.submit_query(Query::kernel("bfs").source(s)).unwrap())
        .collect();

    let engine = ForkGraphEngine::new(&pg, EngineConfig::default());
    for (&source, ticket) in sssp_sources.iter().zip(&sssp_tickets) {
        let result = ticket.wait().unwrap();
        assert_eq!(
            result.try_state::<Vec<Dist>>().unwrap(),
            &engine.run_sssp(&[source]).per_query[0],
            "sssp source {source}"
        );
    }
    for (&source, ticket) in bfs_sources.iter().zip(&bfs_tickets) {
        let result = ticket.wait().unwrap();
        assert_eq!(
            result.try_state::<Vec<u32>>().unwrap(),
            &engine.run_bfs(&[source]).per_query[0],
            "bfs source {source}"
        );
    }

    let records = service.batch_records();
    let metrics = service.metrics();
    service.shutdown();

    assert!(
        records.iter().any(|r| r.kernels_in_run == 2 && r.batch_size == 7),
        "both cohorts should share one run: {records:?}"
    );
    assert!(metrics.mixed_runs >= 1, "mixed run counted: {metrics:?}");
    assert!(metrics.mixed_run_rate() > 0.0);
}

/// Every ready cohort joins the batch — here five, PPR at two parameter
/// sets among them — and each still gets exactly a direct run's answer.
#[test]
fn every_ready_cohort_joins_one_batch() {
    let pg = shared_graph(223);
    let service =
        ForkGraphService::start(Arc::clone(&pg), EngineConfig::default(), consolidating_config());
    let handle = service.handle();

    let coarse = PprConfig { epsilon: 1e-4, ..PprConfig::default() };
    let fine = PprConfig { epsilon: 1e-5, ..PprConfig::default() };
    let submit = |query: Query| handle.submit_query(query).unwrap();
    let ppr_query =
        |config: &PprConfig| Query::kernel("ppr").source(62).param("epsilon", config.epsilon);
    let sssp = submit(Query::kernel("sssp").source(31));
    let bfs = submit(Query::kernel("bfs").source(17));
    let ppr_coarse = submit(ppr_query(&coarse));
    let ppr_fine = submit(ppr_query(&fine));
    let walk = submit(Query::kernel("random_walk").source(93));

    let engine = ForkGraphEngine::new(&pg, EngineConfig::default());
    let sssp = sssp.wait().unwrap();
    assert_eq!(sssp.try_state::<Vec<Dist>>().unwrap(), &engine.run_sssp(&[31]).per_query[0]);
    let bfs = bfs.wait().unwrap();
    assert_eq!(bfs.try_state::<Vec<u32>>().unwrap(), &engine.run_bfs(&[17]).per_query[0]);
    let ppr = |config| engine.run_ppr(&[62], &config).per_query.remove(0);
    assert_eq!(ppr_coarse.wait().unwrap().try_state::<PprState>().unwrap(), &ppr(coarse));
    assert_eq!(ppr_fine.wait().unwrap().try_state::<PprState>().unwrap(), &ppr(fine));
    walk.wait().unwrap().try_state::<RwState>().expect("random-walk state");

    let records = service.batch_records();
    service.shutdown();
    assert!(
        records.iter().any(|r| r.kernels_in_run == 5 && r.batch_size == 5),
        "all five cohorts should share one batch: {records:?}"
    );
}

/// A kernel defined entirely in this test: per-hop bounded distances
/// (`state[v * (k+1) + h]` = best distance to `v` over ≤ `h` edges). A
/// monotone min-relaxation over the (vertex, hop) product graph, so every
/// schedule — solo or mixed — reaches the same fixpoint.
struct HopTableKernel {
    k: u32,
}

impl FppKernel for HopTableKernel {
    type Value = (Dist, u32);
    type State = Vec<Dist>;

    fn name(&self) -> &'static str {
        "hop-limit"
    }

    fn init_state(&self, graph: &CsrGraph, _source: VertexId) -> Self::State {
        vec![Dist::MAX; graph.num_vertices() * (self.k as usize + 1)]
    }

    fn source_op(&self, _source: VertexId) -> (Self::Value, forkgraph_core::Priority) {
        ((0, 0), 0)
    }

    fn process(
        &self,
        graph: &AdjacencyView<'_>,
        state: &mut Self::State,
        vertex: VertexId,
        (dist, hops): Self::Value,
        _priority: forkgraph_core::Priority,
        emit: &mut dyn FnMut(VertexId, Self::Value, forkgraph_core::Priority),
    ) -> u64 {
        let stride = self.k as usize + 1;
        let base = vertex as usize * stride;
        if dist >= state[base + hops as usize] {
            return 0;
        }
        for h in hops as usize..stride {
            if dist < state[base + h] {
                state[base + h] = dist;
            }
        }
        if hops == self.k {
            return 0;
        }
        let mut edges = 0;
        for (t, w) in graph.out_edges(vertex) {
            edges += 1;
            let nd = dist + w as Dist;
            if nd < state[t as usize * stride + hops as usize + 1] {
                emit(t, (nd, hops + 1), nd);
            }
        }
        edges
    }
}

/// Per-hop Bellman-Ford oracle for [`HopTableKernel`]: `dp[v*(k+1)+h]` is
/// the best distance to `v` over ≤ `h` edges.
fn hop_table_oracle(graph: &CsrGraph, source: VertexId, k: u32) -> Vec<Dist> {
    let n = graph.num_vertices();
    let stride = k as usize + 1;
    let mut dp = vec![Dist::MAX; n * stride];
    dp[source as usize * stride] = 0;
    for h in 1..stride {
        for v in 0..n {
            dp[v * stride + h] = dp[v * stride + h - 1];
        }
        for u in 0..n as u32 {
            let du = dp[u as usize * stride + h - 1];
            if du == Dist::MAX {
                continue;
            }
            for (t, w) in graph.out_edges(u) {
                let nd = du + w as Dist;
                if nd < dp[t as usize * stride + h] {
                    dp[t as usize * stride + h] = nd;
                }
            }
        }
    }
    dp
}

/// A runtime-registered custom kernel joins a built-in cohort's batch — the
/// open registry and mixed batches compose.
#[test]
fn registered_custom_kernel_shares_a_run_with_builtins() {
    let pg = shared_graph(227);
    let service =
        ForkGraphService::start(Arc::clone(&pg), EngineConfig::default(), consolidating_config());
    let handle = service.handle();
    handle
        .register_kernel("hop-limit", |params: &QueryParams| {
            params.ensure_known(&["hops"])?;
            let hops = params.u64_or("hops", 3)? as u32;
            if hops == 0 {
                return Err(ParamError::new("parameter \"hops\" must be positive"));
            }
            Ok(InstantiatedKernel::new(
                erase(HopTableKernel { k: hops }),
                QueryParams::new().with("hops", u64::from(hops)),
            ))
        })
        .unwrap();

    let custom_sources: Vec<VertexId> = vec![5, 60];
    let bfs_sources: Vec<VertexId> = vec![11, 88];
    let custom_tickets: Vec<_> = custom_sources
        .iter()
        .map(|&s| handle.submit_query(Query::kernel("hop-limit").source(s)).unwrap())
        .collect();
    let bfs_tickets: Vec<_> = bfs_sources
        .iter()
        .map(|&s| handle.submit_query(Query::kernel("bfs").source(s)).unwrap())
        .collect();

    let engine = ForkGraphEngine::new(&pg, EngineConfig::default());
    for (&source, ticket) in custom_sources.iter().zip(&custom_tickets) {
        let result = ticket.wait().unwrap();
        let state = result.downcast_ref::<Vec<Dist>>().expect("hop-limit state");
        assert_eq!(state, &hop_table_oracle(pg.graph(), source, 3), "custom source {source}");
    }
    for (&source, ticket) in bfs_sources.iter().zip(&bfs_tickets) {
        let result = ticket.wait().unwrap();
        assert_eq!(
            result.try_state::<Vec<u32>>().unwrap(),
            &engine.run_bfs(&[source]).per_query[0]
        );
    }

    let records = service.batch_records();
    service.shutdown();
    assert!(
        records.iter().any(|r| r.kernels_in_run == 2 && r.batch_size == 4),
        "custom + builtin cohorts should share one run: {records:?}"
    );
}
