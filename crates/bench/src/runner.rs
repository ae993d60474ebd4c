//! Shared experiment runner: executes one (system, application, dataset)
//! combination the way a claim may read it — the baselines one query at a
//! time on one thread, ForkGraph on one worker — and returns its
//! [`Measurement`].

use std::sync::Arc;

use fg_baselines::fpp::{ExecutionScheme, FppDriver, QueryKind};
use fg_baselines::{GeminiEngine, GpsEngine, LigraEngine};
use fg_cachesim::CacheConfig;
use fg_graph::partition::PartitionConfig;
use fg_graph::partitioned::PartitionedGraph;
use fg_graph::{CsrGraph, VertexId};
use fg_metrics::Measurement;
use fg_seq::ppr::PprConfig;
use forkgraph_core::{EngineConfig, ForkGraphEngine};

/// The one simulated LLC of `repro`: 32 KiB, 64-byte lines, 16-way. It
/// sizes ForkGraph's partitions and is the cache every instrumented run
/// simulates. It is far smaller than the paper's 13.75 MiB because the
/// simulator costs tens of nanoseconds per access: the stand-ins stay small
/// enough to simulate in seconds, and a 32 KiB cache still cuts each of them
/// into at least [`crate::claims::MIN_PARTITIONS`] partitions.
pub fn repro_llc() -> CacheConfig {
    CacheConfig { capacity_bytes: 32 * 1024, line_bytes: 64, associativity: 16 }
}

/// How many partitions of [`repro_llc`] `graph` is cut into.
pub fn llc_partitions(graph: &CsrGraph) -> usize {
    PartitionConfig::llc_sized(repro_llc().capacity_bytes).resolve_num_partitions(graph)
}

/// The baseline systems compared in the evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    /// Ligra-like engine.
    Ligra,
    /// Gemini-like engine.
    Gemini,
}

impl System {
    /// The baseline systems.
    pub fn baselines() -> [System; 2] {
        [System::Ligra, System::Gemini]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            System::Ligra => "Ligra",
            System::Gemini => "Gemini",
        }
    }
}

/// An FPP workload: the query kind plus its source vertices.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Query kind (SSSP / BFS / PPR).
    pub kind: QueryKind,
    /// Source vertices (one query each).
    pub sources: Vec<VertexId>,
}

impl Workload {
    /// An SSSP workload (used by BC and LL).
    pub fn sssp(sources: Vec<VertexId>) -> Self {
        Workload { kind: QueryKind::Sssp, sources }
    }

    /// A PPR workload (used by NCP).
    pub fn ppr(sources: Vec<VertexId>, config: PprConfig) -> Self {
        Workload { kind: QueryKind::Ppr(config), sources }
    }
}

/// Run `workload` on a baseline system, one query at a time on one thread
/// ([`ExecutionScheme::SingleThreaded`]), so its work and cache counts are
/// exact.
pub fn run_baseline(
    system: System,
    graph: &Arc<CsrGraph>,
    workload: &Workload,
    cache: Option<CacheConfig>,
) -> Measurement {
    fn drive<E: GpsEngine>(
        engine: E,
        graph: &Arc<CsrGraph>,
        workload: &Workload,
        cache: Option<CacheConfig>,
    ) -> Measurement {
        let mut driver = FppDriver::new(engine, Arc::clone(graph));
        if let Some(c) = cache {
            driver = driver.with_cache(c);
        }
        driver.run(&workload.kind, &workload.sources, ExecutionScheme::SingleThreaded).measurement
    }
    match system {
        System::Ligra => drive(LigraEngine::new(), graph, workload, cache),
        System::Gemini => drive(GeminiEngine::new(), graph, workload, cache),
    }
}

/// Run `workload` on ForkGraph with one worker over [`repro_llc`]-sized
/// partitions. `EngineConfig::default()` serves every query kind: the 100 µ
/// yield budget §6.4 gives PPR is moot, since PPR cannot prune and so never
/// yields ([`forkgraph_core::FppKernel::PRUNES`]).
pub fn run_forkgraph(
    graph: &CsrGraph,
    workload: &Workload,
    config: EngineConfig,
    cache: Option<CacheConfig>,
) -> Measurement {
    let pg = PartitionedGraph::build(graph, PartitionConfig::llc_sized(repro_llc().capacity_bytes));
    let mut config = config.with_threads(1);
    if let Some(c) = cache {
        config = config.with_cache(c);
    }
    let engine = ForkGraphEngine::new(&pg, config);
    match &workload.kind {
        QueryKind::Sssp => engine.run_sssp(&workload.sources).measurement,
        QueryKind::Bfs => engine.run_bfs(&workload.sources).measurement,
        QueryKind::Ppr(ppr) => engine.run_ppr(&workload.sources, ppr).measurement,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_graph::gen;

    #[test]
    fn baseline_and_forkgraph_runners_produce_measurements() {
        let graph = Arc::new(gen::rmat(8, 5, 1).with_random_weights(6, 1));
        let workload = Workload::sssp(vec![0, 3, 9]);
        let base = run_baseline(System::Ligra, &graph, &workload, None);
        assert!(base.work.edges_processed > 0);
        assert_eq!(base.label, "Ligra (single-threaded)");
        let fork = run_forkgraph(&graph, &workload, EngineConfig::default(), None);
        assert!(fork.work.edges_processed > 0);
        assert_eq!(fork.work.workers.len(), 1);
        assert_eq!(fork.label, "ForkGraph");
    }

    #[test]
    fn cache_instrumented_runs_report_cache_numbers() {
        let graph = Arc::new(gen::rmat(8, 5, 2).with_random_weights(6, 2));
        let workload = Workload::sssp(vec![0, 1, 2, 3]);
        let llc = repro_llc();
        let base = run_baseline(System::Gemini, &graph, &workload, Some(llc));
        assert!(base.cache.unwrap().misses > 0);
        let fork = run_forkgraph(&graph, &workload, EngineConfig::default(), Some(llc));
        assert!(fork.cache.unwrap().accesses > 0);
    }

    #[test]
    fn partition_count_is_the_graph_size_over_the_llc() {
        let graph = gen::rmat(10, 8, 3);
        let llc = repro_llc().capacity_bytes;
        assert_eq!(llc_partitions(&graph), graph.size_bytes().div_ceil(llc));
    }
}
