//! Fork-processing-pattern driver for the baseline engines.
//!
//! Runs a batch of homogeneous queries (Algorithm 1 of the paper) under the
//! threading schemes of the paper's Table 1. Each query runs on one thread
//! from start to finish and keeps its own work tally; the batch's work is
//! their sum, so both schemes report the same work counts.
//!
//! * [`ExecutionScheme::SingleThreaded`] — one query at a time, one thread,
//! * [`ExecutionScheme::InterQuery`] — `t = 1`: every query on one thread,
//!   `#cores` queries in flight (best-performing but cache-thrashing scheme).

use std::sync::Arc;
use std::time::Duration;

use fg_cachesim::{CacheConfig, GraphAccessTracer};
use fg_graph::{CsrGraph, Dist, VertexId};
use fg_metrics::{CacheNumbers, Measurement, Stopwatch, WorkSnapshot};
use fg_seq::ppr::PprConfig;

use crate::engine::{GpsEngine, QueryContext};
use crate::kernels::par_chunks;

/// Threading scheme for a batch of FPP queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecutionScheme {
    /// One query at a time on a single thread (the profiling baseline of
    /// Table 1).
    SingleThreaded,
    /// `t = 1`: one thread per query, `#cores` queries in flight.
    InterQuery,
}

impl ExecutionScheme {
    /// Short label used in measurement names, matching the paper's notation:
    /// `t` is the number of threads each query runs on.
    pub fn label(&self) -> &'static str {
        match self {
            ExecutionScheme::SingleThreaded => "single-threaded",
            ExecutionScheme::InterQuery => "t=1",
        }
    }

    /// How many queries run at once.
    fn in_flight(&self) -> usize {
        match self {
            ExecutionScheme::SingleThreaded => 1,
            ExecutionScheme::InterQuery => {
                std::thread::available_parallelism().map_or(1, |n| n.get())
            }
        }
    }
}

/// The kind of query launched from every source vertex.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryKind {
    /// Single-source shortest paths (weighted).
    Sssp,
    /// Breadth-first search (unweighted).
    Bfs,
    /// Personalized PageRank with the given configuration.
    Ppr(PprConfig),
}

/// Output of one query.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryOutput {
    /// Distances per vertex.
    Sssp(Vec<Dist>),
    /// BFS levels per vertex.
    Bfs(Vec<u32>),
    /// Sparse PPR estimates.
    Ppr(Vec<(VertexId, f64)>),
}

impl QueryOutput {
    /// Distances, if this is an SSSP output.
    pub fn as_sssp(&self) -> Option<&[Dist]> {
        match self {
            QueryOutput::Sssp(d) => Some(d),
            _ => None,
        }
    }

    /// Levels, if this is a BFS output.
    pub fn as_bfs(&self) -> Option<&[u32]> {
        match self {
            QueryOutput::Bfs(l) => Some(l),
            _ => None,
        }
    }

    /// PPR estimates, if this is a PPR output.
    pub fn as_ppr(&self) -> Option<&[(VertexId, f64)]> {
        match self {
            QueryOutput::Ppr(p) => Some(p),
            _ => None,
        }
    }
}

/// Result of running an FPP batch.
#[derive(Clone, Debug)]
pub struct FppResult {
    /// Per-query outputs, in source order.
    pub outputs: Vec<QueryOutput>,
    /// Timing, work, and cache measurement of the whole batch.
    pub measurement: Measurement,
}

/// Drives a batch of FPP queries through a baseline engine.
pub struct FppDriver<E: GpsEngine> {
    engine: E,
    graph: Arc<CsrGraph>,
    cache_config: Option<CacheConfig>,
}

impl<E: GpsEngine> FppDriver<E> {
    /// Create a driver for `engine` on `graph`.
    pub fn new(engine: E, graph: Arc<CsrGraph>) -> Self {
        FppDriver { engine, graph, cache_config: None }
    }

    /// Enable LLC simulation with the given cache geometry.
    pub fn with_cache(mut self, config: CacheConfig) -> Self {
        self.cache_config = Some(config);
        self
    }

    /// Run `sources.len()` queries of the given kind under `scheme`.
    pub fn run(
        &self,
        kind: &QueryKind,
        sources: &[VertexId],
        scheme: ExecutionScheme,
    ) -> FppResult {
        let tracer = match self.cache_config {
            Some(config) => GraphAccessTracer::new(config),
            None => GraphAccessTracer::disabled(),
        };
        let watch = Stopwatch::start();

        let run_one = |query_id: usize, source: VertexId| -> (QueryOutput, WorkSnapshot) {
            let mut ctx = QueryContext::new(query_id, &tracer);
            let out = match kind {
                QueryKind::Sssp => {
                    QueryOutput::Sssp(self.engine.sssp(&self.graph, source, &mut ctx))
                }
                QueryKind::Bfs => QueryOutput::Bfs(self.engine.bfs(&self.graph, source, &mut ctx)),
                QueryKind::Ppr(config) => {
                    QueryOutput::Ppr(self.engine.ppr(&self.graph, source, config, &mut ctx))
                }
            };
            ctx.work.queries_completed += 1;
            (out, ctx.work)
        };

        let queries: Vec<(usize, VertexId)> = sources.iter().copied().enumerate().collect();
        let (outputs, tallies): (Vec<QueryOutput>, Vec<WorkSnapshot>) =
            par_chunks(&queries, scheme.in_flight(), |chunk| {
                chunk
                    .iter()
                    .map(|&(query_id, source)| run_one(query_id, source))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .unzip();

        let wall_time: Duration = watch.elapsed();
        let cache_stats = tracer.stats();
        let measurement = Measurement {
            label: format!("{} ({})", self.engine.name(), scheme.label()),
            wall_time,
            work: tallies.iter().fold(WorkSnapshot::default(), |sum, tally| sum.merge(tally)),
            cache: self.cache_config.map(|_| CacheNumbers {
                accesses: cache_stats.accesses,
                loads: cache_stats.loads,
                misses: cache_stats.misses,
            }),
        };
        FppResult { outputs, measurement }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ligra::LigraEngine;
    use fg_graph::gen;

    fn graph() -> Arc<CsrGraph> {
        Arc::new(gen::rmat(8, 6, 1).with_random_weights(6, 1))
    }

    #[test]
    fn all_schemes_produce_identical_sssp_results() {
        let g = graph();
        let sources: Vec<VertexId> = vec![0, 3, 9, 17];
        let driver = FppDriver::new(LigraEngine::new(), Arc::clone(&g));
        let reference: Vec<Vec<Dist>> =
            sources.iter().map(|&s| fg_seq::dijkstra::dijkstra(&g, s).dist).collect();
        for scheme in [ExecutionScheme::SingleThreaded, ExecutionScheme::InterQuery] {
            let result = driver.run(&QueryKind::Sssp, &sources, scheme);
            assert_eq!(result.outputs.len(), sources.len());
            for (out, expected) in result.outputs.iter().zip(reference.iter()) {
                assert_eq!(out.as_sssp().unwrap(), expected.as_slice(), "{scheme:?}");
            }
            assert_eq!(result.measurement.work.queries_completed, sources.len() as u64);
        }
    }

    #[test]
    fn bfs_and_ppr_kinds_dispatch_correctly() {
        let g = graph();
        let driver = FppDriver::new(LigraEngine::new(), Arc::clone(&g));
        let bfs = driver.run(&QueryKind::Bfs, &[0, 1], ExecutionScheme::InterQuery);
        assert!(bfs.outputs[0].as_bfs().is_some());
        assert!(bfs.outputs[0].as_sssp().is_none());
        let ppr = driver.run(
            &QueryKind::Ppr(PprConfig { epsilon: 1e-4, ..Default::default() }),
            &[0, 1],
            ExecutionScheme::InterQuery,
        );
        assert!(ppr.outputs[1].as_ppr().is_some());
    }

    #[test]
    fn cache_instrumentation_reports_misses() {
        let g = graph();
        let driver = FppDriver::new(LigraEngine::new(), Arc::clone(&g))
            .with_cache(CacheConfig::tiny(32 * 1024));
        let result = driver.run(&QueryKind::Bfs, &[0, 5, 9], ExecutionScheme::InterQuery);
        let cache = result.measurement.cache.unwrap();
        assert!(cache.accesses > 0);
        assert!(cache.misses > 0);
        assert!(cache.miss_ratio() > 0.0);
    }

    #[test]
    fn inter_query_misses_at_least_as_many_as_single_query_working_set() {
        // With a small shared cache, running many queries concurrently must not
        // produce fewer misses than a single query.
        let g = graph();
        let cache = CacheConfig::tiny(64 * 1024);
        let driver = FppDriver::new(LigraEngine::new(), Arc::clone(&g)).with_cache(cache);
        let one = driver.run(&QueryKind::Bfs, &[0], ExecutionScheme::InterQuery);
        let many =
            driver.run(&QueryKind::Bfs, &(0..8).collect::<Vec<_>>(), ExecutionScheme::InterQuery);
        assert!(
            many.measurement.cache.unwrap().misses > one.measurement.cache.unwrap().misses,
            "more concurrent queries should touch more lines"
        );
    }

    #[test]
    fn scheme_labels() {
        assert_eq!(ExecutionScheme::SingleThreaded.label(), "single-threaded");
        assert_eq!(ExecutionScheme::InterQuery.label(), "t=1");
    }
}
