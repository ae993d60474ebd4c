//! Fork-processing-pattern driver for the baseline engines.
//!
//! Runs a batch of homogeneous queries (Algorithm 1 of the paper) under the
//! threading schemes compared in Table 1 / Figure 1:
//!
//! * [`ExecutionScheme::SingleThreaded`] — one query at a time, one thread,
//! * [`ExecutionScheme::InterQuery`] — `t = 1`: every query on one thread,
//!   `#cores` queries in flight (best-performing but cache-thrashing scheme),
//! * [`ExecutionScheme::IntraQuery`] — `t = #cores`: queries one at a time,
//!   each parallelised internally,
//! * [`ExecutionScheme::Hybrid`] — `t` threads per query, `#cores / t` queries
//!   in flight.

use std::sync::Arc;
use std::time::Duration;

use fg_cachesim::{CacheConfig, GraphAccessTracer};
use fg_graph::{CsrGraph, Dist, VertexId};
use fg_metrics::{CacheNumbers, Measurement, MemoryEstimate, Stopwatch, WorkCounters};
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
    /// `t = #cores`: one query at a time, parallelised internally.
    IntraQuery,
    /// `t = threads_per_query`: `#cores / t` queries in flight, each using
    /// intra-query parallelism.
    Hybrid {
        /// Number of threads dedicated to each query.
        threads_per_query: usize,
    },
}

impl ExecutionScheme {
    /// Short label used in measurement names, matching the paper's notation:
    /// `t` is the number of threads each query runs on.
    pub fn label(&self) -> String {
        match self {
            ExecutionScheme::SingleThreaded => "single-threaded".to_string(),
            _ => format!("t={}", self.threads().1),
        }
    }

    /// How many queries run at once, and how many threads each query gets.
    fn threads(&self) -> (usize, usize) {
        match *self {
            ExecutionScheme::SingleThreaded => (1, 1),
            ExecutionScheme::InterQuery => (cores(), 1),
            ExecutionScheme::IntraQuery => (1, cores()),
            ExecutionScheme::Hybrid { threads_per_query } => {
                let t = threads_per_query.max(1);
                ((cores() / t).max(1), t)
            }
        }
    }
}

/// Hardware threads available to this process.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
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

    /// Approximate heap size of this output in bytes.
    pub fn size_bytes(&self) -> usize {
        match self {
            QueryOutput::Sssp(d) => d.len() * 8,
            QueryOutput::Bfs(l) => l.len() * 4,
            QueryOutput::Ppr(p) => p.len() * 16,
        }
    }
}

/// Result of running an FPP batch.
#[derive(Clone, Debug)]
pub struct FppResult {
    /// Per-query outputs, in source order.
    pub outputs: Vec<QueryOutput>,
    /// Timing, work, cache, and memory measurement of the whole batch.
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

    /// The wrapped engine.
    pub fn engine(&self) -> &E {
        &self.engine
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
        let counters = WorkCounters::new();
        let watch = Stopwatch::start();

        let (in_flight, threads) = scheme.threads();
        let run_one = |query_id: usize, source: VertexId| -> QueryOutput {
            let ctx = QueryContext { query_id, threads, tracer: &tracer, counters: &counters };
            let out = match kind {
                QueryKind::Sssp => QueryOutput::Sssp(self.engine.sssp(&self.graph, source, &ctx)),
                QueryKind::Bfs => QueryOutput::Bfs(self.engine.bfs(&self.graph, source, &ctx)),
                QueryKind::Ppr(config) => {
                    QueryOutput::Ppr(self.engine.ppr(&self.graph, source, config, &ctx))
                }
            };
            counters.add_queries_completed(1);
            out
        };

        let queries: Vec<(usize, VertexId)> = sources.iter().copied().enumerate().collect();
        let outputs: Vec<QueryOutput> = par_chunks(&queries, in_flight, |chunk| {
            chunk.iter().map(|&(query_id, source)| run_one(query_id, source)).collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();

        let wall_time: Duration = watch.elapsed();
        let cache_stats = tracer.stats();
        let output_bytes: usize = outputs.iter().map(|o| o.size_bytes()).sum();
        let measurement = Measurement {
            label: format!("{} ({})", self.engine.name(), scheme.label()),
            wall_time,
            work: counters.snapshot(),
            cache: self.cache_config.map(|_| CacheNumbers {
                accesses: cache_stats.accesses,
                loads: cache_stats.loads,
                misses: cache_stats.misses,
            }),
            memory: Some(MemoryEstimate {
                graph_bytes: self.graph.total_size_bytes() as u64,
                query_state_bytes: output_bytes as u64,
                auxiliary_bytes: (self.graph.num_vertices() * 8) as u64,
            }),
            storage: None,
        };
        FppResult { outputs, measurement }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ligra::LigraEngine;
    use fg_graph::gen;
    use std::sync::Mutex;

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
        for scheme in [
            ExecutionScheme::SingleThreaded,
            ExecutionScheme::InterQuery,
            ExecutionScheme::IntraQuery,
            ExecutionScheme::Hybrid { threads_per_query: 2 },
        ] {
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
        assert!(ppr.outputs[1].size_bytes() > 0);
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
        assert!(result.measurement.memory.unwrap().total_bytes() > 0);
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
        assert_eq!(ExecutionScheme::IntraQuery.label(), format!("t={}", cores()));
        assert_eq!(ExecutionScheme::Hybrid { threads_per_query: 4 }.label(), "t=4");
    }

    /// An engine that answers nothing and records the `threads` each query
    /// is handed.
    #[derive(Default)]
    struct ThreadsProbe(Mutex<Vec<usize>>);

    impl GpsEngine for ThreadsProbe {
        fn name(&self) -> &'static str {
            "probe"
        }

        fn sssp(&self, _: &CsrGraph, _: VertexId, ctx: &QueryContext<'_>) -> Vec<Dist> {
            self.0.lock().unwrap().push(ctx.threads);
            Vec::new()
        }

        fn bfs(&self, _: &CsrGraph, _: VertexId, _: &QueryContext<'_>) -> Vec<u32> {
            unreachable!("the probe runs SSSP only")
        }

        fn ppr(
            &self,
            _: &CsrGraph,
            _: VertexId,
            _: &PprConfig,
            _: &QueryContext<'_>,
        ) -> Vec<(VertexId, f64)> {
            unreachable!("the probe runs SSSP only")
        }
    }

    #[test]
    fn each_scheme_hands_its_queries_its_thread_count() {
        for (scheme, threads) in [
            (ExecutionScheme::SingleThreaded, 1),
            (ExecutionScheme::InterQuery, 1),
            (ExecutionScheme::IntraQuery, cores()),
            (ExecutionScheme::Hybrid { threads_per_query: 3 }, 3),
        ] {
            let driver = FppDriver::new(ThreadsProbe::default(), graph());
            driver.run(&QueryKind::Sssp, &[0, 1, 2, 3, 4], scheme);
            assert_eq!(*driver.engine().0.lock().unwrap(), vec![threads; 5], "{scheme:?}");
        }
    }
}
