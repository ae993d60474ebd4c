//! Closed-loop throughput benchmark of the `fg-service` serving layer.
//!
//! A fixed population of client threads each keeps exactly one query in
//! flight (submit → wait → resubmit), which is the classic closed-loop
//! arrival process: offered load adapts to service capacity, so the measured
//! quantity is sustainable throughput. Three configurations are compared on
//! the same partitioned graph and query stream:
//!
//! * `direct`    — each client runs its query as its own one-shot
//!   `ForkGraphEngine::run` (no consolidation; the seed repo's only mode),
//! * `service`   — clients go through the micro-batching service
//!   (consolidation on, cache off),
//! * `service+cache` — consolidation plus the LRU result cache, with a
//!   skewed source distribution so the cache can help.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use fg_graph::gen;
use fg_graph::partition::{PartitionConfig, PartitionMethod};
use fg_graph::partitioned::PartitionedGraph;
use fg_service::{ForkGraphService, ServiceConfig};
use forkgraph_core::{EngineConfig, ForkGraphEngine};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CLIENTS: usize = 4;
const QUERIES_PER_CLIENT: usize = 16;
const HOT_SET: u32 = 4;

fn build_graph() -> Arc<PartitionedGraph> {
    let g = gen::rmat(11, 8, 7).with_random_weights(8, 7);
    Arc::new(PartitionedGraph::build(
        &g,
        PartitionConfig::with_partitions(PartitionMethod::Multilevel, 8),
    ))
}

/// One client's query stream: skewed over a hot set, deterministic per client.
fn sources(client: usize, n: u32) -> Vec<u32> {
    let mut rng = SmallRng::seed_from_u64(0xBEEF + client as u64);
    (0..QUERIES_PER_CLIENT)
        .map(|_| if rng.gen_bool(0.5) { rng.gen_range(0..HOT_SET) } else { rng.gen_range(0..n) })
        .collect()
}

fn run_direct(pg: &Arc<PartitionedGraph>) -> usize {
    let n = pg.graph().num_vertices() as u32;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let pg = Arc::clone(pg);
                scope.spawn(move || {
                    let engine = ForkGraphEngine::new(&pg, EngineConfig::default());
                    let mut done = 0;
                    for source in sources(client, n) {
                        let result = engine.run_sssp(&[source]);
                        assert_eq!(result.per_query.len(), 1);
                        done += 1;
                    }
                    done
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    })
}

fn run_service(pg: &Arc<PartitionedGraph>, cache_capacity: usize) -> usize {
    let service = ForkGraphService::start(
        Arc::clone(pg),
        EngineConfig::default(),
        ServiceConfig {
            batch_window: Duration::from_micros(500),
            max_batch_size: 64,
            max_queue_depth: 4096,
            cache_capacity,
            ..ServiceConfig::default()
        },
    );
    let n = pg.graph().num_vertices() as u32;
    let answered = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let handle = service.handle();
                scope.spawn(move || {
                    let mut done = 0;
                    for source in sources(client, n) {
                        let ticket = handle.submit_sssp(source).unwrap();
                        ticket.wait().unwrap();
                        done += 1;
                    }
                    done
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum::<usize>()
    });
    service.shutdown();
    answered
}

fn bench_service_throughput(c: &mut Criterion) {
    let pg = build_graph();
    let total = CLIENTS * QUERIES_PER_CLIENT;
    let mut group = c.benchmark_group("service_closed_loop_sssp");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("direct", total), &pg, |b, pg| {
        b.iter(|| assert_eq!(run_direct(pg), total))
    });
    group.bench_with_input(BenchmarkId::new("service", total), &pg, |b, pg| {
        b.iter(|| assert_eq!(run_service(pg, 0), total))
    });
    group.bench_with_input(BenchmarkId::new("service+cache", total), &pg, |b, pg| {
        b.iter(|| assert_eq!(run_service(pg, 512), total))
    });
    group.finish();
}

criterion_group!(benches, bench_service_throughput);
criterion_main!(benches);
