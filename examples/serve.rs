//! `serve` — run the ForkGraph query service under synthetic client traffic.
//!
//! Builds an RMAT graph, partitions it into LLC-sized pieces, starts an
//! always-on [`ForkGraphService`], and drives it with a handful of closed-loop
//! client threads issuing a skewed mix of SSSP/BFS/PPR queries (a Zipf-ish hot
//! set, so the result cache has something to do). Prints the service and pool
//! metric families at the end: queries batched per batch dispatched is the
//! consolidation win, cache hits against misses the result-cache win.
//!
//! ```text
//! cargo run --release --example serve
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use forkgraph::core::kernels::PprState;
use forkgraph::graph::Dist;
use forkgraph::prelude::*;

const CLIENTS: usize = 4;
const QUERIES_PER_CLIENT: usize = 50;
/// Fraction of queries drawn from the small hot set (cacheable repeats).
const HOT_FRACTION: f64 = 0.5;
const HOT_SET: usize = 8;

fn main() {
    // A social-network-like graph, partitioned for a simulated 256 KiB LLC
    // (small so the demo graph splits into several partitions).
    let graph = forkgraph::graph::gen::rmat(13, 8, 42).with_random_weights(8, 42);
    let partitioned =
        Arc::new(PartitionedGraph::build(&graph, PartitionConfig::llc_sized(256 * 1024)));
    println!(
        "graph: {} vertices, {} edges, {} partitions",
        graph.num_vertices(),
        graph.num_edges(),
        partitioned.num_partitions()
    );

    // Up to 4 engine workers per batch; the batcher sizes each micro-batch's
    // crew adaptively and dispatches parallel runs onto one persistent
    // worker pool (spawned once, reused by every batch).
    let service = ForkGraphService::start(
        Arc::clone(&partitioned),
        EngineConfig::default().with_threads(4),
        ServiceConfig {
            batch_window: Duration::from_millis(2),
            max_batch_size: 64,
            max_queue_depth: 256,
            cache_capacity: 512,
        },
    );

    let n = graph.num_vertices() as u32;
    let started = Instant::now();
    let answered: usize = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let handle = service.handle();
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(0x5EED + client as u64);
                    let mut answered = 0usize;
                    for _ in 0..QUERIES_PER_CLIENT {
                        // Synthetic arrival process: short random think time.
                        std::thread::sleep(Duration::from_micros(rng.gen_range(0u64..500)));
                        let source = if rng.gen_bool(HOT_FRACTION) {
                            rng.gen_range(0u32..HOT_SET as u32)
                        } else {
                            rng.gen_range(0u32..n)
                        };
                        let query = match rng.gen_range(0u32..3) {
                            0 => Query::kernel("sssp").source(source),
                            1 => Query::kernel("bfs").source(source),
                            _ => Query::kernel("ppr").source(source).param("epsilon", 1e-5),
                        };
                        match handle.submit_query(query) {
                            Ok(ticket) => {
                                let result = ticket.wait().expect("service answered");
                                // Touch the result so the work is observable;
                                // `try_state` names the actual kernel if we
                                // ever mismatch.
                                match result.kernel_name() {
                                    "sssp" => {
                                        let d = result.try_state::<Vec<Dist>>().expect("sssp");
                                        assert_eq!(d[source as usize], 0);
                                    }
                                    "bfs" => {
                                        let l = result.try_state::<Vec<u32>>().expect("bfs");
                                        assert_eq!(l[source as usize], 0);
                                    }
                                    "ppr" => {
                                        let p = result.try_state::<PprState>().expect("ppr");
                                        assert!(p.total_mass() > 0.9);
                                    }
                                    other => panic!("unexpected kernel {other:?}"),
                                }
                                answered += 1;
                            }
                            Err(ServiceError::Saturated { queue_depth, capacity }) => {
                                // Closed-loop clients just retry after backoff;
                                // here we simply count the shed.
                                eprintln!(
                                    "client {client}: shed at depth {queue_depth}/{capacity}"
                                );
                            }
                            Err(e) => panic!("unexpected service error: {e}"),
                        }
                    }
                    answered
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    let elapsed = started.elapsed();

    let m = service.metrics();
    let pool = service.pool_metrics();
    let mixed_records = service.batch_records().iter().filter(|r| r.kernels_in_run >= 2).count();
    service.shutdown();

    println!("\n=== fg-service metrics after {answered} answered queries ===");
    println!(
        "wall time: {:.2?} ({:.0} q/s); {mixed_records} batch records with kernels_in_run >= 2",
        elapsed,
        answered as f64 / elapsed.as_secs_f64()
    );
    // The snapshots render themselves: `Display` on `ServiceSnapshot` /
    // `PoolSnapshot` is a table of the same families `/metrics` exposes.
    println!("{m}");
    if let Some(p) = pool {
        println!("{p}");
    }
}
