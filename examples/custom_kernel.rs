//! `custom_kernel` — define your own fork-processing-pattern kernel *outside*
//! the ForkGraph workspace and serve it like a built-in.
//!
//! The kernel here computes **weighted k-hop reachability**: for a source
//! vertex, the minimum weighted distance to every vertex reachable over at
//! most `k` edges (`INF_DIST` beyond the hop budget). It demonstrates the
//! full open-kernel path:
//!
//! 1. implement [`FppKernel`] — plain sequential code, no atomics, exactly
//!    like the built-ins (the engine guarantees single-threaded access to a
//!    query's state);
//! 2. register a factory in the service's [`KernelRegistry`] that parses the
//!    `k` parameter, validates it, and erases the kernel;
//! 3. submit [`Query`]s by kernel *name* from concurrent clients — they are
//!    micro-batched, executed on the shared persistent worker pool, and
//!    cached, all by a service that has never heard of this kernel;
//! 4. check every answer against a simple serial oracle (k rounds of
//!    Bellman-Ford).
//!
//! ```text
//! cargo run --release --example custom_kernel
//! ```

use std::sync::Arc;
use std::time::Duration;

use forkgraph::core::kernel::FppKernel;
use forkgraph::core::operation::Priority;
use forkgraph::graph::{gen, AdjacencyView, CsrGraph, Dist, VertexId, INF_DIST};
use forkgraph::prelude::*;
use forkgraph::service::{InstantiatedKernel, ParamError};

/// Hop budget served by default; clients pick their own per query.
const DEFAULT_K: u64 = 4;
const CLIENTS: usize = 4;
const QUERIES_PER_CLIENT: usize = 12;
/// Distinct hot sources; round two re-queries them to show cache hits.
const HOT_SET: u32 = 6;

// ---------------------------------------------------------------------------
// 1. The kernel: weighted k-hop reachability.
// ---------------------------------------------------------------------------

/// Per-query state: `state[v * (k+1) + h]` is the best weighted distance to
/// `v` over paths of at most `h` edges. Entries only ever decrease
/// (min-relaxation on a finite lattice), so the fixpoint — and therefore the
/// result — is identical on one worker and on the pool.
struct KHopReachability {
    k: u32,
}

impl KHopReachability {
    fn stride(&self) -> usize {
        self.k as usize + 1
    }

    /// Distances within the full hop budget, extracted from a final state.
    fn within_budget(&self, state: &[Dist], num_vertices: usize) -> Vec<Dist> {
        (0..num_vertices).map(|v| state[v * self.stride() + self.k as usize]).collect()
    }
}

impl FppKernel for KHopReachability {
    /// `(distance so far, hops used)`, a `Copy` payload. The built-in SSSP,
    /// BFS and PPR kernels carry `()`: their priority (or their state)
    /// already holds what an operation needs, which keeps every operation
    /// at 16 bytes. Here the priority is the distance too, but the hop
    /// count cannot be derived from it, so the value carries both (a
    /// 32-byte operation; reading the distance from `process`'s `priority`
    /// and carrying only `hops` would make it 24).
    type Value = (Dist, u32);
    type State = Vec<Dist>;

    fn name(&self) -> &'static str {
        "khop"
    }

    /// Leaves the source's entries to its operation, which the `>=` prune in
    /// `process` lets through. (The built-ins write the source's entry here,
    /// which is what lets their operations carry no value.)
    fn init_state(&self, graph: &CsrGraph, _source: VertexId) -> Self::State {
        vec![INF_DIST; graph.num_vertices() * self.stride()]
    }

    fn source_op(&self, _source: VertexId) -> (Self::Value, Priority) {
        ((0, 0), 0)
    }

    fn process(
        &self,
        graph: &AdjacencyView<'_>,
        state: &mut Self::State,
        vertex: VertexId,
        (dist, hops): Self::Value,
        _priority: Priority,
        emit: &mut dyn FnMut(VertexId, Self::Value, Priority),
    ) -> u64 {
        let stride = self.stride();
        let base = vertex as usize * stride;
        if dist >= state[base + hops as usize] {
            return 0; // dominated: vertex already reached within `hops` at ≤ dist
        }
        // Reaching within `hops` edges also reaches within any larger budget.
        for h in hops as usize..stride {
            if dist < state[base + h] {
                state[base + h] = dist;
            }
        }
        if hops == self.k {
            return 0; // hop budget exhausted: prune instead of expanding
        }
        let mut edges = 0u64;
        for (target, weight) in graph.out_edges(vertex) {
            edges += 1;
            let next = dist + weight as Dist;
            if next < state[target as usize * stride + hops as usize + 1] {
                // Priority = tentative distance: closer frontiers first,
                // the same Dijkstra-style functor the built-ins use.
                emit(target, (next, hops + 1), next);
            }
        }
        edges
    }
}

// ---------------------------------------------------------------------------
// 2. The serial oracle: k rounds of Bellman-Ford.
// ---------------------------------------------------------------------------

fn oracle(graph: &CsrGraph, source: VertexId, k: u32) -> Vec<Dist> {
    let n = graph.num_vertices();
    let mut best = vec![INF_DIST; n];
    best[source as usize] = 0;
    for _ in 0..k {
        let previous = best.clone();
        for v in 0..n as u32 {
            let d = previous[v as usize];
            if d == INF_DIST {
                continue;
            }
            for (t, w) in graph.out_edges(v) {
                let next = d + w as Dist;
                if next < best[t as usize] {
                    best[t as usize] = next;
                }
            }
        }
    }
    best
}

fn main() {
    let graph = gen::rmat(13, 8, 7).with_random_weights(8, 7);
    let partitioned =
        Arc::new(PartitionedGraph::build(&graph, PartitionConfig::llc_sized(128 * 1024)));
    println!(
        "graph: {} vertices, {} edges, {} partitions",
        graph.num_vertices(),
        graph.num_edges(),
        partitioned.num_partitions()
    );

    let service = ForkGraphService::start(
        Arc::clone(&partitioned),
        EngineConfig::default().with_threads(4),
        ServiceConfig {
            batch_window: Duration::from_millis(5),
            max_batch_size: 64,
            max_queue_depth: 256,
            cache_capacity: 256,
        },
    );
    let handle = service.handle();

    // 3. Register the kernel. From here on, "khop" is a first-class query
    // type: batched, admission-controlled, pool-dispatched, cached.
    handle
        .register_kernel("khop", |params: &QueryParams| {
            params.ensure_known(&["k"])?;
            let k = params.u64_or("k", DEFAULT_K)?;
            if k == 0 || k > 64 {
                return Err(ParamError::new(format!("parameter \"k\" must be in 1..=64, got {k}")));
            }
            Ok(InstantiatedKernel::new(
                erase(KHopReachability { k: k as u32 }),
                QueryParams::new().with("k", k),
            ))
        })
        .expect("khop is not taken");
    println!("registered kernels: {:?}", handle.registry().names());

    // 4. Concurrent clients query by name; every answer is oracle-checked.
    // Two rounds: the first is a burst (shows micro-batch consolidation and
    // adaptive pool dispatch), the second re-queries the same hot set
    // (shows cache hits for a kernel the service never heard of at build
    // time).
    let graph_ref = &graph;
    let mut checked = 0usize;
    for round in 0..2 {
        checked += std::thread::scope(|scope| {
            let workers: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let handle = handle.clone();
                    scope.spawn(move || {
                        // Burst-submit every ticket, then wait: concurrent
                        // same-key queries consolidate into large cohorts.
                        let queries: Vec<(VertexId, u64)> = (0..QUERIES_PER_CLIENT)
                            .map(|i| {
                                let source = ((client + i) as u32 * 131) % HOT_SET;
                                let k = DEFAULT_K + (client as u64 % 2);
                                (source, k)
                            })
                            .collect();
                        let tickets: Vec<_> = queries
                            .iter()
                            .map(|&(source, k)| {
                                let query = Query::kernel("khop").source(source).param("k", k);
                                handle.submit_query(query).expect("khop is registered")
                            })
                            .collect();
                        for (&(source, k), ticket) in queries.iter().zip(tickets) {
                            let result = ticket.wait().expect("service answered");
                            let state = result.try_state::<Vec<Dist>>().expect("khop state");
                            let kernel = KHopReachability { k: k as u32 };
                            let served = kernel.within_budget(state, graph_ref.num_vertices());
                            assert_eq!(
                                served,
                                oracle(graph_ref, source, k as u32),
                                "client {client} source {source} k {k}"
                            );
                        }
                        queries.len()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum::<usize>()
        });
        let _ = round;
    }

    let m = service.metrics();
    let pool = service.pool_metrics();
    let records = service.batch_records();
    service.shutdown();

    println!("\n=== custom kernel served and oracle-checked ({checked} queries) ===");
    println!("batches dispatched   : {}", m.batches_dispatched);
    println!(
        "batch occupancy      : {} queries batched, max {}",
        m.queries_batched, m.max_batch_occupancy
    );
    println!(
        "result cache         : {:.0}% hit rate ({} hits, {} misses)",
        m.cache_hit_rate() * 100.0,
        m.cache_hits,
        m.cache_misses
    );
    let parallel_batches = records.iter().filter(|r| r.workers > 1).count();
    println!(
        "adaptive sizing      : {} of {} recorded batches ran parallel (max {} workers)",
        parallel_batches,
        records.len(),
        m.max_batch_workers
    );
    if let Some(p) = pool {
        println!(
            "worker pool          : {} threads spawned, {} dispatches, {:.0}% mailbox reuse",
            p.threads_spawned,
            p.dispatches,
            p.mailbox_reuse_rate() * 100.0
        );
    }
    println!("\nall {checked} served results matched the serial k-hop oracle ✓");
}
