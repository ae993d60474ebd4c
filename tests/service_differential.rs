//! The service's batcher, held to `fg-seq` across a mutation history.
//!
//! A cache-on service answers SSSP and BFS hot keys after every round of
//! edge mutations: two monotone rounds, then three that raise edges — one
//! that makes every hot source's out-edges heavier, one that deletes each
//! hot source's first out-edge, and one that deletes an edge on each hot
//! key's original shortest paths — then one more monotone round. A fold
//! touches no cache entry: every re-query finds its key's answer stale and
//! resumes from it, deletions and weight increases included, and every
//! answer must equal `dijkstra` / `bfs` on the snapshot the service
//! publishes: at one engine thread and at two, over raw and compressed
//! partitions. The service's fold figures are read from the graph store,
//! so once a flush returns they count every acknowledged mutation. A last
//! test holds the batcher in a gated run while shutdown begins, and the
//! mutations acknowledged meanwhile must still land.

mod common;

use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use forkgraph::core::EngineConfig;
use forkgraph::graph::{gen, Dist, StorageConfig, INF_DIST};
use forkgraph::prelude::*;
use forkgraph::service::{EdgeMutation, ServiceConfig, ServiceError, ServiceHandle};

const SSSP_KEYS: [VertexId; 5] = [0, 3, 17, 64, 200];
const BFS_KEYS: [VertexId; 5] = [1, 9, 33, 120, 255];

/// Submit every hot key at once, so that they share batches, and hold each
/// answer to `fg-seq` on the published snapshot.
fn read_hot_keys(handle: &ServiceHandle, label: &str) {
    let submit = |kernel: &str, source: VertexId| {
        handle.submit_query(Query::kernel(kernel).source(source)).unwrap()
    };
    let sssp: Vec<_> = SSSP_KEYS.iter().map(|&s| submit("sssp", s)).collect();
    let bfs: Vec<_> = BFS_KEYS.iter().map(|&s| submit("bfs", s)).collect();
    let snapshot = handle.graph();
    let graph = snapshot.graph();
    for (&source, ticket) in SSSP_KEYS.iter().zip(sssp) {
        let got = ticket.wait().unwrap();
        let want = forkgraph::seq::dijkstra::dijkstra(graph, source).dist;
        assert_eq!(got.try_state::<Vec<Dist>>().unwrap(), &want, "{label}: sssp from {source}");
    }
    for (&source, ticket) in BFS_KEYS.iter().zip(bfs) {
        let got = ticket.wait().unwrap();
        let want = forkgraph::seq::bfs::bfs(graph, source).level;
        assert_eq!(got.try_state::<Vec<u32>>().unwrap(), &want, "{label}: bfs from {source}");
    }
}

/// One edge on the shortest paths of each hot key that reaches anything in
/// `graph`: the tight in-edge of the reached vertex halfway down the key's
/// distance order.
fn shortest_path_edges(graph: &CsrGraph) -> Vec<(VertexId, VertexId)> {
    // (distances, whether an edge counts 1 whatever its weight)
    let sssp =
        SSSP_KEYS.iter().map(|&s| (forkgraph::seq::dijkstra::dijkstra(graph, s).dist, false));
    let bfs = BFS_KEYS.iter().map(|&s| {
        let level = forkgraph::seq::bfs::bfs(graph, s).level;
        (level.iter().map(|&l| if l == u32::MAX { INF_DIST } else { l as Dist }).collect(), true)
    });
    sssp.chain(bfs)
        .filter_map(|(dist, unit): (Vec<Dist>, bool)| {
            let d = |v: VertexId| dist[v as usize];
            let mut reached: Vec<VertexId> =
                (0..dist.len() as VertexId).filter(|&v| d(v) != INF_DIST && d(v) > 0).collect();
            reached.sort_by_key(|&v| (d(v), v));
            let v = *reached.get(reached.len() / 2)?;
            let step = |w: Weight| if unit { 1 } else { w as Dist };
            let (u, _) = graph
                .in_edges(v)
                .find(|&(u, w)| d(u) != INF_DIST && d(u) + step(w) == d(v))
                .expect("a reached vertex has a tight in-edge");
            Some((u, v))
        })
        .collect()
}

#[test]
fn service_answers_match_fg_seq_across_a_mutation_history() {
    let graph = gen::rmat(8, 6, 41).with_random_weights(8, 41);
    let n = graph.num_vertices() as u32;
    let on_paths = shortest_path_edges(&graph);
    assert!(on_paths.len() >= 6, "{on_paths:?}");
    let hot_sources = || SSSP_KEYS.iter().chain(&BFS_KEYS).copied();
    for storage in [StorageConfig::Raw, StorageConfig::Compressed] {
        for threads in [1, 2] {
            let pg = Arc::new(PartitionedGraph::build(
                &graph,
                PartitionConfig::with_partitions(PartitionMethod::Multilevel, 6)
                    .with_storage(storage),
            ));
            let service = ForkGraphService::start(
                pg,
                EngineConfig::default().with_threads(threads),
                ServiceConfig {
                    batch_window: Duration::from_millis(1),
                    cache_capacity: 256,
                    ..ServiceConfig::default()
                },
            );
            let handle = service.handle();
            let mut rng = SmallRng::seed_from_u64(0xD1FF + threads as u64);

            read_hot_keys(&handle, &format!("{storage:?} threads={threads} initial"));
            let acknowledged = Cell::new(0);
            let mutate = |mutation| {
                handle.mutate(mutation).unwrap();
                acknowledged.set(acknowledged.get() + 1);
            };
            for round in 0..6 {
                let label = format!("{storage:?} threads={threads} round {round}");
                let snapshot = handle.graph();
                let graph = snapshot.graph();
                let raises = (2..=4).contains(&round);
                let cached = handle.cached_results();
                match round {
                    2 => {
                        // Every hot source's out-edges get heavier.
                        for u in hot_sources() {
                            for (v, w) in graph.out_edges(u) {
                                mutate(EdgeMutation::UpdateWeight { u, v, w: w + 3 });
                            }
                        }
                    }
                    3 => {
                        // Drop the first out-edge of every hot source.
                        for u in hot_sources() {
                            if let Some(&v) = graph.out_neighbors(u).first() {
                                mutate(EdgeMutation::Delete { u, v });
                            }
                        }
                    }
                    4 => {
                        // Drop an edge of each hot key's original shortest paths.
                        for &(u, v) in &on_paths {
                            mutate(EdgeMutation::Delete { u, v });
                        }
                    }
                    _ => {
                        // Monotone: weight 1 is the least there is, so each
                        // insert is a new edge or a weight decrease.
                        for _ in 0..6 {
                            let u = rng.gen_range(0..n);
                            let v = rng.gen_range(0..n);
                            if u != v {
                                mutate(EdgeMutation::Insert { u, v, w: 1 });
                            }
                        }
                    }
                }
                let version = handle.flush_mutations();
                assert_eq!(handle.cached_results(), cached, "{label}: a fold evicted answers");
                // The fold figures are the store's own, so they are current
                // the moment the fold is published.
                let metrics = service.metrics();
                assert_eq!(metrics.mutations_applied, acknowledged.get(), "{label}: {metrics:?}");
                assert_eq!(metrics.epochs_advanced, version, "{label}: {metrics:?}");
                let resumed = metrics.incremental_runs;
                read_hot_keys(&handle, &label);
                if raises {
                    assert!(
                        service.metrics().incremental_runs > resumed,
                        "{label}: the re-queries after a raising round must resume"
                    );
                }
            }

            let metrics = service.metrics();
            service.shutdown();
            assert!(metrics.cache_invalidations > 0, "{storage:?} threads={threads}: {metrics:?}");
        }
    }
}

/// A mutation acknowledged while the batcher is held in a run and shutdown
/// is under way still lands: the batcher folds the log before it exits, and
/// `flush_mutations` returns.
#[test]
fn mutations_acknowledged_before_shutdown_are_folded() {
    let graph = gen::rmat(8, 6, 41).with_random_weights(8, 41);
    let pg = Arc::new(PartitionedGraph::build(
        &graph,
        PartitionConfig::with_partitions(PartitionMethod::Chunked, 4),
    ));
    let service = ForkGraphService::start(pg, EngineConfig::default(), ServiceConfig::default());
    let handle = service.handle();
    let gate = common::register_gated_bfs(&handle);
    let gated = handle.submit_query(Query::kernel("gated_bfs").source(0)).unwrap();
    gate.wait_for_a_run();

    let mutation = EdgeMutation::Insert { u: 0, v: graph.num_vertices() as VertexId - 1, w: 1 };
    let mut acknowledged = handle.mutate(mutation).unwrap();
    let stopping = std::thread::spawn(move || service.shutdown());
    // Shutdown has begun once `mutate` refuses.
    loop {
        match handle.mutate(mutation) {
            Ok(version) => acknowledged = version,
            Err(error) => {
                assert_eq!(error, ServiceError::ShuttingDown);
                break;
            }
        }
    }
    assert!(!gate.is_open(), "the batcher was held in the gated run throughout");
    gate.open();
    stopping.join().unwrap();

    assert!(gated.wait().is_ok(), "the admitted query is answered");
    assert_eq!(handle.graph_version(), acknowledged, "the last acknowledged mutation landed");
    assert_eq!(handle.pending_mutations(), 0);
    assert_eq!(handle.flush_mutations(), acknowledged);
}
