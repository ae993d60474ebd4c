//! The service's batcher, held to `fg-seq` across a mutation history.
//!
//! A cache-on service answers SSSP and BFS hot keys after every round of
//! edge mutations: several monotone rounds (their re-queries resume from
//! the evicted results), then a delete round (its re-queries run from
//! scratch), then one more monotone round. Every answer must equal
//! `dijkstra` / `bfs` on the snapshot the service publishes, at one engine
//! thread and at two.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use forkgraph::core::EngineConfig;
use forkgraph::graph::{gen, Dist};
use forkgraph::prelude::*;
use forkgraph::service::{EdgeMutation, ServiceConfig, ServiceHandle};

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

#[test]
fn service_answers_match_fg_seq_across_a_mutation_history() {
    for threads in [1, 2] {
        let graph = gen::rmat(8, 6, 41).with_random_weights(8, 41);
        let n = graph.num_vertices() as u32;
        let pg = Arc::new(PartitionedGraph::build(
            &graph,
            PartitionConfig::with_partitions(PartitionMethod::Multilevel, 6),
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

        read_hot_keys(&handle, &format!("threads={threads} initial"));
        for round in 0..5 {
            let label = format!("threads={threads} round {round}");
            if round == 3 {
                // Non-monotone: drop the first out-edge of every hot source.
                let snapshot = handle.graph();
                for &u in SSSP_KEYS.iter().chain(&BFS_KEYS) {
                    if let Some(&v) = snapshot.graph().out_neighbors(u).first() {
                        handle.mutate(EdgeMutation::Delete { u, v }).unwrap();
                    }
                }
            } else {
                // Monotone: weight 1 is the least there is, so each insert is
                // a new edge or a weight decrease.
                for _ in 0..6 {
                    let u = rng.gen_range(0..n);
                    let v = rng.gen_range(0..n);
                    if u != v {
                        handle.mutate(EdgeMutation::Insert { u, v, w: 1 }).unwrap();
                    }
                }
            }
            handle.flush_mutations();
            read_hot_keys(&handle, &label);
        }

        let metrics = service.metrics();
        service.shutdown();
        assert!(metrics.incremental_runs > 0, "threads={threads}: nothing resumed: {metrics:?}");
        assert!(metrics.cache_invalidations > 0, "threads={threads}: {metrics:?}");
    }
}
