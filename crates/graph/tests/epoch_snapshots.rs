//! Snapshot lifetime: readers holding epoch N's `Arc` keep seeing **exactly**
//! epoch N — edge-for-edge and shortest-path-for-shortest-path — while a
//! writer concurrently folds epoch N+1, N+2, … under them, and a retired
//! snapshot's storage goes when its last `Arc` drops.
//!
//! The oracle is a mirror history: before publishing version V the writer
//! appends the full edge map of V to a shared log. Every snapshot a reader
//! takes then has a ground truth to diff against: its materialized edges
//! must equal `history[epoch]`, and a from-scratch Dijkstra over its CSR must
//! equal Dijkstra over the mirror map. Any torn fold, premature reclamation,
//! or version skew shows up as a mismatch.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, RwLock};

use fg_graph::gen;
use fg_graph::partition::{PartitionConfig, PartitionMethod};
use fg_graph::partitioned::PartitionedGraph;
use fg_graph::{Dist, VersionedGraph, Weight, INF_DIST};

const N: usize = 64;
/// Issue floor is >= 120 randomized steps.
const STEPS: u64 = 160;
const READERS: u64 = 3;

/// Tiny deterministic xorshift so the test needs no RNG dependency.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

type EdgeMap = BTreeMap<(u32, u32), Weight>;

/// Materialize a snapshot's full edge set for exact comparison.
fn snapshot_edges(pg: &PartitionedGraph) -> EdgeMap {
    let g = pg.graph();
    let mut map = BTreeMap::new();
    for v in 0..g.num_vertices() as u32 {
        for (t, w) in g.out_edges(v) {
            map.insert((v, t), w);
        }
    }
    map
}

/// From-scratch Dijkstra over an arbitrary adjacency closure.
fn dijkstra(n: usize, source: u32, neighbors: impl Fn(u32) -> Vec<(u32, Weight)>) -> Vec<Dist> {
    let mut dist = vec![INF_DIST; n];
    dist[source as usize] = 0;
    let mut heap = BinaryHeap::new();
    heap.push(Reverse((0 as Dist, source)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        for (t, w) in neighbors(v) {
            let nd = d + w as Dist;
            if nd < dist[t as usize] {
                dist[t as usize] = nd;
                heap.push(Reverse((nd, t)));
            }
        }
    }
    dist
}

#[test]
fn concurrent_readers_always_see_their_pinned_epoch() {
    let g = gen::erdos_renyi(N, 300, 91).with_random_weights(8, 91);
    let pg = Arc::new(PartitionedGraph::build(
        &g,
        PartitionConfig::with_partitions(PartitionMethod::Chunked, 4),
    ));
    let store = Arc::new(VersionedGraph::new(pg));
    // history[v] = the exact edge map of version v. Pushed *before* version
    // v publishes, so any epoch a reader can take already has its ground
    // truth.
    let history: Arc<RwLock<Vec<EdgeMap>>> =
        Arc::new(RwLock::new(vec![snapshot_edges(&store.snapshot().1)]));
    let stop = Arc::new(AtomicBool::new(false));
    let verified = Arc::new(AtomicU64::new(0));
    // Each reader reports its first verified snapshot here and hangs up.
    let (first_check_tx, first_check_rx) = mpsc::channel::<()>();

    std::thread::scope(|scope| {
        for reader in 0..READERS {
            let store = Arc::clone(&store);
            let history = Arc::clone(&history);
            let stop = Arc::clone(&stop);
            let verified = Arc::clone(&verified);
            let mut first_check = Some(first_check_tx.clone());
            scope.spawn(move || {
                let mut checks = 0u64;
                // Check, then test `stop`: a reader that is first scheduled
                // after the writer's last step still verifies one snapshot.
                loop {
                    let (epoch, graph) = store.snapshot();
                    let expect = history.read().unwrap()[epoch as usize].clone();
                    let seen = snapshot_edges(&graph);
                    assert_eq!(seen, expect, "reader {reader}: edges diverged at epoch {epoch}");
                    let source = ((epoch + reader * 17) % N as u64) as u32;
                    let csr = graph.graph();
                    let via_snapshot =
                        dijkstra(N, source, |v| csr.out_edges(v).collect::<Vec<_>>());
                    let via_mirror = dijkstra(N, source, |v| {
                        expect.range((v, 0)..=(v, u32::MAX)).map(|(&(_, t), &w)| (t, w)).collect()
                    });
                    assert_eq!(
                        via_snapshot, via_mirror,
                        "reader {reader}: dijkstra diverged at epoch {epoch} source {source}"
                    );
                    checks += 1;
                    drop(graph);
                    if let Some(first_check) = first_check.take() {
                        let _ = first_check.send(());
                    }
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                }
                verified.fetch_add(checks, Ordering::AcqRel);
            });
        }

        drop(first_check_tx);

        // The writer: random mutation batches folded under the live readers.
        let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
        let mut mirror = history.read().unwrap()[0].clone();
        for step in 0..STEPS {
            for _ in 0..=(rng.next() % 3) {
                let u = (rng.next() % N as u64) as u32;
                let mut v = (rng.next() % N as u64) as u32;
                if u == v {
                    v = (v + 1) % N as u32;
                }
                match rng.next() % 3 {
                    0 => {
                        let w = (1 + rng.next() % 8) as Weight;
                        store.insert_edge(u, v, w).unwrap();
                        mirror.insert((u, v), w);
                    }
                    1 => {
                        store.delete_edge(u, v).unwrap();
                        mirror.remove(&(u, v));
                    }
                    _ => {
                        // Upsert semantics: an update to an absent edge
                        // materializes it, same as the fold's net effect.
                        let w = (1 + rng.next() % 8) as Weight;
                        store.update_weight(u, v, w).unwrap();
                        mirror.insert((u, v), w);
                    }
                }
            }
            history.write().unwrap().push(mirror.clone());
            store.advance().expect("a non-empty log must fold");
            assert_eq!(store.version(), step + 1, "one advance, one version");
        }
        // On two cores the writer can finish every step before some reader
        // has run at all, so it waits until each has verified one (or died
        // in an assertion, which the scope reports) before stopping them.
        let reported = first_check_rx.iter().count() as u64;
        stop.store(true, Ordering::Release);
        assert_eq!(reported, READERS, "every reader verifies at least one snapshot");
    });

    assert!(verified.load(Ordering::Acquire) >= READERS, "readers must have verified snapshots");
    let stats = store.epoch_stats();
    assert_eq!(stats.epochs_advanced, STEPS);
    // With every reader's `Arc` dropped, no retired snapshot stays alive.
    assert_eq!((stats.oldest_pinned_epoch_lag, stats.live_epochs), (0, 1));
}

#[test]
fn retired_snapshots_reclaim_once_the_last_reader_unpins() {
    let g = gen::erdos_renyi(32, 140, 7).with_random_weights(8, 7);
    let pg = Arc::new(PartitionedGraph::build(
        &g,
        PartitionConfig::with_partitions(PartitionMethod::Chunked, 4),
    ));
    let store = VersionedGraph::new(pg);

    let (_, old) = store.snapshot();
    let weak = Arc::downgrade(&old);
    for i in 0..5u32 {
        store.insert_edge(i, i + 8, 3).unwrap();
        store.advance().unwrap();
    }
    assert!(weak.upgrade().is_some(), "a held epoch survives any number of advances");
    let stats = store.epoch_stats();
    assert_eq!(stats.oldest_pinned_epoch_lag, 5);
    // Versions 1..4 were retired unheld: reclaimed at the advance that
    // superseded them, without waiting for anyone.
    assert_eq!(stats.snapshots_reclaimed, 4, "unheld epochs reclaim eagerly");

    drop(old);
    assert!(weak.upgrade().is_none(), "the last Arc frees the retired snapshot");
    assert_eq!(store.epoch_stats().oldest_pinned_epoch_lag, 0);
}
