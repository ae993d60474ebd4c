//! What a partitioned graph keeps alive beyond its CSR.
//!
//! The monolithic CSR is the only raw adjacency: a raw partition's store
//! holds its metadata (the vertex list and edge counts) and reads its
//! adjacency from the CSR rows. Building one must therefore cost `O(n)`
//! bytes on top of the shared `Arc<CsrGraph>`, never `O(m)`; a store
//! that kept its out-edges a second time (12 bytes per edge as triples) fails
//! here by that much. A compressed store adds exactly its varint payload.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use forkgraph::graph::gen;
use forkgraph::graph::partition::{PartitionConfig, PartitionMethod, PartitionPlan};
use forkgraph::graph::partitioned::PartitionedGraph;
use forkgraph::graph::StorageConfig;

/// Tracks this thread's live heap bytes: `alloc` adds, `dealloc` subtracts,
/// `realloc` adds the difference. Per thread, so that the other tests of
/// this binary, which run beside each other on their own threads, cannot
/// disturb a measurement.
struct LiveBytesAllocator;

thread_local! {
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn track(delta: i64) {
    // `try_with`: the allocator is also called while a thread is torn down.
    let _ = LIVE_BYTES.try_with(|live| live.set(live.get() + delta));
}

// SAFETY: defers to `System` for every operation and only counts on the side
// (a `Cell` in a `const`-initialised thread-local: no allocation, no
// destructor, no re-entry into the allocator).
unsafe impl GlobalAlloc for LiveBytesAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytesAllocator = LiveBytesAllocator;

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

const PARTITIONS: usize = 16;

/// Builds a partitioned graph over a weighted R-MAT 2^12 graph under
/// `storage` and returns the bytes it keeps alive beyond the shared CSR, the
/// allowance for its metadata (`8·n + 4 KiB` per partition) and its
/// compressed payload bytes. The graph and the plan are built outside the
/// measured window.
fn footprint(storage: StorageConfig) -> (i64, i64, usize, usize) {
    let graph = Arc::new(gen::rmat(12, 8, 7).with_random_weights(9, 7));
    let config = PartitionConfig::with_partitions(PartitionMethod::Chunked, PARTITIONS)
        .with_storage(storage);
    let plan = PartitionPlan::compute(&graph, &config);
    let (n, m) = (graph.num_vertices(), graph.num_edges());

    let before = live_bytes();
    let pg = PartitionedGraph::from_plan(Arc::clone(&graph), plan, config);
    let kept = live_bytes() - before;

    assert_eq!(pg.num_partitions(), PARTITIONS);
    let allowance = (8 * n + 4096 * PARTITIONS) as i64;
    (kept, allowance, pg.payload_bytes_compressed(), m)
}

#[test]
fn raw_partitions_keep_no_second_copy_of_the_adjacency() {
    let (kept, allowance, compressed, m) = footprint(StorageConfig::Raw);
    assert_eq!(compressed, 0);
    assert!(
        kept <= allowance,
        "raw stores keep {kept} bytes beyond the CSR, allowance {allowance} ({m} edges)"
    );
}

#[test]
fn compressed_partitions_keep_only_their_payload_beyond_the_csr() {
    let (kept, allowance, compressed, m) = footprint(StorageConfig::Compressed);
    assert!(compressed > 0);
    let allowance = allowance + compressed as i64;
    assert!(
        kept <= allowance,
        "compressed stores keep {kept} bytes beyond the CSR, allowance {allowance} \
         ({compressed} payload bytes, {m} edges)"
    );
}
