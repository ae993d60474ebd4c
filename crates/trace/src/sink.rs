//! The trace sink: per-thread lock-free event ring buffers behind one
//! shared handle.
//!
//! ## Hot-path cost model
//!
//! Instrumented code holds an `Option<Arc<TraceSink>>` — the *untraced*
//! path is one `None` check. With a sink attached, every emit reads the
//! monotonic clock (once), looks up the calling thread's lane (a
//! thread-local cache, lock-free after first use), and stores three relaxed
//! `u64` words plus one release cursor store.
//!
//! ## Ring semantics
//!
//! Each lane is a single-producer overwrite-oldest ring: when a thread emits
//! more than the lane capacity, the oldest records are overwritten and
//! counted as [dropped](ThreadEvents::dropped) — tracing never blocks and
//! never allocates after lane registration. Readers
//! ([`TraceSink::events`]) may run concurrently with writers; a record torn
//! by a concurrent overwrite decodes to an unknown kind and is skipped
//! (every word is an atomic, so concurrent access is well-defined — at
//! worst a stale/garbled *diagnostic*, never undefined behaviour). Reading
//! after the traced work quiesces (the normal usage) sees a fully
//! consistent stream.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use fg_metrics::Family;

use crate::event::{EventKind, TraceEvent};

/// Words per event record in the ring.
const WORDS_PER_EVENT: usize = 3;

/// Default per-thread lane capacity, in events (~1.5 MiB per thread).
pub const DEFAULT_LANE_CAPACITY: usize = 64 * 1024;

/// Global sink id counter — thread-local lane caches key on it, so ids must
/// never repeat within a process.
static NEXT_SINK_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(sink id, lane)` pairs this thread has registered. Usually length
    /// 0 or 1; a linear scan beats a hash map at that size. Bounded (see
    /// [`CACHE_LIMIT`]) so tests that create many sinks on one thread do
    /// not pin every ring alive; an evicted entry is re-found in the
    /// sink's lane list by thread id, not re-created.
    static LANE_CACHE: RefCell<Vec<(u64, Arc<Lane>)>> = const { RefCell::new(Vec::new()) };
}

/// Max cached lanes per thread before the oldest cache entry is evicted.
const CACHE_LIMIT: usize = 4;

/// One thread's event ring.
struct Lane {
    /// The registering thread — lane lookup key inside the sink, so a
    /// thread whose cache entry was evicted gets its *existing* lane back.
    thread: ThreadId,
    /// Human-readable track label (the thread name when it has one).
    label: String,
    /// `capacity * 3` atomic words; see [`TraceEvent::encode`].
    words: Box<[AtomicU64]>,
    /// `capacity - 1` for cheap masking (capacity is a power of two).
    mask: usize,
    /// Events ever written (monotonic). Slot of event `n` is
    /// `(n & mask) * 3`; the store is `Release` so a reader that `Acquire`s
    /// the cursor sees every word of the records it covers.
    cursor: AtomicU64,
}

impl Lane {
    fn new(thread: ThreadId, label: String, capacity: usize) -> Lane {
        let words = (0..capacity * WORDS_PER_EVENT).map(|_| AtomicU64::new(0)).collect();
        Lane { thread, label, words, mask: capacity - 1, cursor: AtomicU64::new(0) }
    }

    fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Single-producer append (only the owning thread calls this).
    fn write(&self, words: [u64; WORDS_PER_EVENT]) {
        let seq = self.cursor.load(Ordering::Relaxed);
        let base = (seq as usize & self.mask) * WORDS_PER_EVENT;
        for (i, word) in words.iter().enumerate() {
            self.words[base + i].store(*word, Ordering::Relaxed);
        }
        self.cursor.store(seq + 1, Ordering::Release);
    }

    /// Decode the retained window, oldest first.
    fn snapshot(&self) -> (Vec<TraceEvent>, u64) {
        let seq = self.cursor.load(Ordering::Acquire);
        let capacity = self.capacity() as u64;
        let dropped = seq.saturating_sub(capacity);
        let mut events = Vec::with_capacity((seq - dropped) as usize);
        for n in dropped..seq {
            let base = (n as usize & self.mask) * WORDS_PER_EVENT;
            let words = [
                self.words[base].load(Ordering::Relaxed),
                self.words[base + 1].load(Ordering::Relaxed),
                self.words[base + 2].load(Ordering::Relaxed),
            ];
            if let Some(event) = TraceEvent::decode(words) {
                events.push(event);
            }
        }
        (events, dropped)
    }
}

/// One thread's decoded event stream, as returned by [`TraceSink::events`].
#[derive(Clone, Debug)]
pub struct ThreadEvents {
    /// Track label: the thread's name (`fg-pool-0`, `fg-service-batcher`,
    /// …) or `thread-<id>` for unnamed threads.
    pub thread: String,
    /// Retained events, oldest first, timestamps in nanoseconds since the
    /// sink epoch.
    pub events: Vec<TraceEvent>,
    /// Events overwritten by ring wrap-around before this snapshot.
    pub dropped: u64,
}

/// Aggregate sink statistics, for the exposition endpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Threads that have registered a lane.
    pub threads: u64,
    /// Events currently retained across all lanes.
    pub retained: u64,
    /// Events lost to ring wrap-around across all lanes.
    pub dropped: u64,
    /// Per-lane ring capacity in events.
    pub lane_capacity: u64,
}

impl TraceStats {
    /// One metric family per field, in field order.
    pub fn families(&self) -> Vec<Family> {
        vec![
            Family::gauge(
                "fg_trace_threads",
                "Threads that have registered a trace lane.",
                self.threads as f64,
            ),
            Family::gauge(
                "fg_trace_events_retained",
                "Trace events currently retained across lanes.",
                self.retained as f64,
            ),
            Family::counter(
                "fg_trace_events_dropped_total",
                "Trace events lost to ring wrap-around.",
                self.dropped,
            ),
            Family::gauge(
                "fg_trace_lane_capacity",
                "Per-lane ring capacity in events.",
                self.lane_capacity as f64,
            ),
        ]
    }
}

/// Shared handle to a set of per-thread event rings.
///
/// Create one with [`TraceSink::new`], attach it to an engine
/// (`ForkGraphEngine::with_trace_sink`) or service
/// (`ForkGraphService::start_traced`), and read the stream back with
/// [`events`](Self::events) or [`crate::chrome::export`]. An attached sink
/// records every event emitted onto it.
pub struct TraceSink {
    /// Process-unique id; thread-local lane caches key on it.
    id: u64,
    /// Timestamp origin for every event in this sink.
    epoch: Instant,
    /// Per-lane ring capacity in events (power of two).
    lane_capacity: usize,
    lanes: Mutex<Vec<Arc<Lane>>>,
    /// Correlation-id mint for tickets/batches; 0 is reserved for "no id".
    next_id: AtomicU32,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("TraceSink")
            .field("threads", &stats.threads)
            .field("retained", &stats.retained)
            .field("dropped", &stats.dropped)
            .finish()
    }
}

impl TraceSink {
    /// A new sink with the default per-thread capacity
    /// ([`DEFAULT_LANE_CAPACITY`] events).
    pub fn new() -> Arc<TraceSink> {
        TraceSink::with_capacity(DEFAULT_LANE_CAPACITY)
    }

    /// A new sink retaining up to `lane_capacity` events per
    /// thread (rounded up to a power of two, minimum 2).
    pub fn with_capacity(lane_capacity: usize) -> Arc<TraceSink> {
        Arc::new(TraceSink {
            id: NEXT_SINK_ID.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            lane_capacity: lane_capacity.max(2).next_power_of_two(),
            lanes: Mutex::new(Vec::new()),
            next_id: AtomicU32::new(1),
        })
    }

    /// Mint a process-wide correlation id (ticket ids, batch ids). Starts
    /// at 1; 0 means "untraced".
    pub fn next_id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record one event on the calling thread's lane: one clock read, one
    /// lane lookup, one ring write.
    pub fn emit(&self, kind: EventKind, a: u32, b: u32, c: u32) {
        let nanos = self.epoch.elapsed().as_nanos() as u64;
        let words = TraceEvent { nanos, kind, a, b, c }.encode();
        LANE_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, lane)) = cache.iter().find(|(id, _)| *id == self.id) {
                lane.write(words);
                return;
            }
            let lane = self.lane_for_current_thread();
            lane.write(words);
            if cache.len() >= CACHE_LIMIT {
                cache.remove(0);
            }
            cache.push((self.id, lane));
        });
    }

    /// Find or register the calling thread's lane (takes the registration
    /// lock — once per thread per sink, amortised away by the cache).
    fn lane_for_current_thread(&self) -> Arc<Lane> {
        let current = std::thread::current();
        let mut lanes = self.lanes.lock().unwrap();
        if let Some(lane) = lanes.iter().find(|l| l.thread == current.id()) {
            return Arc::clone(lane);
        }
        let label = match current.name() {
            Some(name) => name.to_string(),
            None => format!("thread-{:?}", current.id()),
        };
        let lane = Arc::new(Lane::new(current.id(), label, self.lane_capacity));
        lanes.push(Arc::clone(&lane));
        lane
    }

    /// Snapshot every thread's retained events (oldest first per thread).
    /// Lanes appear in registration order.
    pub fn events(&self) -> Vec<ThreadEvents> {
        let lanes = self.lanes.lock().unwrap();
        lanes
            .iter()
            .map(|lane| {
                let (events, dropped) = lane.snapshot();
                ThreadEvents { thread: lane.label.clone(), events, dropped }
            })
            .collect()
    }

    /// All retained events across threads, merged and sorted by timestamp.
    /// The per-thread stream index rides along so callers can still tell
    /// lanes apart.
    pub fn merged_events(&self) -> Vec<(usize, TraceEvent)> {
        let mut all: Vec<(usize, TraceEvent)> = self
            .events()
            .iter()
            .enumerate()
            .flat_map(|(lane, t)| t.events.iter().map(move |&e| (lane, e)))
            .collect();
        all.sort_by_key(|(_, e)| e.nanos);
        all
    }

    /// Aggregate statistics for the exposition endpoint.
    pub fn stats(&self) -> TraceStats {
        let lanes = self.lanes.lock().unwrap();
        let mut stats = TraceStats {
            threads: lanes.len() as u64,
            lane_capacity: self.lane_capacity as u64,
            ..TraceStats::default()
        };
        for lane in lanes.iter() {
            let seq = lane.cursor.load(Ordering::Acquire);
            let dropped = seq.saturating_sub(lane.capacity() as u64);
            stats.retained += seq - dropped;
            stats.dropped += dropped;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_are_recorded_in_order_with_timestamps() {
        let sink = TraceSink::new();
        sink.emit(EventKind::RunBegin, 4, 1, 1);
        sink.emit(EventKind::PartitionVisitBegin, 9, 100, 1);
        sink.emit(EventKind::PartitionVisitEnd, 9, 0, 0);
        sink.emit(EventKind::RunEnd, 0, 0, 0);
        let streams = sink.events();
        assert_eq!(streams.len(), 1);
        let events = &streams[0].events;
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].kind, EventKind::RunBegin);
        assert_eq!(events[1].a, 9);
        assert_eq!(events[1].b, 100);
        assert!(events.windows(2).all(|w| w[0].nanos <= w[1].nanos), "monotonic timestamps");
        assert_eq!(streams[0].dropped, 0);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let sink = TraceSink::with_capacity(4);
        for i in 0..10u32 {
            sink.emit(EventKind::Yield, i, 0, 0);
        }
        let streams = sink.events();
        let events = &streams[0].events;
        assert_eq!(events.len(), 4);
        assert_eq!(streams[0].dropped, 6);
        let ids: Vec<u32> = events.iter().map(|e| e.a).collect();
        assert_eq!(ids, vec![6, 7, 8, 9], "newest four retained, oldest first");
        let stats = sink.stats();
        assert_eq!(stats.threads, 1);
        assert_eq!(stats.retained, 4);
        assert_eq!(stats.dropped, 6);
    }

    #[test]
    fn each_thread_gets_its_own_named_lane() {
        let sink = TraceSink::new();
        sink.emit(EventKind::RunBegin, 1, 1, 1);
        let clone = Arc::clone(&sink);
        std::thread::Builder::new()
            .name("fg-test-worker".into())
            .spawn(move || {
                clone.emit(EventKind::Claim, 5, 0, 0);
                clone.emit(EventKind::Steal, 5, 0, 1);
            })
            .unwrap()
            .join()
            .unwrap();
        let streams = sink.events();
        assert_eq!(streams.len(), 2);
        let worker = streams.iter().find(|t| t.thread == "fg-test-worker").unwrap();
        assert_eq!(worker.events.len(), 2);
        assert_eq!(sink.stats().threads, 2);
    }

    #[test]
    fn cache_eviction_reuses_the_registered_lane() {
        // Create more sinks than the per-thread cache holds and interleave
        // emits: every event must still land on one lane per (sink,
        // thread) pair.
        let sinks: Vec<Arc<TraceSink>> = (0..CACHE_LIMIT + 2).map(|_| TraceSink::new()).collect();
        for round in 0..3u32 {
            for sink in &sinks {
                sink.emit(EventKind::Yield, round, 0, 0);
            }
        }
        for sink in &sinks {
            let streams = sink.events();
            assert_eq!(streams.len(), 1, "one lane despite cache eviction");
            assert_eq!(streams[0].events.len(), 3);
        }
    }

    #[test]
    fn merged_events_interleave_across_threads_by_time() {
        let sink = TraceSink::new();
        sink.emit(EventKind::RunBegin, 1, 1, 1);
        let clone = Arc::clone(&sink);
        std::thread::spawn(move || clone.emit(EventKind::Claim, 3, 0, 0)).join().unwrap();
        sink.emit(EventKind::RunEnd, 0, 0, 0);
        let merged = sink.merged_events();
        assert_eq!(merged.len(), 3);
        assert!(merged.windows(2).all(|w| w[0].1.nanos <= w[1].1.nanos));
        assert_eq!(merged[0].1.kind, EventKind::RunBegin);
        assert_eq!(merged[2].1.kind, EventKind::RunEnd);
    }

    #[test]
    fn correlation_ids_are_unique_and_nonzero() {
        let sink = TraceSink::new();
        let ids: Vec<u32> = (0..100).map(|_| sink.next_id()).collect();
        assert!(ids.iter().all(|&id| id != 0));
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
    }
}
