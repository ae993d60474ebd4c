//! Per-partition operation buffers: one resident **lane** per active query
//! (Section 6.1 "buffer management" and Appendix B.1 of the paper).
//!
//! Appendix B.1 buckets a partition's buffer `K` ways so that query-centric
//! consolidation only has to group `|Q| / K` queries per bucket. A
//! [`PartitionBuffer`] is the `K = |Q|` limit of that design: every query
//! with pending operations in the partition owns a `Lane`, an operation is
//! appended once to the lane it will be popped from, and grouping cost
//! vanishes — the buffer *is* the per-query priority queue.
//!
//! A lane holds a query's pending operations in three places, by where they
//! came from. Operations arriving from other partitions wait in the target's
//! mailbox stripes ([`crate::executor`]) until the partition's own claimant
//! empties them onto its lanes' inboxes at the start of its visit; the visit
//! then consolidates each inbox with **one sort** and merges it into the
//! lane's **sorted run** of earlier arrivals. Operations a visit emits to its
//! own partition go onto the lane's **heap**. Popping takes the lower of the
//! heap's top and the run's back by `(priority, vertex)` — the order one heap
//! of both would give. A **yield just stops**: whatever the heap and the run
//! still hold stays where it is for the next visit, and a lane with nothing
//! newly arrived merges nothing.
//!
//! The inbox is not there to spare a cold partition heap traffic — the
//! drain and the merge both happen in the visit, with the partition about
//! to be resident. Pushing arrivals straight onto the heap bought nothing:
//! on `fgbench`'s `fpp-social-resident` (2-core Xeon, seed 42, 10
//! alternating pairs) batch time was within noise either way, and without
//! the inbox single-query latency rose 5 % (p50 and p90) and peak RSS 2.4 %.
//! Either way every arrival paid a heap sift on the way in and another on
//! the way out. The sorted run pays neither: a visit's arrivals cost one
//! sort and one linear merge, and popping one is `Vec::pop`.
//!
//! A run's buffers live beside its executor mailboxes, one per partition,
//! and are built and dropped with the run. Lanes, the lane table and the
//! active-lane list are reused for the whole run. A visit of small lanes
//! allocates nothing; large ones grow and give back capacity with the usual
//! amortised policy, so allocations are proportional to operations — never
//! to yields — and the footprint follows the live operations.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use fg_graph::partition::PartitionId;

use crate::operation::{HeapEntry, Operation, Priority};

/// How a flat operation list is grouped by query: the two methods of
/// Appendix B.1. The engine itself no longer groups anything — lanes are
/// grouped by construction — so [`PartitionBuffer::drain_consolidated`]
/// accepts either.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConsolidationMethod {
    /// Sort the bucket by query id (`O(R log R)` per bucket).
    Sort,
    /// Scan the bucket once per distinct query it contains (`O(|Q| R / K²)`).
    Scan,
}

/// Capacity (in operations) a lane's containers — and an executor mailbox's
/// stripes — may keep however little they hold: below this, giving memory
/// back costs more than it saves.
pub(crate) const RESIDENT_SLACK: usize = 32;

/// One query's pending operations in one partition: a heap of what the
/// lane's own visits pushed, a sorted run of merged arrivals, and an inbox of
/// arrivals since the query's last visit here.
///
/// With query-centric consolidation on, a visit first merges the inbox into
/// the run and then pops in `(priority, vertex)` order from whichever of the
/// heap and the run holds the lower next operation — the order one heap of
/// both would give. With it off (the "+buffer" ablation) the heap and the run
/// stay unused and the inbox is the whole lane, popped in arrival order.
#[derive(Clone, Debug)]
pub(crate) struct Lane<V> {
    /// Operations the lane's own visits emitted to its partition.
    heap: BinaryHeap<HeapEntry<V>>,
    /// Merged arrivals, sorted descending by `(priority, vertex)`: the next
    /// one is at the back.
    run: Vec<Operation<V>>,
    inbox: VecDeque<Operation<V>>,
    /// Lowest priority appended to the inbox since it was last empty.
    inbox_min: Priority,
}

impl<V> Default for Lane<V> {
    fn default() -> Self {
        Lane {
            heap: BinaryHeap::new(),
            run: Vec::new(),
            inbox: VecDeque::new(),
            inbox_min: Priority::MAX,
        }
    }
}

/// The order a lane pops in: `(priority, vertex)`, lowest first.
#[inline]
fn key<V>(op: &Operation<V>) -> (Priority, u32) {
    (op.priority, op.vertex)
}

impl<V: Copy> Lane<V> {
    /// Pending operations (resident + arrived).
    pub fn len(&self) -> usize {
        self.heap.len() + self.run.len() + self.inbox.len()
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.run.is_empty() && self.inbox.is_empty()
    }

    /// Best (lowest) pending priority, `Priority::MAX` when empty; `O(1)`.
    /// Exact for an ordered lane. An unordered lane pops its inbox from the
    /// front without looking for the minimum, so there this is a lower bound
    /// — a lane that looks a little more urgent than it is — until the inbox
    /// next runs empty.
    pub fn min_priority(&self) -> Priority {
        let local = self.heap.peek().map_or(Priority::MAX, |entry| entry.op.priority);
        let merged = self.run.last().map_or(Priority::MAX, |op| op.priority);
        local.min(merged).min(self.inbox_min)
    }

    /// Append an arrival to the inbox.
    #[inline]
    fn push_inbox(&mut self, op: Operation<V>) {
        self.inbox_min = self.inbox_min.min(op.priority);
        self.inbox.push_back(op);
    }

    /// Visit start of an ordered lane: drop the arrivals `is_dead` already
    /// condemns, consolidate the survivors with one sort and merge them into
    /// the run from the back — no per-operation sift, and no allocation once
    /// the run has grown to the lane's size. Returns how many arrivals were
    /// dropped. An empty inbox costs nothing. The inbox's next use is some
    /// other partition's visit, arbitrarily far off, and what it carried now
    /// lives in the run — so a grown inbox gives its buffer back rather than
    /// keeping a second copy of the lane's peak capacity (measured with
    /// `fgbench`, seeds 42–44: keeping it raises `fpp-social-resident`'s peak
    /// RSS — 32 SSSP queries over 24 partitions — from 32.6–33.4 to 35.9–38.8
    /// MiB; `fpp-ppr-resident`, whose lanes hold about one operation per push
    /// in flight, does not move).
    pub(crate) fn merge_inbox(&mut self, mut is_dead: impl FnMut(&Operation<V>) -> bool) -> u64 {
        if self.inbox.is_empty() {
            return 0;
        }
        let arrived = self.inbox.len();
        self.inbox.retain(|op| !is_dead(op));
        let dropped = (arrived - self.inbox.len()) as u64;
        let survivors = self.inbox.make_contiguous();
        survivors.sort_unstable_by_key(|op| Reverse(key(op)));
        merge_descending(&mut self.run, survivors);
        self.inbox.clear();
        self.inbox_min = Priority::MAX;
        if self.inbox.capacity() > RESIDENT_SLACK {
            self.inbox = VecDeque::new();
        }
        dropped
    }

    /// Visit end: a heap or run that has shrunk to under a quarter of its
    /// capacity gives half of it back — the usual amortised-constant policy,
    /// so allocations stay proportional to operations, never to yields,
    /// while an engine run's footprint follows its live operations instead
    /// of the sum of every lane's historical peak.
    pub(crate) fn trim(&mut self) {
        if self.heap.capacity() > 4 * self.heap.len() + RESIDENT_SLACK {
            self.heap.shrink_to(2 * self.heap.len());
        }
        if self.run.capacity() > 4 * self.run.len() + RESIDENT_SLACK {
            self.run.shrink_to(2 * self.run.len());
        }
    }

    /// Remove the next operation: best `(priority, vertex)` of an ordered
    /// lane (its inbox merged), oldest arrival otherwise.
    #[inline]
    pub(crate) fn pop(&mut self, ordered: bool) -> Option<Operation<V>> {
        if ordered {
            let from_run = match (self.heap.peek(), self.run.last()) {
                (Some(local), Some(merged)) => key(merged) < key(&local.op),
                (None, Some(_)) => true,
                (_, None) => false,
            };
            if from_run {
                self.run.pop()
            } else {
                self.heap.pop().map(|entry| entry.op)
            }
        } else {
            let op = self.inbox.pop_front();
            if self.inbox.is_empty() {
                self.inbox_min = Priority::MAX;
            }
            op
        }
    }

    /// Add an operation the lane's own visit emitted: it will be popped from
    /// here, so it goes straight to where [`Self::pop`] looks.
    #[inline]
    pub(crate) fn push_local(&mut self, ordered: bool, op: Operation<V>) {
        if ordered {
            self.heap.push(HeapEntry { op });
        } else {
            self.push_inbox(op);
        }
    }
}

/// Merge `arrivals` into `run`, both sorted descending by `(priority,
/// vertex)`, in place: grow `run` by the arrivals, then fill it from the back
/// with the lower of the two sequences' last elements. Only the run's entries
/// below the highest arrival move.
fn merge_descending<V: Copy>(run: &mut Vec<Operation<V>>, arrivals: &[Operation<V>]) {
    let mut i = run.len();
    run.extend_from_slice(arrivals);
    let mut j = arrivals.len();
    let mut k = run.len();
    while j > 0 {
        k -= 1;
        if i > 0 && key(&run[i - 1]) < key(&arrivals[j - 1]) {
            run[k] = run[i - 1];
            i -= 1;
        } else {
            run[k] = arrivals[j - 1];
            j -= 1;
        }
    }
}

/// The operation buffer attached to one graph partition: a lane per query
/// with pending operations here.
///
/// Bookkeeping is `O(lanes + operations)`: a lane is created the first time
/// a query reaches the partition and reused for the rest of the run; the
/// only dense structure is the `query → lane` table of `u32` slots.
#[derive(Clone, Debug)]
pub struct PartitionBuffer<V> {
    /// Lane storage, one per query that has reached the partition.
    lanes: Vec<Lane<V>>,
    /// `query → lane index + 1`, `0` = the query has no lane here yet.
    lane_of: Vec<u32>,
    /// Queries whose lane is non-empty (between visits: exactly those).
    active: Vec<u32>,
}

impl<V> Default for PartitionBuffer<V> {
    fn default() -> Self {
        PartitionBuffer { lanes: Vec::new(), lane_of: Vec::new(), active: Vec::new() }
    }
}

impl<V: Copy> PartitionBuffer<V> {
    /// Create an empty buffer. `num_buckets` is the `K` of Appendix B.1 and
    /// no longer shapes anything — lanes are the `K = |Q|` limit — the
    /// parameter survives because the repository's benchmark constructs
    /// buffers with it.
    pub fn new(_num_buckets: usize) -> Self {
        Self::default()
    }

    /// `query`'s lane; the query must have one.
    fn lane(&self, query: u32) -> &Lane<V> {
        &self.lanes[self.lane_of[query as usize] as usize - 1]
    }

    /// Number of buffered operations, summed over the active lanes.
    pub fn len(&self) -> usize {
        self.active.iter().map(|&query| self.lane(query).len()).sum()
    }

    /// True if no operation is buffered.
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Best (lowest) priority among the buffered operations, or
    /// `Priority::MAX` when empty — the partition priority used by the
    /// priority-based scheduler, the least of the active lanes' minima:
    /// exact with ordered lanes, a lower bound in the unordered ablation.
    pub fn min_priority(&self) -> Priority {
        self.active
            .iter()
            .map(|&query| self.lane(query).min_priority())
            .min()
            .unwrap_or(Priority::MAX)
    }

    /// Index of `query`'s lane, creating the lane on first contact.
    fn lane_index(&mut self, query: u32) -> usize {
        let q = query as usize;
        if q >= self.lane_of.len() {
            self.lane_of.resize(q + 1, 0);
        }
        if self.lane_of[q] == 0 {
            self.lanes.push(Lane::default());
            self.lane_of[q] = self.lanes.len() as u32;
        }
        self.lane_of[q] as usize - 1
    }

    /// Append one operation to its query's lane.
    pub fn push(&mut self, op: Operation<V>) {
        let index = self.lane_index(op.query);
        let lane = &mut self.lanes[index];
        if lane.is_empty() {
            self.active.push(op.query);
        }
        lane.push_inbox(op);
    }

    /// Append a batch of operations.
    pub fn push_batch(&mut self, ops: impl IntoIterator<Item = Operation<V>>) {
        for op in ops {
            self.push(op);
        }
    }

    /// Start a visit: put the active lanes in ascending query order (the
    /// order a visit processes them in, so that counters repeat exactly from
    /// process to process) and return how many there are.
    pub(crate) fn begin_visit(&mut self) -> usize {
        self.active.sort_unstable();
        self.active.len()
    }

    /// The `i`-th active lane of the current visit and the query it belongs to.
    pub(crate) fn active_lane(&mut self, i: usize) -> (u32, &mut Lane<V>) {
        let query = self.active[i];
        (query, &mut self.lanes[self.lane_of[query as usize] as usize - 1])
    }

    /// End a visit: lanes were popped and pushed behind this buffer's back,
    /// so retire the emptied ones.
    pub(crate) fn end_visit(&mut self) {
        let (lanes, lane_of) = (&self.lanes, &self.lane_of);
        self.active.retain(|&query| !lanes[lane_of[query as usize] as usize - 1].is_empty());
    }

    /// Remove and return all buffered operations grouped by query, the
    /// groups sorted by query id — the lanes, emptied. Within a group the
    /// resident operations (heap, then run) come first, then the arrivals in
    /// arrival order (the kernel applies its own priority ordering). Lanes
    /// are grouped by construction, so `method` has nothing left to choose.
    pub fn drain_consolidated(
        &mut self,
        _method: ConsolidationMethod,
    ) -> Vec<(u32, Vec<Operation<V>>)> {
        let count = self.begin_visit();
        let mut groups = Vec::with_capacity(count);
        for i in 0..count {
            let (query, lane) = self.active_lane(i);
            let mut ops: Vec<Operation<V>> = Vec::with_capacity(lane.len());
            ops.extend(lane.heap.drain().map(|entry| entry.op));
            ops.append(&mut lane.run);
            ops.extend(lane.inbox.drain(..));
            lane.inbox_min = Priority::MAX;
            groups.push((query, ops));
        }
        self.end_visit();
        groups
    }
}

/// Per-worker staging area for the operations a query's visit sends to
/// *other* partitions: one reusable batch per target, handed on in one piece
/// when the query's visit ends (Line 16 of Algorithm 2, "send operations to
/// neighbour partitions in batches"), so a target's lane table — or its
/// mailbox lock — is touched once per batch instead of once per operation.
#[derive(Debug)]
pub(crate) struct RemoteScratch<V> {
    per_target: Vec<Vec<Operation<V>>>,
    /// Targets with a non-empty batch, in first-touch order.
    touched: Vec<PartitionId>,
}

impl<V: Copy> RemoteScratch<V> {
    /// Scratch for a graph of `num_partitions` partitions.
    pub(crate) fn new(num_partitions: usize) -> Self {
        RemoteScratch {
            per_target: (0..num_partitions).map(|_| Vec::new()).collect(),
            touched: Vec::new(),
        }
    }

    /// Stage `op` for partition `target`.
    #[inline]
    pub(crate) fn push(&mut self, target: PartitionId, op: Operation<V>) {
        let batch = &mut self.per_target[target as usize];
        if batch.is_empty() {
            self.touched.push(target);
        }
        batch.push(op);
    }

    /// Hand every staged batch to `deliver` (which must take all of it),
    /// leaving the scratch empty.
    pub(crate) fn flush(&mut self, mut deliver: impl FnMut(PartitionId, &mut Vec<Operation<V>>)) {
        for target in self.touched.drain(..) {
            let batch = &mut self.per_target[target as usize];
            deliver(target, batch);
            debug_assert!(batch.is_empty(), "deliver must drain the batch");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(query: u32, vertex: u32, priority: u64) -> Operation<u64> {
        Operation::new(query, vertex, priority, priority)
    }

    #[test]
    fn push_and_len_and_min_priority() {
        let mut b = PartitionBuffer::new(4);
        assert!(b.is_empty());
        assert_eq!(b.min_priority(), u64::MAX);
        b.push(op(0, 1, 30));
        b.push(op(5, 2, 10));
        b.push(op(2, 3, 20));
        assert_eq!(b.len(), 3);
        assert_eq!(b.min_priority(), 10);
        assert_eq!(b.active.len(), 3);
    }

    #[test]
    fn drain_consolidated_groups_by_query() {
        for method in [ConsolidationMethod::Sort, ConsolidationMethod::Scan] {
            let mut b = PartitionBuffer::new(3);
            b.push_batch([op(1, 10, 5), op(0, 11, 2), op(1, 12, 7), op(7, 13, 1), op(0, 14, 9)]);
            let groups = b.drain_consolidated(method);
            assert!(b.is_empty());
            assert_eq!(b.min_priority(), u64::MAX);
            let queries: Vec<u32> = groups.iter().map(|(q, _)| *q).collect();
            assert_eq!(queries, vec![0, 1, 7], "{method:?}");
            let q0 = &groups[0].1;
            assert_eq!(q0.len(), 2);
            assert!(q0.iter().all(|o| o.query == 0));
            let total: usize = groups.iter().map(|(_, ops)| ops.len()).sum();
            assert_eq!(total, 5);
        }
    }

    /// Run one visit of every active lane, popping up to `budget` operations
    /// from each; returns what was popped, in visit order.
    fn visit(b: &mut PartitionBuffer<u64>, ordered: bool, budget: usize) -> Vec<Operation<u64>> {
        let mut popped = Vec::new();
        for i in 0..b.begin_visit() {
            let (_, lane) = b.active_lane(i);
            if ordered {
                lane.merge_inbox(|_| false);
            }
            for _ in 0..budget {
                match lane.pop(ordered) {
                    Some(op) => popped.push(op),
                    None => break,
                }
            }
        }
        b.end_visit();
        popped
    }

    #[test]
    fn ordered_lanes_pop_by_priority_in_ascending_query_order() {
        let mut b = PartitionBuffer::new(1);
        b.push_batch([op(3, 1, 40), op(1, 2, 60), op(3, 3, 10), op(1, 4, 20)]);
        let order: Vec<(u32, u64)> =
            visit(&mut b, true, usize::MAX).iter().map(|o| (o.query, o.priority)).collect();
        assert_eq!(order, vec![(1, 20), (1, 60), (3, 10), (3, 40)]);
        assert!(b.is_empty());
        assert!(b.active.is_empty());
    }

    #[test]
    fn unordered_lanes_pop_in_arrival_order() {
        let mut b = PartitionBuffer::new(1);
        b.push_batch([op(0, 1, 40), op(0, 2, 10), op(0, 3, 30)]);
        let order: Vec<u32> = visit(&mut b, false, usize::MAX).iter().map(|o| o.vertex).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn a_yield_leaves_the_rest_resident_and_the_metadata_exact() {
        for ordered in [true, false] {
            let mut b = PartitionBuffer::new(1);
            b.push_batch([op(0, 1, 50), op(0, 2, 20), op(0, 3, 70), op(4, 9, 5)]);
            // Each lane stops after one operation, as a yield would.
            let first = visit(&mut b, ordered, 1);
            assert_eq!(first.len(), 2);
            assert_eq!(b.len(), 2, "ordered={ordered}: query 0 keeps two operations resident");
            assert_eq!(b.active.len(), 1, "ordered={ordered}: query 4's lane was retired");
            let expected_min = if ordered { 50 } else { 20 };
            assert_eq!(b.min_priority(), expected_min, "ordered={ordered}");
            // O(1): the lane answers from its heap top and running inbox
            // minimum, never by walking what is resident.
            let (_, lane) = b.active_lane(0);
            assert_eq!(lane.min_priority(), expected_min, "ordered={ordered}");
            // New arrivals join the resident operations on the next visit.
            b.push(op(0, 7, 1));
            assert_eq!(b.min_priority(), 1);
            assert_eq!(b.len(), 3);
            let rest = visit(&mut b, ordered, usize::MAX);
            assert_eq!(rest.len(), 3);
            if ordered {
                assert_eq!(rest[0].vertex, 7, "the arrival outranks the resident operations");
            }
            assert!(b.is_empty());
            assert_eq!(b.min_priority(), u64::MAX);
        }
    }

    #[test]
    fn grown_lanes_give_capacity_back() {
        let mut lane: Lane<u64> = Lane::default();
        for i in 0..1000 {
            lane.push_inbox(op(0, i, 2 * i as u64));
            lane.push_local(true, op(0, i, 2 * i as u64 + 1));
        }
        lane.merge_inbox(|_| false);
        assert_eq!(lane.len(), 2000);
        assert!(lane.inbox.capacity() <= RESIDENT_SLACK, "a merged inbox releases its buffer");
        // A yield with most of the lane still resident keeps the heap and the
        // run as they are.
        for _ in 0..200 {
            lane.pop(true);
        }
        let (heap, run) = (lane.heap.capacity(), lane.run.capacity());
        lane.trim();
        assert_eq!((lane.heap.capacity(), lane.run.capacity()), (heap, run));
        // Once the lane has mostly drained, half the slack goes back.
        while lane.len() > 100 {
            lane.pop(true);
        }
        lane.trim();
        assert!(lane.heap.capacity() < heap / 4, "the heap gives capacity back");
        assert!(lane.run.capacity() < run / 4, "the run gives capacity back");
        assert!(lane.heap.capacity() >= lane.heap.len() && lane.run.capacity() >= lane.run.len());
        assert_eq!(lane.pop(true).unwrap().priority, 1900);
    }

    /// The reference a lane must match: one heap of everything pushed,
    /// from which the arrivals a merge dropped are skipped.
    struct Reference {
        heap: BinaryHeap<HeapEntry<u64>>,
        dropped: Vec<u64>,
    }

    impl Reference {
        fn skip_dropped(&mut self) {
            while let Some(top) = self.heap.peek() {
                let Some(at) = self.dropped.iter().position(|&id| id == top.op.value) else {
                    break;
                };
                self.dropped.swap_remove(at);
                self.heap.pop();
            }
        }

        fn pop(&mut self) -> Option<Operation<u64>> {
            self.skip_dropped();
            self.heap.pop().map(|entry| entry.op)
        }

        fn min_priority(&mut self) -> Priority {
            self.skip_dropped();
            self.heap.peek().map_or(Priority::MAX, |entry| entry.op.priority)
        }
    }

    /// Seeded interleavings of arrivals, merges, local pushes and partial
    /// drains (yields): an ordered lane pops the `(priority, vertex)`
    /// sequence of one `BinaryHeap<HeapEntry>` holding every operation, less
    /// the arrivals a merge found dead. Liveness follows min-relaxation —
    /// an operation is dead once its vertex's entry falls below its
    /// priority, and entries only fall — so a dropped arrival would have been
    /// pruned when popped.
    #[test]
    fn lane_pops_in_the_order_of_one_heap_under_any_interleaving() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let mut rng = SmallRng::seed_from_u64(43);
        let mut dropped_in_all_cases = 0;
        for case in 0..300 {
            let drop_dead = case % 2 == 1;
            let mut lane: Lane<u64> = Lane::default();
            let mut reference = Reference { heap: BinaryHeap::new(), dropped: Vec::new() };
            let mut entry = [Priority::MAX; 8];
            // Operation values are unique ids, so a dropped arrival can be
            // told from a live one with the same `(priority, vertex)`.
            let mut next_id = 0u64;
            let mut new_op = |rng: &mut SmallRng, entry: &mut [Priority; 8]| {
                let vertex = rng.gen_range(0u32..8);
                let priority = rng.gen_range(0u64..24);
                entry[vertex as usize] = entry[vertex as usize].min(priority);
                next_id += 1;
                Operation::new(0, vertex, next_id, priority)
            };
            for _visit in 0..rng.gen_range(1usize..12) {
                // Between visits: arrivals, and entries falling elsewhere.
                for _ in 0..rng.gen_range(0usize..10) {
                    let op = new_op(&mut rng, &mut entry);
                    lane.push_inbox(op);
                    reference.heap.push(HeapEntry { op });
                }
                for _ in 0..rng.gen_range(0usize..3) {
                    let vertex = rng.gen_range(0usize..8);
                    entry[vertex] = entry[vertex].min(rng.gen_range(0u64..24));
                }
                // Visit start.
                let mut condemned = Vec::new();
                let dropped = lane.merge_inbox(|op| {
                    let dead = drop_dead && op.priority > entry[op.vertex as usize];
                    if dead {
                        condemned.push(op.value);
                    }
                    dead
                });
                assert_eq!(dropped, condemned.len() as u64, "case {case}: the merge's count");
                dropped_in_all_cases += dropped;
                reference.dropped.extend(&condemned);
                // The visit: pops with local pushes between them, stopped
                // early (a yield) or run until the lane is empty.
                let budget = if rng.gen_bool(0.5) { rng.gen_range(0usize..6) } else { usize::MAX };
                let mut popped = 0;
                while popped < budget {
                    if rng.gen_bool(0.5) {
                        let op = new_op(&mut rng, &mut entry);
                        lane.push_local(true, op);
                        reference.heap.push(HeapEntry { op });
                    }
                    let (got, want) = (lane.pop(true), reference.pop());
                    assert_eq!(got.map(|o| key(&o)), want.map(|o| key(&o)), "case {case}");
                    let Some(got) = got else { break };
                    assert!(!condemned.contains(&got.value), "case {case}: a dead arrival popped");
                    popped += 1;
                }
                lane.trim();
                assert_eq!(lane.min_priority(), reference.min_priority(), "case {case}");
            }
            // Drain what the last yield left.
            lane.merge_inbox(|_| false);
            loop {
                let (got, want) = (lane.pop(true), reference.pop());
                assert_eq!(got.map(|o| key(&o)), want.map(|o| key(&o)), "case {case}");
                if got.is_none() {
                    break;
                }
            }
            assert!(lane.is_empty());
        }
        assert!(dropped_in_all_cases > 100, "the cases drop dead arrivals");
    }

    #[test]
    fn local_pushes_land_where_the_visit_pops() {
        for ordered in [true, false] {
            let mut lane: Lane<u64> = Lane::default();
            lane.push_local(ordered, op(0, 1, 30));
            lane.push_local(ordered, op(0, 2, 10));
            assert_eq!(lane.len(), 2);
            assert_eq!(lane.min_priority(), 10);
            assert_eq!(lane.pop(ordered).unwrap().vertex, if ordered { 2 } else { 1 });
        }
    }

    #[test]
    fn drain_on_empty_buffer_is_empty() {
        let mut b: PartitionBuffer<u64> = PartitionBuffer::new(8);
        assert!(b.drain_consolidated(ConsolidationMethod::Sort).is_empty());
    }

    #[test]
    fn remote_scratch_batches_per_target_in_first_touch_order() {
        let mut scratch: RemoteScratch<u64> = RemoteScratch::new(4);
        scratch.push(2, op(0, 1, 1));
        scratch.push(0, op(0, 2, 2));
        scratch.push(2, op(0, 3, 3));
        let mut seen = Vec::new();
        scratch.flush(|target, batch| seen.push((target, batch.drain(..).count())));
        assert_eq!(seen, vec![(2, 2), (0, 1)]);
        scratch.flush(|_, _| panic!("flushed scratch is empty"));
    }

    #[test]
    fn unordered_lane_minimum_is_a_lower_bound_until_the_inbox_empties() {
        let mut lane: Lane<u64> = Lane::default();
        for (vertex, priority) in [(1, 10), (2, 40), (3, 30)] {
            lane.push_local(false, op(0, vertex, priority));
        }
        assert_eq!(lane.min_priority(), 10);
        lane.pop(false);
        // The true minimum is now 30; the running one still says 10.
        assert_eq!(lane.min_priority(), 10);
        lane.pop(false);
        lane.pop(false);
        assert_eq!(lane.min_priority(), u64::MAX);
        lane.push_local(false, op(0, 4, 25));
        assert_eq!(lane.min_priority(), 25);
    }
}
