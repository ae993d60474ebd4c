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
//! A lane is a resident heap plus an append-only inbox. Operations arriving
//! from other partitions wait in the target's mailbox stripes
//! ([`crate::executor`]) until the partition's own claimant empties them
//! onto its lanes' inboxes at the start of its visit; the visit then merges
//! each inbox into its heap in one `extend` and pops; operations a visit
//! emits to its own partition go straight onto the heap. A **yield just
//! stops**: whatever the heap still holds stays where it is for the next
//! visit.
//!
//! The inbox is not there to spare a cold partition heap traffic — the
//! drain and the merge both happen in the visit, with the partition about
//! to be resident. It stays because pushing arrivals straight onto the heap
//! bought nothing: on `fgbench`'s `fpp-social-resident` (2-core Xeon, seed
//! 42, 10 alternating pairs) batch time was within noise either way, and
//! without the inbox single-query latency rose 5 % (p50 and p90) and peak
//! RSS 2.4 %.
//!
//! A run's buffers live beside its executor mailboxes, one per partition.
//! Lanes, the lane table and the active-lane list are reused for the whole
//! run (and across runs when the mailboxes come from a
//! [`crate::pool::WorkerPool`]'s arena). A visit of small lanes allocates
//! nothing; large ones grow and give back capacity with the usual amortised
//! policy, so allocations are proportional to operations —
//! never to yields — and the footprint follows the live operations.

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

/// One query's pending operations in one partition: a resident priority heap
/// plus an inbox of arrivals since the query's last visit here.
///
/// With query-centric consolidation on, a visit first merges the inbox into
/// the heap and then pops in `(priority, vertex)` order. With it off (the
/// "+buffer" ablation) the heap stays unused and the inbox is the whole lane,
/// popped in arrival order.
#[derive(Clone, Debug)]
pub(crate) struct Lane<V> {
    heap: BinaryHeap<HeapEntry<V>>,
    inbox: VecDeque<Operation<V>>,
    /// Lowest priority appended to the inbox since it was last empty.
    inbox_min: Priority,
}

impl<V> Default for Lane<V> {
    fn default() -> Self {
        Lane { heap: BinaryHeap::new(), inbox: VecDeque::new(), inbox_min: Priority::MAX }
    }
}

impl<V: Copy> Lane<V> {
    /// Pending operations (resident + arrived).
    pub fn len(&self) -> usize {
        self.heap.len() + self.inbox.len()
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.inbox.is_empty()
    }

    /// Best (lowest) pending priority, `Priority::MAX` when empty; `O(1)`.
    /// Exact for an ordered lane. An unordered lane pops its inbox from the
    /// front without looking for the minimum, so there this is a lower bound
    /// — a lane that looks a little more urgent than it is — until the inbox
    /// next runs empty.
    pub fn min_priority(&self) -> Priority {
        let resident = self.heap.peek().map_or(Priority::MAX, |entry| entry.op.priority);
        resident.min(self.inbox_min)
    }

    /// Append an arrival to the inbox.
    #[inline]
    fn push_inbox(&mut self, op: Operation<V>) {
        self.inbox_min = self.inbox_min.min(op.priority);
        self.inbox.push_back(op);
    }

    /// Drop everything pending, keeping the allocations.
    fn clear(&mut self) {
        self.heap.clear();
        self.inbox.clear();
        self.inbox_min = Priority::MAX;
    }

    /// Visit start of an ordered lane: move the arrivals onto the heap. The
    /// inbox's next use is some other partition's visit, arbitrarily far
    /// off, and what it carried now lives on the heap — so a grown inbox
    /// gives its buffer back rather than keeping a second copy of the lane's
    /// peak capacity (measured with `fgbench`, seeds 42–44: keeping it raises
    /// `fpp-social-resident`'s peak RSS — 32 SSSP queries over 24 partitions
    /// — from 32.6–33.4 to 35.9–38.8 MiB; `fpp-ppr-resident`, whose lanes hold
    /// about one operation per push in flight, does not move).
    pub(crate) fn merge_inbox(&mut self) {
        self.heap.extend(self.inbox.drain(..).map(|op| HeapEntry { op }));
        self.inbox_min = Priority::MAX;
        if self.inbox.capacity() > RESIDENT_SLACK {
            self.inbox = VecDeque::new();
        }
    }

    /// Visit end: a heap that has shrunk to under a quarter of its capacity
    /// gives half of it back — the usual amortised-constant policy, so
    /// allocations stay proportional to operations, never to yields, while a
    /// run's footprint follows its live operations instead of the sum of
    /// every lane's historical peak.
    pub(crate) fn trim(&mut self) {
        if self.heap.capacity() > 4 * self.heap.len() + RESIDENT_SLACK {
            self.heap.shrink_to(2 * self.heap.len());
        }
    }

    /// Remove the next operation: best `(priority, vertex)` of an ordered
    /// lane (its inbox merged), oldest arrival otherwise.
    #[inline]
    pub(crate) fn pop(&mut self, ordered: bool) -> Option<Operation<V>> {
        if ordered {
            self.heap.pop().map(|entry| entry.op)
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

/// The operation buffer attached to one graph partition: a lane per query
/// with pending operations here.
///
/// Bookkeeping is `O(lanes + operations)`: a lane is created the first time
/// a query reaches the partition and reused for the rest of the run; the
/// only dense structure is the `query → lane` table of `u32` slots.
#[derive(Clone, Debug)]
pub struct PartitionBuffer<V> {
    /// Lane storage; the first `lanes_in_use` belong to this run's queries,
    /// the rest are empty lanes a recycled buffer carried over.
    lanes: Vec<Lane<V>>,
    lanes_in_use: usize,
    /// `query → lane index + 1`, `0` = the query has no lane here yet.
    lane_of: Vec<u32>,
    /// Queries whose lane is non-empty (between visits: exactly those).
    active: Vec<u32>,
    len: usize,
    min_priority: Priority,
}

impl<V> Default for PartitionBuffer<V> {
    fn default() -> Self {
        PartitionBuffer {
            lanes: Vec::new(),
            lanes_in_use: 0,
            lane_of: Vec::new(),
            active: Vec::new(),
            len: 0,
            min_priority: Priority::MAX,
        }
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

    /// Number of buffered operations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no operation is buffered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Best (lowest) priority among the buffered operations, or
    /// `Priority::MAX` when empty — the partition priority used by the
    /// priority-based scheduler. Folded over arrivals as they are pushed and
    /// recomputed from the lanes' minima when a visit ends: exact with
    /// ordered lanes, a lower bound in the unordered ablation.
    pub fn min_priority(&self) -> Priority {
        self.min_priority
    }

    /// Number of queries with pending operations.
    pub fn active_lanes(&self) -> usize {
        self.active.len()
    }

    /// Index of `query`'s lane, creating the lane on first contact.
    fn lane_index(&mut self, query: u32) -> usize {
        let q = query as usize;
        if q >= self.lane_of.len() {
            self.lane_of.resize(q + 1, 0);
        }
        if self.lane_of[q] == 0 {
            if self.lanes_in_use == self.lanes.len() {
                self.lanes.push(Lane::default());
            }
            self.lanes_in_use += 1;
            self.lane_of[q] = self.lanes_in_use as u32;
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
        self.len += 1;
        self.min_priority = self.min_priority.min(op.priority);
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
    /// so retire the emptied ones and recompute the scheduling metadata from
    /// what the lanes still hold.
    pub(crate) fn end_visit(&mut self) {
        let (lanes, lane_of) = (&self.lanes, &self.lane_of);
        let lane = |query: u32| &lanes[lane_of[query as usize] as usize - 1];
        self.active.retain(|&query| !lane(query).is_empty());
        self.len = self.active.iter().map(|&query| lane(query).len()).sum();
        self.min_priority = self
            .active
            .iter()
            .map(|&query| lane(query).min_priority())
            .min()
            .unwrap_or(Priority::MAX);
    }

    /// Forget every operation and the query → lane assignment (the next
    /// run's query ids mean something else), keeping the allocations: how a
    /// recycled buffer starts its next run.
    pub(crate) fn reset(&mut self) {
        for lane in &mut self.lanes[..self.lanes_in_use] {
            lane.clear();
        }
        self.lanes_in_use = 0;
        self.lane_of.clear();
        self.active.clear();
        self.len = 0;
        self.min_priority = Priority::MAX;
    }

    /// Remove and return all buffered operations grouped by query, the
    /// groups sorted by query id — the lanes, emptied. Within a group the
    /// resident operations come first, then the arrivals in arrival order
    /// (the kernel applies its own priority ordering). Lanes are grouped by
    /// construction, so `method` has nothing left to choose.
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
        assert_eq!(b.active_lanes(), 3);
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
                lane.merge_inbox();
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
        assert_eq!(b.active_lanes(), 0);
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
            assert_eq!(b.active_lanes(), 1, "ordered={ordered}: query 4's lane was retired");
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
            lane.push_inbox(op(0, i, i as u64));
        }
        lane.merge_inbox();
        assert_eq!(lane.len(), 1000);
        assert!(lane.inbox.capacity() <= RESIDENT_SLACK, "a merged inbox releases its buffer");
        // A yield with most of the lane still resident keeps the heap as is.
        for _ in 0..100 {
            lane.pop(true);
        }
        let grown = lane.heap.capacity();
        lane.trim();
        assert_eq!(lane.heap.capacity(), grown);
        // Once the lane has mostly drained, half the slack goes back.
        while lane.len() > 50 {
            lane.pop(true);
        }
        lane.trim();
        assert!(lane.heap.capacity() < grown / 4);
        assert!(lane.heap.capacity() >= lane.len());
        assert_eq!(lane.pop(true).unwrap().priority, 950);
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
    fn reset_buffer_behaves_like_a_fresh_one() {
        // Executor mailboxes recycle their buffers across runs, whose query
        // ids mean different things: a reset must drop the lane assignment.
        let input = [op(1, 10, 5), op(0, 11, 2), op(1, 12, 7)];
        let mut fresh = PartitionBuffer::new(4);
        fresh.push_batch(input);
        let expected = fresh.drain_consolidated(ConsolidationMethod::Sort);

        let mut reused = PartitionBuffer::new(4);
        reused.push_batch([op(9, 1, 1), op(3, 2, 2), op(9, 4, 8)]);
        reused.reset();
        assert!(reused.is_empty());
        assert_eq!(reused.active_lanes(), 0);
        assert_eq!(reused.min_priority(), u64::MAX);
        reused.push_batch(input);
        assert_eq!(reused.drain_consolidated(ConsolidationMethod::Sort), expected);
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
