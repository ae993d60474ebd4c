//! The run driver: Algorithm 2 on a crew of workers over disjoint partitions.
//!
//! Every engine run comes here, whatever its worker count. A run with one
//! worker (`num_threads == 1`, or a graph of one partition) runs the worker
//! loop on the calling thread — the paper's partition-at-a-time loop, picking
//! one LLC-sized partition after another. With more, the crew is dispatched
//! onto a persistent [`crate::pool::WorkerPool`] and *disjoint partitions are
//! processed concurrently*, each worker keeping its current partition
//! resident in its share of the LLC. Nothing else differs: one claim, one
//! visit and one post path serve both.
//!
//! Architecture:
//!
//! * **Mailboxes and lanes** — every partition owns a lock-striped mailbox
//!   (one stripe per worker, so concurrent senders never contend on a
//!   stripe) and, beside it, its per-query lanes
//!   ([`crate::buffer::PartitionBuffer`]). Remote operations are posted to
//!   the target partition's mailbox in one batch per target per visit; the
//!   lanes belong to whoever holds the partition's `Running` claim, who
//!   moves the mailbox's arrivals into them at visit start. A query that
//!   yields leaves its lane resident for the partition's next visit.
//! * **Runnable set** — the run has one set of claimable partitions behind
//!   one mutex, and every claim picks from all of it with the configured
//!   [`SchedulingPolicy`] — Algorithm 2's `ScheduleNextPart` (§5.2, Table
//!   4A; ties go by partition id, so a one-worker run's visit order repeats
//!   exactly). A worker that finds the set empty waits on one condvar until
//!   a partition is enqueued or the run ends.
//! * **Claim protocol** — a partition's mailbox carries an atomic state
//!   (`Idle → Queued → Running → Dirty`): posting to an idle partition
//!   enqueues it exactly once; posting to a running partition marks it dirty
//!   so the owning worker re-enqueues it when the visit ends. A partition is
//!   therefore never in the runnable set twice, and a query's visit to a
//!   partition stays exclusive.
//! * **Per-query state** stays single-writer: a worker locks `states[q]`
//!   for the duration of `q`'s visit, so kernels remain atomic-free
//!   sequential code.
//! * **Termination** — an ops-in-flight counter tracks every operation from
//!   the moment it is created until a visit has *consumed* it. Remote
//!   operations are counted before they are posted, and a visit's own
//!   balance (operations it pushed onto its lanes minus operations it
//!   executed) is applied after its remote batches went out, so the counter
//!   reaches zero exactly when every mailbox and every lane is empty and no
//!   visit is in progress; the crew then quiesces. A run with no seeds
//!   starts quiesced.
//! * **Storage** — a run builds its mailboxes and lanes (one stripe per
//!   worker) and each worker its routing scratch, and all of it is dropped
//!   when the run ends: the pool lends threads only.
//!
//! A visit (`RunState::visit`) is the whole of Algorithm 2's
//! `IntraPartProcess`: it moves the mailbox's arrivals into the lanes,
//! computes the visit's edge budget once ([`crate::YieldPolicy`]), runs each
//! active lane through `RunState::process_lane` and posts the remote batches
//! when the last lane is done. A worker processes its partition's lanes
//! *sequentially* in ascending query order (no nested intra-partition
//! parallelism): with many partitions in flight the crew is already
//! saturated, and per-visit thread teams would only thrash the cache the
//! partitioning fought to keep warm.
//!
//! The executor is generic over the run's [`FppKernel`]; kernels arriving
//! through the type-erased [`crate::dynkernel::DynKernel`] layer re-enter
//! [`ForkGraphEngine::run`] with the concrete type, so they pay no
//! per-operation erasure cost here.
//!
//! Result equivalence: SSSP and BFS relax monotonically to a unique fixpoint,
//! so every worker count and scheduling policy lands on the same states as
//! `fg-seq`'s Dijkstra and BFS (property-tested in
//! `tests/parallel_equivalence.rs`). PPR's lazy forward-push is *not*
//! confluent — its quiescent state depends on operation grouping even on one
//! worker (two policies already differ) — so equivalence there is the ACL
//! approximation guarantee, not bitwise equality.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, AtomicUsize, Ordering};

use parking_lot::{Condvar, Mutex};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use fg_cachesim::GraphAccessTracer;
use fg_graph::partition::PartitionId;
use fg_metrics::{Stopwatch, WorkSnapshot, WorkerSnapshot};
use fg_trace::{EventKind, Histogram, PhaseTimes, RunProfile};

use crate::buffer::{Lane, PartitionBuffer, RemoteScratch, RESIDENT_SLACK};
use crate::engine::{ForkGraphEngine, ForkGraphRunResult};
use crate::kernel::FppKernel;
use crate::operation::{Operation, Priority};
use crate::pool::WorkerPool;
use crate::sched::{select_by_policy, SchedKey, SchedulingPolicy};

/// Mailbox states of the claim protocol.
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const DIRTY: u8 = 3;

/// A count as a trace-event payload field, saturating.
fn event_field(count: u64) -> u32 {
    u32::try_from(count).unwrap_or(u32::MAX)
}

/// A partition's sharded, lock-striped mailbox — one stripe per worker, so
/// concurrent senders append without contending with each other — and,
/// beside it, the partition's resident per-query lanes. `len`,
/// `min_priority`, and `stamp` cover both (arrivals waiting in the stripes
/// plus operations resident in the lanes) and are scheduling *hints*
/// (approximate under concurrent pushes — a stale minimum only makes the
/// partition look more urgent); correctness never depends on them.
struct Mailbox<V> {
    stripes: Vec<Mutex<Vec<Operation<V>>>>,
    /// The partition's lanes. Only the holder of the `Running` claim locks
    /// this, once per visit; the mutex is what lets that be safe code.
    lanes: Mutex<PartitionBuffer<V>>,
    len: AtomicUsize,
    min_priority: AtomicU64,
    stamp: AtomicU64,
    state: AtomicU8,
}

impl<V: Copy> Mailbox<V> {
    fn new(num_stripes: usize) -> Self {
        Mailbox {
            stripes: (0..num_stripes).map(|_| Mutex::new(Vec::new())).collect(),
            lanes: Mutex::new(PartitionBuffer::default()),
            len: AtomicUsize::new(0),
            min_priority: AtomicU64::new(Priority::MAX),
            stamp: AtomicU64::new(0),
            state: AtomicU8::new(IDLE),
        }
    }

    /// Append a batch (all of `ops`) to stripe `stripe`.
    fn push_batch(&self, stripe: usize, ops: &mut Vec<Operation<V>>) {
        let best = ops.iter().map(|op| op.priority).min().unwrap_or(Priority::MAX);
        // Count before publishing: a drain racing this push then sees `len`
        // as an overestimate (harmless hint skew) instead of underflowing
        // `fetch_sub` to ~usize::MAX, which would make the MaxOperations
        // policy chase a near-empty partition.
        self.len.fetch_add(ops.len(), Ordering::Relaxed);
        self.min_priority.fetch_min(best, Ordering::Relaxed);
        self.stripes[stripe].lock().append(ops);
    }

    /// Move every arrival into `lanes`, one stripe at a time under that
    /// stripe's lock (a lane push is a single tail write); returns how many
    /// there were. Pushes racing the drain land in either this visit or (via
    /// the `Dirty` state) the next one. What a stripe carried now lives in
    /// the lanes, so a grown stripe gives its buffer back, as a merged lane
    /// inbox does, rather than hold a second copy of the partition's peak
    /// arrivals until its next visit.
    fn drain_into(&self, lanes: &mut PartitionBuffer<V>) -> u64 {
        self.min_priority.store(Priority::MAX, Ordering::Relaxed);
        let mut moved = 0;
        for stripe in &self.stripes {
            let mut stripe = stripe.lock();
            moved += stripe.len() as u64;
            lanes.push_batch(stripe.drain(..));
            if stripe.capacity() > RESIDENT_SLACK {
                *stripe = Vec::new();
            }
        }
        moved
    }

    /// Fold a finished visit into the hints: the lanes gained `emitted_local`
    /// operations that never passed through the stripes and lost `consumed`.
    fn note_visit(&self, emitted_local: u64, consumed: u64, lanes: &PartitionBuffer<V>) {
        self.len.fetch_add(emitted_local as usize, Ordering::Relaxed);
        self.len.fetch_sub(consumed as usize, Ordering::Relaxed);
        self.min_priority.fetch_min(lanes.min_priority(), Ordering::Relaxed);
    }

    fn sched_key(&self, partition: PartitionId) -> SchedKey {
        SchedKey {
            partition,
            len: self.len.load(Ordering::Relaxed),
            priority: self.min_priority.load(Ordering::Relaxed),
            stamp: self.stamp.load(Ordering::Relaxed),
        }
    }
}

/// The run's one runnable set and the workers waiting for it to fill.
struct Runnable {
    /// Claimable partitions; a partition id appears at most once.
    partitions: Vec<PartitionId>,
    /// Workers waiting on [`RunState::wakeup`].
    waiting: usize,
    /// Set once, by [`RunState::finish`]: no worker claims again.
    done: bool,
    /// What [`SchedulingPolicy::Random`] draws from, seeded with
    /// [`RANDOM_SEED`].
    rng: SmallRng,
}

/// Shared state of one run. (One instance per [`run`] call; the *threads*
/// that drive it are the caller's, or the [`WorkerPool`]'s for a crew.)
struct RunState<'e, 'g, K: FppKernel> {
    engine: &'e ForkGraphEngine<'g>,
    kernel: &'e K,
    mailboxes: Vec<Mailbox<K::Value>>,
    states: Vec<Mutex<K::State>>,
    runnable: Mutex<Runnable>,
    /// Notified when a partition is enqueued while a worker waits, and when
    /// the run ends.
    wakeup: Condvar,
    policy: SchedulingPolicy,
    /// Operations created (posted to a mailbox or pushed onto a lane) but
    /// not yet consumed by a completed visit.
    in_flight: AtomicI64,
    next_stamp: AtomicU64,
    tracer: &'e GraphAccessTracer,
    num_queries: usize,
}

/// Ends the run if its worker panics, so a kernel panic fails the run
/// instead of leaving the rest of the crew waiting.
struct PanicReaper<'p, 'e, 'g, K: FppKernel>(&'p RunState<'e, 'g, K>);

impl<K: FppKernel> Drop for PanicReaper<'_, '_, '_, K> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.finish();
        }
    }
}

impl<'e, 'g, K: FppKernel> RunState<'e, 'g, K> {
    /// Post a batch (all of `ops`) to partition `p`'s mailbox from worker
    /// `stripe` and make the partition runnable. The in-flight increment
    /// happens *before* the operations are visible so the termination
    /// counter can never under-count.
    fn post(&self, stripe: usize, p: usize, ops: &mut Vec<Operation<K::Value>>) {
        self.in_flight.fetch_add(ops.len() as i64, Ordering::SeqCst);
        self.mailboxes[p].push_batch(stripe, ops);
        self.make_runnable(p);
    }

    /// Drive partition `p` to the `Queued` state (enqueuing it exactly once)
    /// or mark a running visit `Dirty` so its owner re-enqueues it.
    fn make_runnable(&self, p: usize) {
        let state = &self.mailboxes[p].state;
        loop {
            match state.load(Ordering::Acquire) {
                IDLE => {
                    if state
                        .compare_exchange(IDLE, QUEUED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        self.enqueue(p);
                        return;
                    }
                }
                RUNNING => {
                    if state
                        .compare_exchange(RUNNING, DIRTY, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return;
                    }
                }
                // QUEUED or DIRTY: a wakeup is already pending.
                _ => return,
            }
        }
    }

    fn enqueue(&self, p: usize) {
        self.mailboxes[p]
            .stamp
            .store(self.next_stamp.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
        let mut runnable = self.runnable.lock();
        runnable.partitions.push(p as PartitionId);
        // A waiter checked the set under this lock before it waited, so it
        // is inside `wait` now and receives the notify.
        if runnable.waiting > 0 {
            self.wakeup.notify_one();
        }
    }

    /// Claim the next partition: the policy's pick among every runnable
    /// one, waiting while there is none. `None` once the run is done.
    fn claim(&self, w: usize, stats: &mut WorkerSnapshot) -> Option<usize> {
        let mut runnable = self.runnable.lock();
        loop {
            if runnable.done {
                return None;
            }
            let Runnable { partitions, rng, .. } = &mut *runnable;
            let pick = select_by_policy(self.policy, rng, partitions.len(), |i| {
                self.mailboxes[partitions[i] as usize].sched_key(partitions[i])
            });
            if let Some(pos) = pick {
                let p = partitions.swap_remove(pos) as usize;
                drop(runnable);
                self.engine.emit_trace(EventKind::Claim, p as u32, w as u32, 0);
                return Some(p);
            }
            stats.idle_waits += 1;
            runnable.waiting += 1;
            self.engine.emit_trace(EventKind::Park, w as u32, 1, 0);
            self.wakeup.wait(&mut runnable);
            self.engine.emit_trace(EventKind::Unpark, w as u32, 1, 0);
            runnable.waiting -= 1;
        }
    }

    /// End the run: set `done` and wake every waiting worker. Called by the
    /// visit that brings `in_flight` to zero and by [`PanicReaper`].
    fn finish(&self) {
        self.runnable.lock().done = true;
        self.wakeup.notify_all();
    }

    /// One partition visit: move the mailbox's arrivals into the lanes,
    /// process every active lane under its query's state lock, post the
    /// remote batches once the last lane is done, update the termination
    /// counter, and run the `Running → Idle | Queued` epilogue. The visit is
    /// counted into the worker's own `stats` and, when the run is profiling,
    /// its size into `visit_ops`; `remote` is the worker's reusable routing
    /// scratch.
    fn visit(
        &self,
        w: usize,
        p: usize,
        stats: &mut WorkerSnapshot,
        visit_ops: &mut Histogram,
        remote: &mut RemoteScratch<K::Value>,
    ) {
        let mailbox = &self.mailboxes[p];
        mailbox.state.store(RUNNING, Ordering::Release);
        let mut lanes = mailbox.lanes.lock();
        let arrived = mailbox.drain_into(&mut lanes);
        self.engine.emit_trace(EventKind::MailboxDrain, p as u32, event_field(arrived), w as u32);

        let total = lanes.len();
        if total > 0 {
            stats.visits += 1;
            if self.engine.config().profile {
                visit_ops.record(total as u64);
            }
            let active = lanes.begin_visit();
            self.engine.emit_trace(
                EventKind::PartitionVisitBegin,
                p as u32,
                event_field(total as u64),
                event_field(active as u64),
            );
            let partition = p as PartitionId;
            let edge_budget = self.engine.config().yield_policy.visit_budget::<K>(
                self.engine.partitioned_graph(),
                partition,
                self.num_queries,
            );
            let executed_before = stats.operations;
            let mut emitted_local = 0;
            for i in 0..active {
                let (query, lane) = lanes.active_lane(i);
                emitted_local +=
                    self.process_lane(partition, edge_budget, query, lane, remote, stats);
            }
            let consumed = stats.operations - executed_before;
            // Send operations to neighbour partitions in batches (Line 16),
            // one per target for the whole visit: a target's lanes are per
            // query and untouched until its own visit, so sending after the
            // last lane instead of after each one changes no lane's contents
            // or order, and pays each target's post cost once.
            remote.flush(|target, batch| self.post(w, target as usize, batch));
            lanes.end_visit();
            mailbox.note_visit(emitted_local, consumed, &lanes);
            // The consumed operations leave the system only now, after their
            // successors were posted (remote) or counted here (local); a zero
            // is global quiescence.
            let balance = emitted_local as i64 - consumed as i64;
            if self.in_flight.fetch_add(balance, Ordering::SeqCst) + balance == 0 {
                self.finish();
            }
            self.engine.emit_trace(
                EventKind::PartitionVisitEnd,
                p as u32,
                event_field(consumed),
                event_field(emitted_local),
            );
        }
        let leftovers = !lanes.is_empty();
        drop(lanes);

        if leftovers {
            // Lanes that yielded keep the partition runnable whether or not
            // anything was posted meanwhile. Only this worker can leave
            // `Running`/`Dirty`, and a poster that now finds `Queued` knows a
            // wakeup is pending, so the partition is enqueued exactly once.
            mailbox.state.store(QUEUED, Ordering::Release);
            self.enqueue(p);
            return;
        }
        loop {
            match mailbox.state.compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(DIRTY) => {
                    if mailbox
                        .state
                        .compare_exchange(DIRTY, QUEUED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        self.enqueue(p);
                        break;
                    }
                }
                Err(other) => unreachable!("mailbox in state {other} during visit epilogue"),
            }
        }
    }

    /// Process `query`'s lane within the visit of `partition`.
    ///
    /// With consolidation the lane's new arrivals are checked against the
    /// query's state ([`FppKernel::is_dead`]), the dead ones dropped and the
    /// rest sorted and merged into its resident run, and operations are
    /// popped in `(priority, vertex)` order from the run and the heap of the
    /// lane's own pushes; without it, in arrival order. Once the lane has
    /// processed more edges than `edge_budget` it yields instead of popping
    /// again; a **yield just stops** — what the lane still holds stays
    /// resident for the next visit. An operation the kernel emits is
    /// appended once to where it will be popped from: this lane if its
    /// vertex lives in this partition, else the `remote` batch of its target
    /// (which [`Self::visit`] posts when the last lane is done). The work is
    /// counted into the worker's own `stats`; the return value is the number
    /// of operations pushed onto this lane, which never pass through a
    /// mailbox. Only a kernel that prunes ([`FppKernel::PRUNES`]) has its
    /// arrivals checked or yields.
    fn process_lane(
        &self,
        partition: PartitionId,
        edge_budget: u64,
        query: u32,
        lane: &mut Lane<K::Value>,
        remote: &mut RemoteScratch<K::Value>,
        stats: &mut WorkerSnapshot,
    ) -> u64 {
        let (engine, kernel, tracer) = (self.engine, self.kernel, self.tracer);
        let pg = engine.partitioned_graph();
        let ordered = engine.config().consolidate;
        let mut state = self.states[query as usize].lock();
        let state = &mut *state;

        // Adjacency for this visit: raw partitions borrow the monolithic CSR,
        // compressed partitions stream-decode their varint payload per vertex.
        let view = pg.adjacency_view(partition);
        if view.is_compressed() {
            engine.emit_trace(EventKind::PartitionDecode, query, partition, 0);
        }

        stats.lane_visits += 1;
        if ordered {
            // An arrival a pruning kernel already knows is dead is executed
            // here, as a pruned operation, instead of being sorted in and
            // popped. The check reads the arrival's state entry, so the cache
            // model is charged one state read per arrival checked; other
            // kernels merge with no check and no read.
            let dead = lane.merge_inbox(|op| {
                K::PRUNES && {
                    tracer.state_read(query as usize, op.vertex as u64);
                    kernel.is_dead(state, op.vertex, op.priority)
                }
            });
            stats.operations += dead;
            stats.pruned += dead;
        }
        let mut emitted_local = 0u64;
        let mut edges_this_visit = 0u64;
        while let Some(op) = lane.pop(ordered) {
            let vertex = op.vertex;
            let edges = kernel.process(
                &view,
                state,
                vertex,
                op.value,
                op.priority,
                &mut |t, value, priority| {
                    let new_op = Operation::new(query, t, value, priority);
                    let target_partition = pg.partition_of(t);
                    if target_partition == partition {
                        lane.push_local(ordered, new_op);
                        emitted_local += 1;
                    } else {
                        remote.push(target_partition, new_op);
                    }
                    stats.emitted += 1;
                },
            );
            stats.operations += 1;
            stats.edges += edges;
            stats.pruned += u64::from(edges == 0);
            edges_this_visit += edges;

            if tracer.is_enabled() {
                if edges > 0 {
                    // Compressed visits stream far fewer payload bytes per
                    // vertex than the raw CSR slice, so they are charged the
                    // (smaller) encoded byte range instead of the CSR lines.
                    if let Some((start, end)) = view.decode_byte_range(vertex) {
                        tracer.compressed_scan(partition as u64, vertex as u64, start, end);
                    } else {
                        let graph = pg.graph();
                        tracer.adjacency_scan(
                            graph.adjacency_offset(vertex),
                            graph.out_degree(vertex),
                        );
                    }
                    tracer.state_write(query as usize, vertex as u64);
                    let ids: Vec<u64> = view.out_neighbors(vertex).map(|v| v as u64).collect();
                    tracer.state_read_batch(query as usize, &ids);
                } else {
                    tracer.state_read(query as usize, vertex as u64);
                }
            }
            if edges_this_visit > edge_budget && !lane.is_empty() {
                stats.yields += 1;
                engine.emit_trace(EventKind::Yield, query, partition, 0);
                break;
            }
        }
        lane.trim();
        emitted_local
    }

    /// One worker's drive of the run to quiescence; returns the worker's
    /// tally and its visit sizes (empty unless the run is profiling).
    fn worker_loop(&self, w: usize) -> (WorkerSnapshot, Histogram) {
        let mut remote = RemoteScratch::new(self.mailboxes.len());
        let _reaper = PanicReaper(self);
        let mut stats = WorkerSnapshot { worker: w as u32, ..Default::default() };
        let mut visit_ops = Histogram::default();
        while let Some(p) = self.claim(w, &mut stats) {
            self.visit(w, p, &mut stats, &mut visit_ops, &mut remote);
        }
        (stats, visit_ops)
    }
}

/// Seed of every run's scheduling RNG; only [`SchedulingPolicy::Random`]
/// draws from it.
const RANDOM_SEED: u64 = 7;

/// Drive `kernel` from `seeds` — operations on queries `0..states.len()` —
/// to quiescence with `num_workers` inter-partition workers, and return the
/// states, measurement and profile: the one run pipeline behind every
/// [`ForkGraphEngine`] run. One worker runs the worker loop on the calling
/// thread; a crew is dispatched onto `pool`. The run's storage is built
/// here and dropped on return.
pub(crate) fn run<K: FppKernel>(
    engine: &ForkGraphEngine<'_>,
    kernel: &K,
    states: Vec<K::State>,
    seeds: Vec<Operation<K::Value>>,
    num_workers: usize,
    pool: Option<&WorkerPool>,
    watch: Stopwatch,
) -> ForkGraphRunResult<K::State> {
    let pg = engine.partitioned_graph();
    let config = *engine.config();
    let num_partitions = pg.num_partitions();
    let num_queries = states.len();
    let tracer = match config.cache {
        Some(cache) => GraphAccessTracer::new(cache),
        None => GraphAccessTracer::disabled(),
    };
    engine.emit_trace(EventKind::RunBegin, num_queries as u32, num_workers as u32, 0);

    let run: RunState<'_, '_, K> = RunState {
        engine,
        kernel,
        mailboxes: (0..num_partitions).map(|_| Mailbox::new(num_workers)).collect(),
        states: states.into_iter().map(Mutex::new).collect(),
        runnable: Mutex::new(Runnable {
            partitions: Vec::new(),
            waiting: 0,
            // With nothing seeded the states are already the answer.
            done: seeds.is_empty(),
            rng: SmallRng::seed_from_u64(RANDOM_SEED),
        }),
        wakeup: Condvar::new(),
        policy: config.scheduling,
        in_flight: AtomicI64::new(0),
        next_stamp: AtomicU64::new(0),
        tracer: &tracer,
        num_queries,
    };

    // InitBuffers(P, Q).
    let num_seeds = seeds.len() as u64;
    let mut seed = Vec::with_capacity(1);
    for op in seeds {
        seed.push(op);
        run.post(0, pg.partition_of(op.vertex) as usize, &mut seed);
    }
    let init_done = watch.elapsed();

    let mut tallies = if num_workers == 1 {
        vec![run.worker_loop(0)]
    } else {
        let pool = pool.expect("a crew of more than one worker runs on a pool");
        let tallies = Mutex::new(Vec::with_capacity(num_workers));
        pool.dispatch(num_workers, &|w| {
            let tally = run.worker_loop(w);
            tallies.lock().push(tally);
        });
        tallies.into_inner()
    };
    tallies.sort_by_key(|(stats, _)| stats.worker);
    let main_done = watch.elapsed();

    debug_assert_eq!(run.in_flight.load(Ordering::SeqCst), 0, "run quiesced with ops in flight");
    let per_query: Vec<K::State> = run.states.into_iter().map(|m| m.into_inner()).collect();
    let mut visit_ops = Histogram::default();
    for (_, worker_visits) in &tallies {
        visit_ops.merge(worker_visits);
    }
    let workers = tallies.into_iter().map(|(stats, _)| stats).collect();
    let work = WorkSnapshot::from_workers(workers, num_seeds, num_queries as u64);
    let measurement = engine.build_measurement(watch.elapsed(), work, &tracer);
    engine.emit_trace(EventKind::RunEnd, num_queries as u32, num_workers as u32, 0);
    let profile = config.profile.then(|| RunProfile {
        phases: PhaseTimes {
            init: init_done,
            processing: main_done.saturating_sub(init_done),
            finalize: measurement.wall_time.saturating_sub(main_done),
        },
        visit_ops,
    });
    ForkGraphRunResult { per_query, measurement, profile }
}

#[cfg(test)]
mod tests {
    use fg_graph::partition::{PartitionConfig, PartitionMethod};
    use fg_graph::partitioned::PartitionedGraph;
    use fg_graph::{gen, Dist};

    use crate::engine::EngineConfig;
    use crate::ForkGraphEngine;

    fn partitioned(parts: usize) -> (fg_graph::CsrGraph, PartitionedGraph) {
        let g = gen::rmat(10, 6, 77).with_random_weights(9, 77);
        let pg = PartitionedGraph::build(
            &g,
            PartitionConfig::with_partitions(PartitionMethod::Multilevel, parts),
        );
        (g, pg)
    }

    #[test]
    fn every_worker_count_matches_dijkstra() {
        let (g, pg) = partitioned(12);
        let sources: Vec<u32> = vec![0, 17, 301, 555];
        let oracle: Vec<Vec<Dist>> =
            sources.iter().map(|&s| fg_seq::dijkstra::dijkstra(&g, s).dist).collect();
        for threads in [1, 4] {
            let config = EngineConfig::default().with_threads(threads);
            let result = ForkGraphEngine::new(&pg, config).run_sssp(&sources);
            assert_eq!(result.per_query, oracle, "{threads} workers");
        }
    }

    #[test]
    fn every_run_reports_per_worker_stats() {
        let (_, pg) = partitioned(8);
        let sources = [0, 5, 9, 100];
        let one_worker = ForkGraphEngine::new(&pg, EngineConfig::default()).run_bfs(&sources);
        for threads in [1, 3] {
            let config = EngineConfig::default().with_threads(threads);
            let result = ForkGraphEngine::new(&pg, config).run_bfs(&sources);
            let work = result.work();
            assert_eq!(work.workers.len(), threads);
            let visits: u64 = work.workers.iter().map(|w| w.visits).sum();
            assert_eq!(visits, work.partition_visits);
            // Every executed operation is executed by exactly one worker, and
            // a quiesced run has executed every operation it ever buffered.
            let ops: u64 = work.workers.iter().map(|w| w.operations).sum();
            assert_eq!(ops, work.operations_processed);
            assert_eq!(work.operations_processed, work.operations_buffered);
            assert_eq!(result.per_query, one_worker.per_query);
        }
        // One worker never waits.
        assert_eq!(one_worker.work().idle_waits, 0);
    }

    #[test]
    fn single_partition_runs_one_worker() {
        let g = gen::rmat(8, 5, 3).with_random_weights(6, 3);
        let pg = PartitionedGraph::build(
            &g,
            PartitionConfig::with_partitions(PartitionMethod::Multilevel, 1),
        );
        let engine = ForkGraphEngine::new(&pg, EngineConfig::default().with_threads(8));
        let result = engine.run_sssp(&[0, 2]);
        // A crew is capped at one worker per partition, and one worker runs
        // on the calling thread: no pool is created for it.
        assert_eq!(result.work().workers.len(), 1);
        assert!(engine.worker_pool().is_none());
        assert_eq!(result.per_query[0], fg_seq::dijkstra::dijkstra(&g, 0).dist);
    }

    #[test]
    fn parallel_with_cache_simulation_reports_cache_numbers() {
        let (_, pg) = partitioned(6);
        let config = EngineConfig::default()
            .with_threads(4)
            .with_cache(fg_cachesim::CacheConfig::tiny(64 * 1024));
        let result = ForkGraphEngine::new(&pg, config).run_sssp(&[0, 1, 2]);
        let cache = result.measurement.cache.unwrap();
        assert!(cache.accesses > 0);
    }
}
