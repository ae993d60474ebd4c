//! A persistent worker pool for the executor's crews.
//!
//! The one way a run with more than one worker gets its threads. Spawning and joining a crew
//! per engine run, and allocating its mailboxes, queues and scratch afresh,
//! is a small-batch tail-latency cost on the fg-service hot path (one run per
//! micro-batch). A [`WorkerPool`] amortises both:
//!
//! * **Threads are spawned once** (plus on-demand growth when a run asks for
//!   more workers than the pool has) and parked on a condvar between runs.
//!   Steady-state runs spawn zero new threads — asserted by
//!   `tests/pool_reuse.rs` via [`fg_metrics::PoolSnapshot::threads_spawned`].
//! * **Runs are dispatched by generation**: the dispatcher installs a
//!   type-erased job, bumps the generation counter, and wakes the workers;
//!   each worker executes the job exactly once per generation (tracked by a
//!   worker-local `seen_generation`) and the dispatcher blocks until every
//!   participating worker has finished. The blocking handshake is what makes
//!   the lifetime erasure of the job reference sound — the same contract
//!   `std::thread::scope` provides, without the per-run thread churn.
//! * **Per-run allocations are recycled**: partition mailboxes (with their
//!   claim words and their resident per-query lanes) and per-worker runnable
//!   queues return to a type-keyed arena after each run — one-worker runs of
//!   an engine the pool is attached to included. Reuse vs rebuild is
//!   counted in the arena, under its lock. A worker's remote-routing
//!   scratch is not: the job builds it per run, so nothing a failed run
//!   staged can outlive it.
//!
//! A pool is either owned lazily by a [`crate::ForkGraphEngine`] (created on
//! its first run with more than one worker) or constructed once by a serving layer
//! and shared across engines via `Arc<WorkerPool>`
//! ([`crate::ForkGraphEngine::with_pool`]) — fg-service does the latter so
//! every micro-batch reuses one crew regardless of its adaptive worker count.
//!
//! Dispatching fewer workers than the pool holds is cheap (non-participating
//! workers stay parked), which is what makes fg-service's per-batch adaptive
//! sizing viable.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use fg_graph::partition::PartitionId;
use fg_metrics::PoolSnapshot;
use fg_trace::{EventKind, TraceSink};

use crate::executor::Mailbox;

/// A job dispatched onto the pool: invoked once per participating worker
/// with the worker's index.
type Job = dyn Fn(usize) + Sync;

/// The crew size a run over `num_partitions` partitions actually uses when
/// `requested_workers` are asked for: at least one, at most one worker per
/// partition. A crew of one runs on the calling thread; a larger one is
/// dispatched onto a pool.
///
/// The single sizing rule shared by the engine's runs (and its lazy pool
/// creation) and fg-service's pool construction — pre-sized pools stay in
/// lockstep with what runs dispatch only because both use this one function
/// (a drifted copy would either grow threads on the hot path, breaking the
/// zero-spawn steady state, or park dead surplus).
pub fn crew_size(requested_workers: usize, num_partitions: usize) -> usize {
    requested_workers.clamp(1, num_partitions.max(1))
}

/// Per-run storage handed out by (and returned to) the recycle arena.
pub(crate) type RunStorage<V> = (Vec<Mailbox<V>>, Vec<Mutex<Vec<PartitionId>>>);

/// Recycled per-run allocations, keyed by operation value type so a pool
/// serving mixed kernels keeps one storage set per type.
#[derive(Default)]
struct RecycleArena {
    /// Per-worker runnable queues (value-type independent).
    queues: Vec<Mutex<Vec<PartitionId>>>,
    /// `TypeId::of::<V>() → Vec<Mailbox<V>>` (boxed for type erasure).
    mailboxes_by_type: HashMap<TypeId, Box<dyn Any + Send>>,
    /// Partition mailboxes handed out from the arena, over the pool's life.
    mailboxes_reused: u64,
    /// Partition mailboxes built fresh, over the pool's life.
    mailboxes_rebuilt: u64,
}

/// Dispatch protocol state, guarded by one mutex.
struct DispatchState {
    /// Bumped once per dispatched run; workers run each generation once. It
    /// is also the pool's dispatch count.
    generation: u64,
    /// Workers `0..active` participate in the current generation.
    active: usize,
    /// Participating workers that have not yet finished the current job.
    remaining: usize,
    /// The current generation's job (`None` between runs). `'static` by
    /// erasure; see [`WorkerPool::dispatch`] for the soundness argument.
    job: Option<&'static Job>,
    /// Set when any worker's job invocation panicked this generation.
    panicked: bool,
    /// Set once, by [`WorkerPool::drop`]; workers exit their idle loop.
    shutdown: bool,
    /// Times a worker parked between runs, over the pool's life.
    parks: u64,
    /// Times a worker woke from parking, over the pool's life.
    unparks: u64,
}

struct PoolShared {
    state: Mutex<DispatchState>,
    /// Workers park here between runs; notified on dispatch and shutdown.
    work_cv: Condvar,
    /// The dispatcher parks here until `remaining` hits zero.
    done_cv: Condvar,
    recycle: Mutex<RecycleArena>,
    /// Optional trace sink; set once, first writer wins (a pool shared by
    /// several traced engines keeps the first sink attached).
    trace: OnceLock<Arc<TraceSink>>,
}

impl PoolShared {
    #[inline]
    fn emit(&self, kind: EventKind, a: u32, b: u32, c: u32) {
        if let Some(trace) = self.trace.get() {
            trace.emit(kind, a, b, c);
        }
    }
}

/// A persistent crew of executor worker threads; see the module docs.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// Serialises dispatchers: a pool runs one engine run at a time.
    dispatch_lock: Mutex<()>,
}

impl WorkerPool {
    /// Spawn a pool of `workers` threads (clamped to at least one). More
    /// threads are spawned on demand if a later run asks for more.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(DispatchState {
                generation: 0,
                active: 0,
                remaining: 0,
                job: None,
                panicked: false,
                shutdown: false,
                parks: 0,
                unparks: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            recycle: Mutex::new(RecycleArena::default()),
            trace: OnceLock::new(),
        });
        let pool =
            WorkerPool { shared, threads: Mutex::new(Vec::new()), dispatch_lock: Mutex::new(()) };
        pool.ensure_capacity(workers.max(1));
        pool
    }

    /// Worker threads currently alive in the pool.
    pub fn capacity(&self) -> usize {
        self.threads.lock().len()
    }

    /// Lifetime figures: threads, dispatches, park/unpark, reuse vs rebuild.
    /// The pool never retires a thread, so its capacity is the number it
    /// ever spawned.
    pub fn metrics(&self) -> PoolSnapshot {
        let threads_spawned = self.capacity() as u64;
        let (dispatches, parks, unparks) = {
            let state = self.shared.state.lock();
            (state.generation, state.parks, state.unparks)
        };
        let arena = self.shared.recycle.lock();
        PoolSnapshot {
            threads_spawned,
            dispatches,
            parks,
            unparks,
            mailboxes_reused: arena.mailboxes_reused,
            mailboxes_rebuilt: arena.mailboxes_rebuilt,
        }
    }

    /// Attach a trace sink: dispatch epochs, storage recycling, and worker
    /// park/unpark become trace events. Set-once; later calls on an
    /// already-traced pool are ignored (first sink wins), so engines sharing
    /// a pool cannot silently re-route each other's events mid-run.
    pub fn attach_trace(&self, sink: Arc<TraceSink>) {
        let _ = self.shared.trace.set(sink);
    }

    /// Grow the pool to at least `workers` threads (no-op when already
    /// large enough). Shrinking is intentionally unsupported: parked
    /// threads cost almost nothing, and churning them would defeat the
    /// zero-spawn steady state.
    fn ensure_capacity(&self, workers: usize) {
        let mut threads = self.threads.lock();
        while threads.len() < workers {
            let index = threads.len();
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("fg-pool-{index}"))
                .spawn(move || worker_body(shared, index))
                .expect("failed to spawn fg-pool worker thread");
            threads.push(handle);
        }
    }

    /// Run `job` on workers `0..active`, blocking until every one of them
    /// has executed it. Panics (after the run fully settles) if any worker's
    /// job invocation panicked, as joining a panicked scoped thread would;
    /// the pool itself survives and stays dispatchable.
    pub(crate) fn dispatch(&self, active: usize, job: &(dyn Fn(usize) + Sync)) {
        assert!(active > 0, "dispatch needs at least one worker");
        self.ensure_capacity(active);
        let _one_run_at_a_time = self.dispatch_lock.lock();
        // SAFETY: workers dereference `job` only between the generation bump
        // below and their `remaining` decrement, and this function does not
        // return (or unwind — no panic source before the handshake) until
        // `remaining == 0`, so the erased borrow strictly outlives every
        // use. This is the std::thread::scope contract without the per-run
        // thread spawn/join.
        #[allow(unsafe_code)]
        let job: &'static Job =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static Job>(job) };
        let mut state = self.shared.state.lock();
        debug_assert_eq!(state.remaining, 0, "dispatch while a run is in flight");
        state.job = Some(job);
        state.active = active;
        state.remaining = active;
        state.generation += 1;
        state.panicked = false;
        self.shared.emit(EventKind::PoolDispatch, state.generation as u32, active as u32, 0);
        self.shared.work_cv.notify_all();
        while state.remaining > 0 {
            self.shared.done_cv.wait(&mut state);
        }
        state.job = None;
        let panicked = state.panicked;
        drop(state);
        if panicked {
            panic!("executor worker panicked");
        }
    }

    /// Take per-run storage for `num_partitions` partitions and
    /// `num_workers` workers from the recycle arena, building whatever is
    /// missing. Mailboxes are matched by operation value type `V`; recycled
    /// ones are reset (claim word to `Idle`, hints zeroed, lanes unassigned,
    /// stripes grown to `num_workers`).
    pub(crate) fn take_run_storage<V: Copy + Send + 'static>(
        &self,
        num_partitions: usize,
        num_workers: usize,
    ) -> RunStorage<V> {
        let mut arena = self.shared.recycle.lock();
        let mut mailboxes: Vec<Mailbox<V>> = arena
            .mailboxes_by_type
            .remove(&TypeId::of::<V>())
            .and_then(|boxed| boxed.downcast::<Vec<Mailbox<V>>>().ok())
            .map(|boxed| *boxed)
            .unwrap_or_default();
        let reused = mailboxes.len().min(num_partitions) as u64;
        arena.mailboxes_reused += reused;
        arena.mailboxes_rebuilt += num_partitions as u64 - reused;
        self.shared.emit(
            EventKind::StorageRecycle,
            reused as u32,
            (num_partitions as u64 - reused) as u32,
            num_workers as u32,
        );
        mailboxes.truncate(num_partitions);
        for mailbox in &mut mailboxes {
            mailbox.reset_for(num_workers);
        }
        while mailboxes.len() < num_partitions {
            mailboxes.push(Mailbox::new(num_workers));
        }

        let mut queues = std::mem::take(&mut arena.queues);
        queues.truncate(num_workers);
        for queue in &mut queues {
            queue.lock().clear();
        }
        while queues.len() < num_workers {
            queues.push(Mutex::new(Vec::new()));
        }
        (mailboxes, queues)
    }

    /// Return a completed run's storage to the arena for the next run.
    /// (Not called when a run panics — the next run then rebuilds fresh.)
    pub(crate) fn store_run_storage<V: Copy + Send + 'static>(
        &self,
        mailboxes: Vec<Mailbox<V>>,
        queues: Vec<Mutex<Vec<PartitionId>>>,
    ) {
        let mut arena = self.shared.recycle.lock();
        arena.mailboxes_by_type.insert(TypeId::of::<V>(), Box::new(mailboxes));
        arena.queues = queues;
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock();
            state.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        let handles: Vec<JoinHandle<()>> = self.threads.lock().drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("capacity", &self.capacity())
            .field("metrics", &self.metrics())
            .finish()
    }
}

/// The body each pool thread runs for its whole life: park until a new
/// generation includes this worker, run the job once, hand the completion
/// back, repeat until shutdown.
fn worker_body(shared: Arc<PoolShared>, index: usize) {
    let mut seen_generation = 0u64;
    loop {
        let job = {
            let mut state = shared.state.lock();
            loop {
                if state.generation != seen_generation {
                    seen_generation = state.generation;
                    if index < state.active {
                        // `remaining > 0` for this generation until every
                        // participant (us included) finishes, and the
                        // dispatcher clears the job only after that, so the
                        // job is always present here.
                        break state.job.expect("dispatched generation has a job");
                    }
                }
                // Honour shutdown only between generations: a pending
                // dispatch is completed first so the dispatcher's handshake
                // can never be stranded.
                if state.shutdown {
                    return;
                }
                state.parks += 1;
                shared.emit(EventKind::Park, index as u32, 0, 0);
                shared.work_cv.wait(&mut state);
                state.unparks += 1;
                shared.emit(EventKind::Unpark, index as u32, 0, 0);
            }
        };
        // Contain job panics so a kernel panic fails that run (the
        // dispatcher re-raises) without killing the pool thread.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(index)));
        let mut state = shared.state.lock();
        if outcome.is_err() {
            state.panicked = true;
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn dispatch_runs_job_on_exactly_the_active_workers() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.capacity(), 4);
        let hits = AtomicUsize::new(0);
        let mask = Mutex::new(Vec::new());
        pool.dispatch(3, &|w| {
            hits.fetch_add(1, Ordering::SeqCst);
            mask.lock().push(w);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 3);
        let mut seen = mask.lock().clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
        assert_eq!(pool.metrics().dispatches, 1);
        assert_eq!(pool.metrics().threads_spawned, 4);
    }

    #[test]
    fn repeated_dispatches_spawn_no_new_threads() {
        let pool = WorkerPool::new(2);
        for _ in 0..20 {
            pool.dispatch(2, &|_| {});
        }
        let m = pool.metrics();
        assert_eq!(m.threads_spawned, 2);
        assert_eq!(m.dispatches, 20);
    }

    #[test]
    fn dispatch_grows_the_pool_on_demand_once() {
        let pool = WorkerPool::new(2);
        pool.dispatch(5, &|_| {});
        assert_eq!(pool.capacity(), 5);
        pool.dispatch(5, &|_| {});
        pool.dispatch(3, &|_| {});
        assert_eq!(pool.metrics().threads_spawned, 5);
        assert_eq!(pool.metrics().threads_spawned, pool.capacity() as u64);
        assert_eq!(pool.metrics().dispatches, 3);
    }

    #[test]
    fn parked_workers_unpark_for_a_dispatch() {
        let pool = WorkerPool::new(2);
        // A worker counts a park before it waits and an unpark after, under
        // the state lock: `parks - unparks` is the number waiting now.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let parked = || {
            let m = pool.metrics();
            m.parks - m.unparks
        };
        while parked() < 2 {
            assert!(std::time::Instant::now() < deadline, "workers never parked");
            std::thread::yield_now();
        }
        let before = pool.metrics();
        pool.dispatch(2, &|_| {});
        let after = pool.metrics();
        assert!(after.unparks >= before.unparks + 2, "{before:?} -> {after:?}");
        assert_eq!(after.dispatches, 1);
    }

    #[test]
    fn worker_panic_fails_the_dispatch_but_not_the_pool() {
        let pool = WorkerPool::new(3);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.dispatch(3, &|w| {
                if w == 1 {
                    panic!("kernel bug");
                }
            });
        }));
        assert!(result.is_err());
        // The pool survives and serves the next run.
        let hits = AtomicUsize::new(0);
        pool.dispatch(3, &|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn run_storage_is_recycled_per_value_type() {
        let pool = WorkerPool::new(1);
        let (mailboxes, queues) = pool.take_run_storage::<u64>(8, 2);
        assert_eq!(mailboxes.len(), 8);
        assert_eq!(queues.len(), 2);
        assert_eq!(pool.metrics().mailboxes_rebuilt, 8);
        pool.store_run_storage(mailboxes, queues);
        // Same type: recycled. Larger partition count: partial rebuild.
        let (mailboxes, queues) = pool.take_run_storage::<u64>(10, 4);
        assert_eq!(mailboxes.len(), 10);
        assert_eq!(queues.len(), 4);
        assert_eq!(pool.metrics().mailboxes_reused, 8);
        assert_eq!(pool.metrics().mailboxes_rebuilt, 10);
        pool.store_run_storage(mailboxes, queues);
        // Different value type: nothing to recycle.
        let (mailboxes, _queues) = pool.take_run_storage::<f64>(4, 2);
        assert_eq!(mailboxes.len(), 4);
        assert_eq!(pool.metrics().mailboxes_rebuilt, 14);
    }
}
