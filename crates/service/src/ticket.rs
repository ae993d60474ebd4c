//! Completion handles returned by `submit`.
//!
//! A [`Ticket`] is a one-shot future the caller can block on, or hand a
//! callback with [`Ticket::on_ready`]. The batcher thread fulfils it with a
//! shared [`QueryResult`] (shared, because a cache hit and several waiters
//! may all observe the same result object), or with a [`ServiceError`] if
//! the service shuts down before the query runs. Read the kernel's state
//! out of the result with [`QueryResult::try_state`], which names the kernel
//! that actually produced it on a type mismatch:
//!
//! ```no_run
//! # use fg_graph::Dist;
//! # use fg_service::{ForkGraphService, Query};
//! # fn demo(service: &ForkGraphService) -> Result<(), Box<dyn std::error::Error>> {
//! let handle = service.handle();
//! let result = handle.submit_query(Query::kernel("sssp").source(7))?.wait()?;
//! let distances: &Vec<Dist> = result.try_state()?;
//! # let _ = distances; Ok(())
//! # }
//! ```

use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::query::QueryResult;
use crate::ServiceError;

type Outcome = Result<Arc<QueryResult>, ServiceError>;

/// A callback registered by [`Ticket::on_ready`] on a pending ticket.
type OnReady = Box<dyn FnOnce(Outcome) + Send>;

#[derive(Default)]
struct SlotState {
    outcome: Option<Outcome>,
    on_ready: Option<OnReady>,
}

pub(crate) struct Slot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

impl Slot {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Slot { state: Mutex::new(SlotState::default()), ready: Condvar::new() })
    }

    /// Fulfil the slot; later fulfilments are ignored (first writer wins).
    /// A registered [`Ticket::on_ready`] callback runs here, on the
    /// fulfilling thread, after the slot lock is released.
    pub(crate) fn fulfil(&self, outcome: Result<Arc<QueryResult>, ServiceError>) {
        let mut state = self.state.lock();
        if state.outcome.is_some() {
            return;
        }
        let callback = state.on_ready.take().map(|f| (f, outcome.clone()));
        state.outcome = Some(outcome);
        self.ready.notify_all();
        drop(state);
        if let Some((f, outcome)) = callback {
            f(outcome);
        }
    }
}

/// A handle to one submitted query's eventual [`QueryResult`].
pub struct Ticket {
    pub(crate) slot: Arc<Slot>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").field("ready", &self.is_ready()).finish()
    }
}

impl Ticket {
    pub(crate) fn new(slot: Arc<Slot>) -> Self {
        Ticket { slot }
    }

    /// Ticket that is already fulfilled (cache-hit fast path).
    pub(crate) fn ready(outcome: Result<Arc<QueryResult>, ServiceError>) -> Self {
        let slot = Slot::new();
        slot.fulfil(outcome);
        Ticket::new(slot)
    }

    /// Block until the result is available.
    pub fn wait(&self) -> Result<Arc<QueryResult>, ServiceError> {
        let mut state = self.slot.state.lock();
        while state.outcome.is_none() {
            self.slot.ready.wait(&mut state);
        }
        state.outcome.clone().unwrap()
    }

    /// Block for at most `timeout`; `None` if the result is still pending.
    pub fn wait_timeout(
        &self,
        timeout: Duration,
    ) -> Option<Result<Arc<QueryResult>, ServiceError>> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.slot.state.lock();
        while state.outcome.is_none() {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return None;
            }
            self.slot.ready.wait_for(&mut state, remaining);
        }
        state.outcome.clone()
    }

    /// Whether the result is available without blocking.
    pub fn is_ready(&self) -> bool {
        self.slot.state.lock().outcome.is_some()
    }

    /// Run `f` with the outcome exactly once, instead of blocking for it. A
    /// ready ticket runs `f` at once, on the calling thread; a pending one
    /// runs it on the thread that fulfils it, outside the slot lock. The
    /// batcher fulfils tickets holding no service lock, so `f` may submit
    /// a follow-up query; it runs on the batcher thread, so it should be
    /// short.
    pub fn on_ready(self, f: impl FnOnce(Result<Arc<QueryResult>, ServiceError>) + Send + 'static) {
        let mut state = self.slot.state.lock();
        match state.outcome.clone() {
            Some(outcome) => {
                drop(state);
                f(outcome);
            }
            None => state.on_ready = Some(Box::new(f)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::KernelId;

    fn bfs_result(levels: Vec<u32>) -> Arc<QueryResult> {
        Arc::new(QueryResult::from_state(KernelId::BFS, "bfs", levels))
    }

    fn levels(ticket: &Ticket) -> Vec<u32> {
        ticket.wait().unwrap().try_state::<Vec<u32>>().unwrap().clone()
    }

    #[test]
    fn ready_ticket_resolves_immediately() {
        let t = Ticket::ready(Ok(bfs_result(vec![0])));
        assert!(t.is_ready());
        assert_eq!(levels(&t), vec![0]);
    }

    #[test]
    fn wait_blocks_until_fulfilment() {
        let slot = Slot::new();
        let ticket = Ticket::new(Arc::clone(&slot));
        let fulfiller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            slot.fulfil(Ok(bfs_result(vec![1, 2])));
        });
        assert_eq!(levels(&ticket), vec![1, 2]);
        fulfiller.join().unwrap();
    }

    #[test]
    fn wait_timeout_returns_none_while_pending() {
        let ticket = Ticket::new(Slot::new());
        assert!(ticket.wait_timeout(Duration::from_millis(10)).is_none());
        assert!(!ticket.is_ready());
    }

    #[test]
    fn first_fulfilment_wins() {
        let slot = Slot::new();
        slot.fulfil(Ok(bfs_result(vec![7])));
        slot.fulfil(Err(ServiceError::ShuttingDown));
        let t = Ticket::new(slot);
        assert_eq!(levels(&t), vec![7]);
    }

    #[test]
    fn result_identity_is_preserved_through_wait() {
        // Cache hits hand the same Arc<QueryResult> to every waiter; wait
        // must not re-wrap it, or Arc::ptr_eq-based sharing tests (and
        // memory sharing itself) silently degrade.
        let shared = bfs_result(vec![1]);
        let a = Ticket::ready(Ok(Arc::clone(&shared)));
        let b = Ticket::ready(Ok(Arc::clone(&shared)));
        assert!(Arc::ptr_eq(&a.wait().unwrap(), &b.wait().unwrap()));
    }

    type Fired = Arc<std::sync::Mutex<Vec<(Outcome, std::thread::ThreadId)>>>;

    /// Registers `on_ready` on `ticket`; the returned list collects each
    /// call's outcome and the thread it ran on.
    fn record(ticket: Ticket) -> Fired {
        let fired = Fired::default();
        let sink = Arc::clone(&fired);
        ticket.on_ready(move |outcome| {
            sink.lock().unwrap().push((outcome, std::thread::current().id()));
        });
        fired
    }

    #[test]
    fn on_ready_on_a_ready_ticket_fires_at_once_on_the_calling_thread() {
        let fired = record(Ticket::ready(Ok(bfs_result(vec![3]))));
        let fired = fired.lock().unwrap();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].1, std::thread::current().id());
        assert!(fired[0].0.is_ok());
    }

    #[test]
    fn on_ready_on_a_pending_ticket_fires_once_on_fulfilment() {
        let slot = Slot::new();
        let fired = record(Ticket::new(Arc::clone(&slot)));
        assert!(fired.lock().unwrap().is_empty(), "nothing fires before fulfilment");
        let fulfiller = std::thread::spawn(move || {
            slot.fulfil(Ok(bfs_result(vec![4])));
            std::thread::current().id()
        });
        let fulfilled_on = fulfiller.join().unwrap();
        let fired = fired.lock().unwrap();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].1, fulfilled_on, "runs on the fulfilling thread");
    }

    #[test]
    fn on_ready_gets_the_first_of_two_fulfilments() {
        let slot = Slot::new();
        let fired = record(Ticket::new(Arc::clone(&slot)));
        slot.fulfil(Ok(bfs_result(vec![7])));
        slot.fulfil(Err(ServiceError::ShuttingDown));
        let fired = fired.lock().unwrap();
        assert_eq!(fired.len(), 1, "the second fulfilment fires nothing");
        let levels = fired[0].0.as_ref().unwrap().try_state::<Vec<u32>>().unwrap().clone();
        assert_eq!(levels, vec![7]);
    }

    #[test]
    fn on_ready_fires_for_a_leftover_that_shutdown_rejects() {
        // The batcher's exit path fulfils every query still queued with
        // `ShuttingDown`; a callback waiting on one must still run.
        let slot = Slot::new();
        let fired = record(Ticket::new(Arc::clone(&slot)));
        slot.fulfil(Err(ServiceError::ShuttingDown));
        let fired = fired.lock().unwrap();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].0.as_ref().unwrap_err(), &ServiceError::ShuttingDown);
    }
}
