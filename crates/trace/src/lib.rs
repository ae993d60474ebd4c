//! # fg-trace
//!
//! Low-overhead structured tracing for the ForkGraph stack.
//!
//! The engine's aggregate counters ([`fg_metrics`]) say *how much* work a run
//! did; this crate records *where the time went* — the schedule itself, as a
//! stream of compact fixed-size events (partition visits, claims, mailbox
//! drains, parks, batch formation, ticket resolution), cheap enough to leave
//! compiled into release builds.
//!
//! The design is hand-rolled for the vendored-deps world (no `tracing`, no
//! `tokio`):
//!
//! * **One branch when untraced.** Instrumented code holds an
//!   `Option<Arc<TraceSink>>`; the no-sink path costs a single
//!   predictable-branch load. What an attached sink costs is not
//!   resolved: `fgbench`'s `trace.overhead_frac` row read 0.018, 0.112,
//!   0.284 and −0.120 in four traced runs of one session, a spread wider
//!   than the cost it was meant to gate.
//! * **Per-thread lock-free ring buffers.** Each emitting thread owns a
//!   lane: a single-producer ring of 3-word event records written with
//!   relaxed atomic stores and published with one release store of the
//!   cursor. No emit ever takes a lock (lane *registration*, once per
//!   thread per sink, does). Readers see each lane as a [`ThreadEvents`].
//! * **Compact events.** A [`TraceEvent`] is 24 bytes: one monotonic
//!   timestamp (a single `Instant::elapsed` read per event), a `u16`
//!   [`EventKind`], and three `u32` payload ids (partition, worker, ticket,
//!   batch, … — see each kind's docs).
//!
//! On top of the raw stream:
//!
//! * [`RunProfile`] — a per-run summary (per-phase wall time, operations
//!   per visit) attached to engine run results when
//!   `EngineConfig::profile` is set; computed by the workers, not from the
//!   event stream, so it works without a sink.
//! * [`chrome::export`] — Chrome trace-event JSON (`chrome://tracing` /
//!   Perfetto) with named per-thread tracks and flow arrows connecting each
//!   service ticket's submit → batch → run → resolve spans across threads.
//! * [`TraceStats::families`] — the sink's figures as metric families
//!   ([`fg_metrics::family`]), which a service's `/metrics` body carries
//!   after its own.

#![forbid(unsafe_code)]

pub mod chrome;
pub mod event;
pub mod profile;
pub mod sink;

pub use event::{EventKind, TraceEvent};
pub use profile::{Histogram, PhaseTimes, RunProfile};
pub use sink::{ThreadEvents, TraceSink, TraceStats};
