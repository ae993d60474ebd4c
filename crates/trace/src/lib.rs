//! # fg-trace
//!
//! Low-overhead structured tracing for the ForkGraph stack.
//!
//! The engine's aggregate counters ([`fg_metrics`]) say *how much* work a run
//! did; this crate records *where the time went* — the schedule itself, as a
//! stream of compact fixed-size events (partition visits, mailbox drains,
//! steals, parks, batch formation, ticket resolution), cheap enough to leave
//! compiled into release builds.
//!
//! The design is hand-rolled for the vendored-deps world (no `tracing`, no
//! `tokio`):
//!
//! * **One branch when disabled.** Instrumented code holds an
//!   `Option<Arc<TraceSink>>`; the no-sink path costs a single
//!   predictable-branch load. A sink that is attached but
//!   [disabled](TraceSink::set_enabled) costs one additional relaxed atomic
//!   load per site. `fgbench`'s `trace.overhead_frac` row measures the
//!   enabled sink; the disabled-sink cost currently has no row.
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
//! * [`fn@expose`] — Prometheus-style text exposition of service/pool/trace
//!   snapshots, so an HTTP front door can serve `/metrics` by pasting one
//!   string.

#![forbid(unsafe_code)]

pub mod chrome;
pub mod event;
pub mod expose;
pub mod profile;
pub mod sink;

pub use event::{EventKind, TraceEvent};
pub use expose::expose;
pub use profile::{Histogram, PhaseTimes, RunProfile};
pub use sink::{ThreadEvents, TraceSink, TraceStats};
