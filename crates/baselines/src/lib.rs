//! # fg-baselines
//!
//! Reimplementations of the baseline graph processing systems (GPSs) the
//! paper compares against, plus the fork-processing-pattern (FPP) driver that
//! runs a batch of queries under the threading schemes of the paper's Table 1:
//!
//! * [`ligra::LigraEngine`] — frontier-based edgeMap/vertexMap processing with
//!   push/pull direction switching (Ligra's execution model),
//! * [`gemini::GeminiEngine`] — dense, bulk-synchronous iterations with a
//!   global barrier per round (Gemini's chunk-based dual engine with message
//!   passing disabled, as evaluated in the paper),
//! * [`atomic_free`] — the topology-driven, atomic-free Bellman–Ford SSSP of
//!   Appendix E, used as a sanity check,
//! * [`fpp::FppDriver`] — runs `|Q|` independent queries under a chosen
//!   [`fpp::ExecutionScheme`] (single-threaded, or inter-query `t = 1`), with
//!   optional LLC simulation.
//!
//! Every query is one thread's sequential code with its own work tally. These
//! engines reproduce the *execution models* of the original C++ systems —
//! their frontier algorithms and the extra work those do — which is what the
//! paper's comparison targets, not their code or their intra-query
//! parallelism.

#![forbid(unsafe_code)]

pub mod atomic_free;
pub mod engine;
pub mod fpp;
pub mod gemini;
pub mod kernels;
pub mod ligra;

pub use engine::{GpsEngine, QueryContext};
pub use fpp::{ExecutionScheme, FppDriver, FppResult, QueryKind, QueryOutput};
pub use gemini::GeminiEngine;
pub use ligra::LigraEngine;
