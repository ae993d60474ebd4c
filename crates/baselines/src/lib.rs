//! # fg-baselines
//!
//! Reimplementations of the three baseline graph processing systems (GPSs) the
//! paper compares against, plus the fork-processing-pattern (FPP) driver that
//! runs a batch of queries under the threading schemes of the paper's Table 1:
//!
//! * [`ligra::LigraEngine`] — frontier-based edgeMap/vertexMap processing with
//!   push/pull direction switching (Ligra's execution model),
//! * [`gemini::GeminiEngine`] — dense, bulk-synchronous iterations with a
//!   global barrier per round (Gemini's chunk-based dual engine with message
//!   passing disabled, as evaluated in the paper),
//! * [`graphit::GraphItEngine`] — Ligra-style processing whose pull phases
//!   iterate over LLC-sized source segments (GraphIt's cache optimisation),
//! * [`atomic_free`] — the topology-driven, atomic-free Bellman–Ford SSSP of
//!   Appendix E, used as a sanity check,
//! * [`fpp::FppDriver`] — runs `|Q|` independent queries under a chosen
//!   [`fpp::ExecutionScheme`] (single-threaded, inter-query `t = 1`, or
//!   intra-query `t = cores`), with optional LLC simulation.
//!
//! These engines reproduce the *execution models* of the original C++ systems,
//! which is what the paper's comparison targets, not their code.

#![forbid(unsafe_code)]

pub mod atomic_free;
pub mod engine;
pub mod fpp;
pub mod gemini;
pub mod graphit;
pub mod kernels;
pub mod ligra;

pub use engine::{GpsEngine, QueryContext};
pub use fpp::{ExecutionScheme, FppDriver, FppResult, QueryKind, QueryOutput};
pub use gemini::GeminiEngine;
pub use graphit::GraphItEngine;
pub use ligra::LigraEngine;
