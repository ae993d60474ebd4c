//! # fg-metrics
//!
//! Work counters, timers, and report formatting shared by every engine in the
//! workspace. The paper's evaluation compares systems along three axes —
//! wall-clock time, number of LLC misses, and amount of work (edges/operations
//! processed) — so each engine run produces a [`Measurement`] bundling those
//! quantities.

#![forbid(unsafe_code)]

pub mod counters;
pub mod measurement;
pub mod pool;
pub mod report;
pub mod service;

pub use counters::{WorkCounters, WorkSnapshot, WorkerSnapshot};
pub use measurement::{CacheNumbers, Measurement, MemoryEstimate, Stopwatch, StorageNumbers};
pub use pool::{PoolCounters, PoolSnapshot};
pub use report::Table;
pub use service::{BatchRecord, ServiceCounters, ServiceSnapshot};
