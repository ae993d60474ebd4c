//! # fg-seq
//!
//! Work-efficient **sequential** graph algorithms.
//!
//! ForkGraph's intra-partition processing deliberately uses sequential
//! algorithms ("the fastest known sequential algorithms", Section 4.1 of the
//! paper) rather than the parallel kernels of Ligra/Gemini/GraphIt, because for
//! cache-resident partitions the parallelisation overhead and extra work of
//! parallel algorithms dominate. This crate provides those sequential kernels:
//!
//! * [`mod@dijkstra`] — Dijkstra's algorithm with a binary heap (the priority
//!   functor the paper reuses for SSSP/BC/LL),
//! * [`mod@bellman_ford`] — used as an oracle in tests and for the Appendix E
//!   atomic-free sanity check,
//! * [`mod@bfs`] / [`mod@dfs`] — unweighted traversals,
//! * [`ppr`] — push-based personalized PageRank local clustering (Andersen–
//!   Chung–Lang, as used by Shun et al. for NCP),
//! * [`random_walk`] — bounded random walks.
//!
//! Every kernel reports the number of edges it processed: the work ceilings
//! of the tests and `repro`'s Figure 10b and Appendix E tables compare the
//! engines' edge counts against it.

#![forbid(unsafe_code)]

pub mod bellman_ford;
pub mod bfs;
pub mod dfs;
pub mod dijkstra;
pub mod ppr;
pub mod random_walk;

pub use bellman_ford::bellman_ford;
pub use bfs::{bfs, BfsResult};
pub use dfs::{dfs, DfsResult};
pub use dijkstra::{dijkstra, SsspResult};
pub use ppr::{ppr_push, PprConfig, PprResult};
pub use random_walk::{random_walks, RandomWalkConfig, RandomWalkResult};
