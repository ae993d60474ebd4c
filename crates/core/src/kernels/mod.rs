//! Built-in query kernels: the query types ForkGraph supports out of the box
//! (Section 3 of the paper lists BFS, DFS, SSSP, PPR, and random walks).

pub mod bfs;
pub mod dfs;
pub mod ppr;
mod restart;
pub mod rw;
pub mod sssp;

pub use bfs::BfsKernel;
pub use dfs::DfsKernel;
pub use ppr::{PprKernel, PprState};
pub use rw::{RandomWalkKernel, RwState, WalkerBatch};
pub use sssp::SsspKernel;
