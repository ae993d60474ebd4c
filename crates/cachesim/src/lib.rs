//! # fg-cachesim
//!
//! A software last-level-cache (LLC) simulator.
//!
//! The paper measures LLC loads, LLC misses, and memory-stall cycles with
//! hardware performance counters on a 13.75 MiB Xeon LLC. Hardware PMU access
//! is neither portable nor available in this reproduction environment, so every
//! engine in the workspace can instead be instrumented with a [`CacheSim`]: a
//! set-associative, LRU, shared cache model fed with the engines' *logical*
//! memory accesses (vertex property reads/writes and adjacency scans) mapped to
//! synthetic addresses by an [`AddressSpace`].
//!
//! The simulator reproduces the quantity the paper actually argues about — the
//! relative number of LLC misses between coordinated (ForkGraph) and
//! uncoordinated (t = 1 inter-query parallelism) access patterns — without
//! requiring the original hardware.

#![forbid(unsafe_code)]

pub mod address;
pub mod cache;
pub mod instrument;

pub use address::{AddressSpace, Region};
pub use cache::{AccessKind, CacheConfig, CacheSim, CacheStats, SharedCacheSim};
pub use instrument::GraphAccessTracer;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_api_smoke_test() {
        let mut sim = CacheSim::new(CacheConfig::default());
        let space = AddressSpace::new();
        let region = space.region(0, 1024, 8);
        sim.access(region.element_addr(3), AccessKind::Read);
        sim.access(region.element_addr(3), AccessKind::Read);
        let stats = sim.stats();
        assert_eq!(stats.accesses, 2);
        assert_eq!(stats.misses, 1);
    }
}
