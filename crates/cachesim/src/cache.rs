//! Set-associative LRU cache model.

use parking_lot::Mutex;
use std::sync::Arc;

/// Whether an access reads or writes the line. The distinction only matters for
/// reporting (the paper reports LLC *loads*); both allocate the line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Geometry of the simulated cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Cache-line size in bytes.
    pub line_bytes: usize,
    /// Ways per set.
    pub associativity: usize,
}

impl CacheConfig {
    /// A 2 MiB simulated LLC with 64-byte lines, 16-way: the default
    /// geometry, and the cache `fgbench`'s `cachesim.*` rows simulate. The
    /// paper's Xeon W-2155 had a 13.75 MiB, 11-way LLC; `fg-bench`'s `repro`
    /// simulates a smaller one of its own (`repro_llc`).
    pub fn scaled_llc() -> Self {
        CacheConfig { capacity_bytes: 2 * 1024 * 1024, line_bytes: 64, associativity: 16 }
    }

    /// A tiny cache used in unit tests.
    pub fn tiny(capacity_bytes: usize) -> Self {
        CacheConfig { capacity_bytes, line_bytes: 64, associativity: 4 }
    }

    /// Number of sets implied by the geometry (at least 1).
    pub fn num_sets(&self) -> usize {
        (self.capacity_bytes / (self.line_bytes * self.associativity)).max(1)
    }

    /// Number of lines the cache can hold.
    pub fn num_lines(&self) -> usize {
        self.num_sets() * self.associativity
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::scaled_llc()
    }
}

/// Counters accumulated by the simulator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses observed.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed (and allocated a line).
    pub misses: u64,
    /// Read accesses (the paper's "LLC loads").
    pub loads: u64,
    /// Write accesses.
    pub stores: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`; 0 for an untouched cache.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Merge another set of counters into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.misses += other.misses;
        self.loads += other.loads;
        self.stores += other.stores;
    }
}

/// A set-associative, LRU, write-allocate cache simulator.
///
/// Addresses are synthetic (see [`crate::AddressSpace`]); only the line index
/// derived from the address matters.
#[derive(Clone, Debug)]
pub struct CacheSim {
    config: CacheConfig,
    /// Per-set list of resident line tags, least-recently-used first.
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
}

impl CacheSim {
    /// Create an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = vec![Vec::with_capacity(config.associativity); config.num_sets()];
        CacheSim { config, sets, stats: CacheStats::default() }
    }

    /// Geometry of this cache.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Simulate one access. Returns `true` on a hit.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> bool {
        self.stats.accesses += 1;
        match kind {
            AccessKind::Read => self.stats.loads += 1,
            AccessKind::Write => self.stats.stores += 1,
        }
        let line = addr / self.config.line_bytes as u64;
        let set_idx = (line % self.sets.len() as u64) as usize;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&t| t == line) {
            // Hit: move to the most-recently-used position.
            let tag = set.remove(pos);
            set.push(tag);
            self.stats.hits += 1;
            true
        } else {
            // Miss: allocate, evicting the LRU line if the set is full.
            if set.len() == self.config.associativity {
                set.remove(0);
            }
            set.push(line);
            self.stats.misses += 1;
            false
        }
    }

    /// Simulate a sequential scan of `bytes` bytes starting at `addr`
    /// (one access per cache line touched).
    pub fn access_range(&mut self, addr: u64, bytes: usize, kind: AccessKind) {
        if bytes == 0 {
            return;
        }
        let line_bytes = self.config.line_bytes as u64;
        let first = addr / line_bytes;
        let last = (addr + bytes as u64 - 1) / line_bytes;
        for line in first..=last {
            self.access(line * line_bytes, kind);
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }

    /// Drop all resident lines but keep the counters.
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    /// Reset the counters but keep the resident lines.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

/// A thread-safe shared LLC: all worker threads of an engine funnel their
/// accesses into the same cache state, modelling the *shared* last-level cache
/// whose thrashing the paper studies.
#[derive(Clone, Debug)]
pub struct SharedCacheSim {
    inner: Arc<Mutex<CacheSim>>,
}

impl SharedCacheSim {
    /// Create a shared cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        SharedCacheSim { inner: Arc::new(Mutex::new(CacheSim::new(config))) }
    }

    /// Simulate one access from any thread.
    pub fn access(&self, addr: u64, kind: AccessKind) -> bool {
        self.inner.lock().access(addr, kind)
    }

    /// Simulate a sequential range scan from any thread.
    pub fn access_range(&self, addr: u64, bytes: usize, kind: AccessKind) {
        self.inner.lock().access_range(addr, bytes, kind)
    }

    /// Batched access: one lock acquisition for a whole slice of addresses.
    /// Engines use this to keep simulation overhead off the critical path.
    pub fn access_batch(&self, addrs: &[u64], kind: AccessKind) {
        let mut guard = self.inner.lock();
        for &a in addrs {
            guard.access(a, kind);
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats()
    }

    /// Drop resident lines (counters preserved).
    pub fn flush(&self) {
        self.inner.lock().flush()
    }

    /// Reset counters (resident lines preserved).
    pub fn reset_stats(&self) {
        self.inner.lock().reset_stats()
    }

    /// Geometry of the shared cache.
    pub fn config(&self) -> CacheConfig {
        *self.inner.lock().config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_math() {
        let c = CacheConfig { capacity_bytes: 64 * 1024, line_bytes: 64, associativity: 4 };
        assert_eq!(c.num_sets(), 256);
        assert_eq!(c.num_lines(), 1024);
    }

    #[test]
    fn repeated_access_hits() {
        let mut sim = CacheSim::new(CacheConfig::tiny(4096));
        assert!(!sim.access(0, AccessKind::Read));
        for _ in 0..10 {
            assert!(sim.access(8, AccessKind::Read)); // same line as addr 0
        }
        assert_eq!(sim.stats().misses, 1);
        assert_eq!(sim.stats().hits, 10);
    }

    #[test]
    fn distinct_lines_miss() {
        let mut sim = CacheSim::new(CacheConfig::tiny(4096));
        for i in 0..10u64 {
            assert!(!sim.access(i * 64, AccessKind::Read));
        }
        assert_eq!(sim.stats().misses, 10);
    }

    #[test]
    fn lru_eviction_within_a_set() {
        // 1 set, 4 ways: capacity 256 bytes with 64-byte lines.
        let config = CacheConfig { capacity_bytes: 256, line_bytes: 64, associativity: 4 };
        let mut sim = CacheSim::new(config);
        for i in 0..4u64 {
            sim.access(i * 64, AccessKind::Read);
        }
        // Touch line 0 to make it most recently used, then insert a 5th line.
        assert!(sim.access(0, AccessKind::Read));
        sim.access(4 * 64, AccessKind::Read);
        // Line 1 (the LRU) must have been evicted; line 0 must still be present.
        assert!(sim.access(0, AccessKind::Read));
        assert!(!sim.access(64, AccessKind::Read));
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let config = CacheConfig::tiny(4 * 1024); // 64 lines
        let mut sim = CacheSim::new(config);
        // Cyclic scan over 128 lines: with LRU every access misses.
        for _ in 0..4 {
            for i in 0..128u64 {
                sim.access(i * 64, AccessKind::Read);
            }
        }
        assert_eq!(sim.stats().hits, 0);
        // Working set that fits: only compulsory misses.
        let mut small = CacheSim::new(config);
        for _ in 0..4 {
            for i in 0..32u64 {
                small.access(i * 64, AccessKind::Read);
            }
        }
        assert_eq!(small.stats().misses, 32);
    }

    #[test]
    fn access_range_touches_every_line_once() {
        let mut sim = CacheSim::new(CacheConfig::tiny(64 * 1024));
        sim.access_range(10, 300, AccessKind::Read);
        // Bytes 10..310 span lines 0..=4 → 5 accesses.
        assert_eq!(sim.stats().accesses, 5);
        sim.access_range(0, 0, AccessKind::Write);
        assert_eq!(sim.stats().accesses, 5);
    }

    #[test]
    fn loads_and_stores_counted_separately() {
        let mut sim = CacheSim::new(CacheConfig::tiny(4096));
        sim.access(0, AccessKind::Read);
        sim.access(64, AccessKind::Write);
        sim.access(128, AccessKind::Write);
        let s = sim.stats();
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 2);
        assert_eq!(s.accesses, 3);
    }

    #[test]
    fn flush_and_reset() {
        let mut sim = CacheSim::new(CacheConfig::tiny(4096));
        sim.access(0, AccessKind::Read);
        assert_eq!(sim.resident_lines(), 1);
        sim.flush();
        assert_eq!(sim.resident_lines(), 0);
        assert_eq!(sim.stats().accesses, 1);
        sim.reset_stats();
        assert_eq!(sim.stats().accesses, 0);
    }

    #[test]
    fn shared_cache_accumulates_across_threads() {
        let shared = SharedCacheSim::new(CacheConfig::tiny(64 * 1024));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let shared = shared.clone();
                s.spawn(move || {
                    for i in 0..100u64 {
                        shared.access((t * 100 + i) * 64, AccessKind::Read);
                    }
                });
            }
        });
        assert_eq!(shared.stats().accesses, 400);
        assert_eq!(shared.stats().misses, 400);
    }

    #[test]
    fn stats_merge() {
        let mut a = CacheStats { accesses: 10, hits: 6, misses: 4, loads: 9, stores: 1 };
        let b = CacheStats { accesses: 5, hits: 5, misses: 0, loads: 0, stores: 5 };
        a.merge(&b);
        assert_eq!(a.accesses, 15);
        assert_eq!(a.hits, 11);
        assert!((a.miss_ratio() - 4.0 / 15.0).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }
}
