//! A small LRU map used for the service's result cache.
//!
//! Recency is tracked with a monotonically increasing stamp per entry;
//! eviction scans for the minimum stamp. That makes eviction O(capacity), but
//! the cache holds at most a few thousand entries and evicts at most once per
//! engine-run result, so the scan is noise next to a graph traversal. In
//! exchange, lookups and inserts are single-HashMap operations with no
//! intrusive list to maintain.

use std::collections::HashMap;
use std::hash::Hash;

pub struct LruCache<K, V> {
    capacity: usize,
    clock: u64,
    map: HashMap<K, (V, u64)>,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Create a cache holding at most `capacity` entries; `capacity == 0`
    /// disables it (every `get` misses, every `insert` is dropped).
    pub fn new(capacity: usize) -> Self {
        LruCache { capacity, clock: 0, map: HashMap::with_capacity(capacity.min(4096)) }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.clock += 1;
        let clock = self.clock;
        match self.map.get_mut(key) {
            Some((value, stamp)) => {
                *stamp = clock;
                Some(&*value)
            }
            None => None,
        }
    }

    /// Insert or refresh `key`, evicting the least-recently-used entry if the
    /// cache is full.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(oldest) =
                self.map.iter().min_by_key(|(_, (_, stamp))| *stamp).map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, (value, self.clock));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        assert_eq!(cache.get(&"a"), Some(&1)); // refresh "a"; "b" is now LRU
        cache.insert("c", 3);
        assert_eq!(cache.get(&"b"), None);
        assert_eq!(cache.get(&"a"), Some(&1));
        assert_eq!(cache.get(&"c"), Some(&3));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinserting_existing_key_does_not_evict() {
        let mut cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        cache.insert("a", 10);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&"a"), Some(&10));
        assert_eq!(cache.get(&"b"), Some(&2));
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let mut cache = LruCache::new(0);
        cache.insert("a", 1);
        assert!(cache.is_empty());
        assert_eq!(cache.get(&"a"), None);
    }
}
