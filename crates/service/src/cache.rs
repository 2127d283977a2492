//! The sharded LRU result cache. Values are `Arc<CompiledLoop>`, so one
//! cached entry shares every memoized artifact (frustum report, schedule,
//! rate reports, SCP runs by depth) across concurrent requests; keys are
//! the canonical digest of [`cache_key`](crate::protocol::cache_key).
//!
//! Sharding bounds lock contention: a key maps to one shard, each shard
//! has its own mutex and LRU order, and capacity is split evenly across
//! shards. Recency is a monotone cache-global tick stamped on every hit,
//! so eviction scans a shard (small by construction) for the minimum
//! stamp instead of maintaining an intrusive list.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use tpn::metrics::CacheCounters;
use tpn::CompiledLoop;

struct Entry {
    value: Arc<CompiledLoop>,
    weight: u64,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    entries: HashMap<u64, Entry>,
    weight: u64,
}

/// A sharded, weight-bounded LRU cache of compiled loops. An entry
/// weighs its loop's node count (minimum 1), so capacity is roughly
/// "total loop nodes held".
pub struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
    shard_capacity: u64,
    capacity: u64,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ShardedCache {
    /// A cache of `shards` shards holding at most `capacity` total
    /// weight (split evenly; each shard gets at least 1).
    pub fn new(shards: usize, capacity: u64) -> Self {
        let shards = shards.max(1);
        ShardedCache {
            shard_capacity: (capacity / shards as u64).max(1),
            capacity,
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: u64) -> &Mutex<Shard> {
        &self.shards[(key % self.shards.len() as u64) as usize]
    }

    /// Looks `key` up, stamping recency on a hit. Counts a hit or miss.
    pub fn get(&self, key: u64) -> Option<Arc<CompiledLoop>> {
        let stamp = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard_of(key).lock().expect("cache shard lock");
        match shard.entries.get_mut(&key) {
            Some(entry) => {
                entry.last_used = stamp;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.value.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts `value` under `key`, then evicts least-recently-used
    /// entries until the shard is back within its weight budget (the
    /// newly inserted entry is evicted last, so an oversized loop still
    /// caches — alone).
    pub fn insert(&self, key: u64, value: Arc<CompiledLoop>) {
        let stamp = self.tick.fetch_add(1, Ordering::Relaxed);
        let weight = value.size().max(1) as u64;
        let mut shard = self.shard_of(key).lock().expect("cache shard lock");
        if let Some(old) = shard.entries.insert(
            key,
            Entry {
                value,
                weight,
                last_used: stamp,
            },
        ) {
            shard.weight -= old.weight;
        }
        shard.weight += weight;
        while shard.weight > self.shard_capacity && shard.entries.len() > 1 {
            let victim = shard
                .entries
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("len > 1 leaves a non-key victim");
            let evicted = shard.entries.remove(&victim).expect("victim exists");
            shard.weight -= evicted.weight;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops `key`'s entry if present. The service evicts entries whose
    /// pipeline panicked: a panic inside a stage can poison the loop's
    /// internal memoization locks, so the entry must not be served
    /// again. Not counted as an eviction.
    pub fn remove(&self, key: u64) -> bool {
        let mut shard = self.shard_of(key).lock().expect("cache shard lock");
        match shard.entries.remove(&key) {
            Some(entry) => {
                shard.weight -= entry.weight;
                true
            }
            None => false,
        }
    }

    /// Live entry count across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").entries.len())
            .sum()
    }

    /// Whether no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A consistent snapshot of the cache's counters.
    pub fn counters(&self) -> CacheCounters {
        let (mut entries, mut weight) = (0, 0);
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard lock");
            entries += shard.entries.len() as u64;
            weight += shard.weight;
        }
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            weight,
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lp(n: usize) -> Arc<CompiledLoop> {
        let body: String = (0..n)
            .map(|i| format!("X{i}[i] := X{i}[i-1] + 1; "))
            .collect();
        let source = format!("do i from 2 to n {{ {body} }}");
        Arc::new(CompiledLoop::from_source(&source).expect("compiles"))
    }

    #[test]
    fn hit_miss_and_eviction_counters() {
        let cache = ShardedCache::new(1, 2);
        assert!(cache.get(1).is_none());
        cache.insert(1, lp(1));
        cache.insert(2, lp(1));
        assert!(cache.get(1).is_some());
        // Third unit-weight entry overflows capacity 2: the LRU entry
        // (key 2, never read) is evicted.
        cache.insert(3, lp(1));
        assert!(cache.get(2).is_none());
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        let c = cache.counters();
        assert_eq!(c.evictions, 1);
        assert_eq!(c.entries, 2);
        assert_eq!(c.weight, 2);
        assert_eq!(c.hits, 3);
        assert_eq!(c.misses, 2);
    }

    #[test]
    fn oversized_entry_still_caches_alone() {
        let cache = ShardedCache::new(1, 2);
        cache.insert(1, lp(1));
        cache.insert(2, lp(5)); // weight 5 > capacity 2
        assert!(cache.get(2).is_some(), "oversized entry is kept");
        assert!(cache.get(1).is_none(), "everything else was evicted");
        assert_eq!(cache.len(), 1);
    }
}
