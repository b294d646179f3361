//! A sharded, LRU-bounded cache from 32-byte content digests to shared
//! values — the engine behind both the process-global subproblem cache
//! and `adapipe-serve`'s plan cache.
//!
//! Shards are independently locked and each keeps a monotone tick for
//! a deterministic LRU order. Values are keyed by raw [`crate::sha256`]
//! digests. The cache keeps exact hit/miss/eviction counters plus
//! approximate byte accounting so `/metrics` can report `subcache.*`
//! gauges. Values are handed out as `Arc` clones: a hit never copies
//! the cached payload and eviction never invalidates a value a reader
//! already holds.

use crate::stats::CacheStats;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A cache key: a SHA-256 digest of the canonical encoding of whatever
/// the value was computed from.
pub type Digest = [u8; 32];

#[derive(Debug)]
struct Entry<V: ?Sized> {
    value: Arc<V>,
    bytes: u64,
    last_used: u64,
}

#[derive(Debug)]
struct Shard<V: ?Sized> {
    entries: HashMap<Digest, Entry<V>>,
    tick: u64,
}

impl<V: ?Sized> Default for Shard<V> {
    fn default() -> Self {
        Shard {
            entries: HashMap::new(),
            tick: 0,
        }
    }
}

/// A sharded LRU cache from content digest to `Arc<V>`.
#[derive(Debug)]
pub struct ShardedCache<V: ?Sized> {
    shards: Vec<Mutex<Shard<V>>>,
    per_shard: usize,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    bytes: AtomicU64,
}

impl<V: ?Sized> ShardedCache<V> {
    /// A cache holding at most `capacity` entries (floored at 1).
    ///
    /// The shard count derives from the capacity as
    /// `(capacity / 32).clamp(1, 16)`, each shard holding
    /// `capacity.div_ceil(shards)` entries. Eviction is LRU within a
    /// shard only, so the smaller the shard, the more often it evicts
    /// an entry the cache-wide LRU order would keep; at least 32 per
    /// shard keeps the daemon's 256-plan cache (8 shards) close to one
    /// global LRU in hit ratio. Large caches split into up to 16
    /// shards so concurrent workers rarely share a lock (the
    /// 65,536-leaf subproblem cache gets 16 shards of 4,096).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let shard_count = (capacity / 32).clamp(1, 16);
        ShardedCache {
            shards: (0..shard_count)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            per_shard: capacity.div_ceil(shard_count),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// The configured entry-count bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently cached, summed over shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| self.lock(s).entries.len()).sum()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact hit/miss counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Entries evicted by the LRU bound so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Approximate bytes currently held, as declared by inserters.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Looks up `key`, counting a hit or miss.
    #[must_use]
    pub fn get(&self, key: &Digest) -> Option<Arc<V>> {
        let Some(target) = self.shard_for(key) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let mut shard = self.lock(target);
        shard.tick = shard.tick.wrapping_add(1);
        let tick = shard.tick;
        match shard.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.value))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or refreshes) `key`, declaring the entry's approximate
    /// payload size for the `subcache.bytes` gauge; returns how many
    /// entries the LRU bound evicted to make room.
    pub fn insert(&self, key: Digest, value: Arc<V>, approx_bytes: u64) -> usize {
        let per_shard = self.per_shard;
        let Some(target) = self.shard_for(&key) else {
            return 0;
        };
        let mut shard = self.lock(target);
        shard.tick = shard.tick.wrapping_add(1);
        let tick = shard.tick;
        if let Some(old) = shard.entries.insert(
            key,
            Entry {
                value,
                bytes: approx_bytes,
                last_used: tick,
            },
        ) {
            self.bytes.fetch_sub(old.bytes, Ordering::Relaxed);
        }
        self.bytes.fetch_add(approx_bytes, Ordering::Relaxed);
        let mut evicted = 0usize;
        while shard.entries.len() > per_shard {
            // Oldest tick wins eviction; ties (only possible after a
            // tick wrap) break on the digest so the choice stays
            // deterministic.
            let Some(oldest) = shard
                .entries
                .iter()
                .min_by_key(|(k, e)| (e.last_used, **k))
                .map(|(k, _)| *k)
            else {
                break;
            };
            if let Some(old) = shard.entries.remove(&oldest) {
                self.bytes.fetch_sub(old.bytes, Ordering::Relaxed);
            }
            evicted += 1;
        }
        self.evictions.fetch_add(
            u64::try_from(evicted).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        evicted
    }

    /// The shard `key` lands in. `None` is unreachable (the modulus
    /// keeps the index in range) but handled gracefully by callers
    /// rather than panicking.
    fn shard_for(&self, key: &Digest) -> Option<&Mutex<Shard<V>>> {
        // SHA-256 output is uniform; the first 8 bytes pick a shard.
        let mut prefix = [0u8; 8];
        prefix.copy_from_slice(&key[..8]);
        let idx = usize::try_from(u64::from_le_bytes(prefix) % self.shard_len()).unwrap_or(0);
        self.shards.get(idx)
    }

    fn shard_len(&self) -> u64 {
        u64::try_from(self.shards.len().max(1)).unwrap_or(1)
    }

    fn lock<'s>(&self, shard: &'s Mutex<Shard<V>>) -> std::sync::MutexGuard<'s, Shard<V>> {
        shard.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha::sha256;

    fn key(i: u64) -> Digest {
        sha256(&i.to_le_bytes())
    }

    #[test]
    fn shard_count_derives_from_capacity() {
        for (capacity, shards, per_shard) in [(1, 1, 1), (256, 8, 32), (65_536, 16, 4_096)] {
            let cache = ShardedCache::<u64>::new(capacity);
            assert_eq!(
                (cache.shards.len(), cache.per_shard),
                (shards, per_shard),
                "capacity {capacity}"
            );
        }
    }

    #[test]
    fn get_after_insert_hits() {
        let cache = ShardedCache::new(64);
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), Arc::new("one"), 3);
        assert_eq!(cache.get(&key(1)).as_deref(), Some(&"one"));
        assert_eq!(cache.stats(), CacheStats::new(1, 1));
    }

    #[test]
    fn capacity_bounds_total_entries() {
        let cache = ShardedCache::new(8);
        for i in 0..100 {
            cache.insert(key(i), Arc::new(i), 8);
        }
        assert_eq!(cache.len(), 8);
        assert!(cache.evictions() > 0);
    }

    #[test]
    fn bytes_track_inserts_and_evictions() {
        let cache = ShardedCache::new(4);
        for i in 0..50 {
            cache.insert(key(i), Arc::new(i), 10);
        }
        let live = u64::try_from(cache.len()).unwrap();
        assert_eq!(cache.bytes(), live * 10);
    }

    #[test]
    fn reinsert_replaces_bytes_not_duplicates() {
        let cache = ShardedCache::new(16);
        cache.insert(key(7), Arc::new("a"), 100);
        cache.insert(key(7), Arc::new("b"), 40);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), 40);
        assert_eq!(cache.get(&key(7)).as_deref(), Some(&"b"));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Single shard (capacity 1 shard min) so LRU order is total.
        let cache = ShardedCache::new(1);
        cache.insert(key(1), Arc::new(1), 1);
        cache.insert(key(2), Arc::new(2), 1);
        assert!(cache.get(&key(1)).is_none(), "older entry evicted");
        assert_eq!(cache.get(&key(2)).as_deref(), Some(&2));
    }

    #[test]
    fn touching_an_entry_protects_it_from_eviction() {
        // Capacity 2 is one shard of 2, so LRU order is total.
        let cache = ShardedCache::new(2);
        cache.insert(key(1), Arc::new(1), 1);
        cache.insert(key(2), Arc::new(2), 1);
        assert!(cache.get(&key(1)).is_some(), "refresh 1");
        assert_eq!(cache.insert(key(3), Arc::new(3), 1), 1);
        assert!(cache.get(&key(1)).is_some(), "recently-used survives");
        assert!(cache.get(&key(2)).is_none(), "lru entry evicted");
        assert!(cache.get(&key(3)).is_some());
    }

    #[test]
    fn tiny_capacity_stays_exact() {
        let cache = ShardedCache::new(2);
        for i in 0..20 {
            cache.insert(key(i), Arc::new(i), 1);
        }
        assert!(cache.len() <= 2);
    }
}
