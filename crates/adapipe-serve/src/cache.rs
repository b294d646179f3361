//! The content-addressed plan cache: a typed view over
//! [`adapipe_exec::ShardedCache`].
//!
//! Entries are keyed by the request digest (see
//! [`crate::request::PlanRequest::digest`]) and hold the *exact
//! response body bytes* of the cold plan, so a cache hit is
//! byte-identical to the response the cold path produced — the
//! property the CI `serve` job byte-diffs.
//!
//! The wire digest is 64 lowercase hex characters; the cache parses it
//! into the 32-byte key the sharded cache stores. Any other string
//! (uppercase, short, long, non-hex) is a miss, never a panic.
//! Sharding, LRU eviction and the hit/miss/eviction counters all live
//! in `ShardedCache`.

use adapipe_exec::cache::Digest;
use adapipe_exec::ShardedCache;
use std::sync::Arc;

/// A sharded LRU cache from digest to response body.
#[derive(Debug)]
pub struct PlanCache {
    inner: ShardedCache<str>,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (floored at 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            inner: ShardedCache::new(capacity),
        }
    }

    /// The configured capacity bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// Looks up a digest, refreshing its LRU position.
    #[must_use]
    pub fn get(&self, digest: &str) -> Option<Arc<str>> {
        self.inner.get(&parse_digest(digest)?)
    }

    /// Inserts (or refreshes) a digest → body mapping and returns how
    /// many entries the LRU bound evicted to make room. A malformed
    /// digest is never stored.
    pub fn insert(&self, digest: &str, body: Arc<str>) -> u64 {
        let Some(key) = parse_digest(digest) else {
            return 0;
        };
        let bytes = u64::try_from(body.len()).unwrap_or(u64::MAX);
        u64::try_from(self.inner.insert(key, body, bytes)).unwrap_or(u64::MAX)
    }

    /// Number of cached plans across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the cache holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

/// The 32-byte key of a 64-char lowercase-hex digest, or `None` for
/// any other string.
fn parse_digest(hex: &str) -> Option<Digest> {
    fn nibble(c: u8) -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            _ => None,
        }
    }
    if hex.len() != 64 {
        return None;
    }
    let mut key = [0u8; 32];
    for (byte, pair) in key.iter_mut().zip(hex.as_bytes().chunks_exact(2)) {
        let [hi, lo] = pair else { return None };
        *byte = (nibble(*hi)? << 4) | nibble(*lo)?;
    }
    Some(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapipe_exec::sha256_hex;

    fn body(text: &str) -> Arc<str> {
        Arc::from(text)
    }

    fn digest(name: &str) -> String {
        sha256_hex(name.as_bytes())
    }

    #[test]
    fn get_returns_the_exact_inserted_bytes() {
        let cache = PlanCache::new(16);
        let original = body("adapipe-plan v2\nstage 0 ...\n");
        cache.insert(&digest("d1"), Arc::clone(&original));
        let hit = cache.get(&digest("d1")).unwrap();
        assert!(
            Arc::ptr_eq(&hit, &original),
            "hit must share the cold bytes"
        );
        assert!(cache.get(&digest("d2")).is_none());
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let cache = PlanCache::new(1);
        cache.insert(&digest("a"), body("A"));
        cache.insert(&digest("b"), body("B"));
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&digest("a")).is_none(), "oldest entry evicted");
        assert!(cache.get(&digest("b")).is_some());
    }

    #[test]
    fn capacity_is_respected_under_many_inserts() {
        let cache = PlanCache::new(8);
        for i in 0..100 {
            cache.insert(&digest(&format!("digest-{i}")), body("x"));
        }
        assert_eq!(cache.len(), cache.capacity());
    }

    #[test]
    fn reinserting_a_digest_does_not_grow_the_cache() {
        let cache = PlanCache::new(4);
        for _ in 0..10 {
            cache.insert(&digest("same"), body("x"));
        }
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn malformed_digests_miss_and_are_never_stored() {
        let cache = PlanCache::new(4);
        let good = digest("plan");
        cache.insert(&good, body("x"));
        let upper = good.to_uppercase();
        let long = format!("{good}0");
        let non_hex = "g".repeat(64);
        let multibyte = "é".repeat(32);
        for bad in [
            &upper,
            &long,
            &good[..63],
            &non_hex,
            &multibyte,
            "",
            "deadbeef",
        ] {
            assert!(cache.get(bad).is_none(), "{bad:?} must miss");
            assert_eq!(cache.insert(bad, body("y")), 0);
        }
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&good).is_some());
    }

    #[test]
    fn concurrent_access_from_many_threads_is_safe() {
        let cache = Arc::new(PlanCache::new(32));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let digest = digest(&format!("d-{}", (t * 7 + i) % 40));
                        if cache.get(&digest).is_none() {
                            cache.insert(&digest, Arc::from("body"));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.len() <= cache.capacity());
    }
}
