//! LRU + TTL result cache.
//!
//! Hosted execution means Symphony pays for every query; community
//! verticals have head-heavy query distributions, so a small
//! per-application cache absorbs most of the load (experiment E2).
//! Time is the platform's *virtual* clock — nothing here reads wall
//! time.
//!
//! Recency is tracked with an intrusive doubly-linked list threaded
//! through a slab of nodes, so `get`, `put`, and capacity eviction are
//! all O(1) — the platform's L2 source cache (experiment E-cache)
//! holds thousands of entries per shard, where the former
//! scan-for-minimum eviction was O(n) per insert.

use std::collections::HashMap;
use std::hash::Hash;

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed (absent or expired).
    pub misses: u64,
    /// Lookups that coalesced onto an in-flight execution of the same
    /// key (reported by the shared source cache; the per-app response
    /// cache never coalesces, so it stays 0 there).
    pub coalesced: u64,
    /// Entries evicted for capacity.
    pub evictions: u64,
    /// Entries removed because their TTL lapsed (lazily on lookup or
    /// eagerly via [`LruTtlCache::purge_expired`]).
    pub expired: u64,
}

impl CacheStats {
    /// Fold `other` into `self` (cluster-wide stats sum per-shard
    /// counters; [`CacheStats::hit_rate`] over the sum is then
    /// traffic-weighted).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.coalesced += other.coalesced;
        self.evictions += other.evictions;
        self.expired += other.expired;
    }

    /// Hit rate in `[0, 1]` (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.coalesced;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Sentinel slot index for "no node".
const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    /// Virtual time past which the entry no longer serves (strictly
    /// greater ⇒ expired, matching `inserted_at + ttl < now`).
    expires_at: u64,
    prev: usize,
    next: usize,
}

/// An LRU cache with TTL on a caller-supplied clock.
///
/// Entries live in a slab (`Vec<Option<Node>>`) and recency order is
/// an intrusive doubly-linked list over slab indices: `head` is the
/// most recently used entry, `tail` the least. Every operation —
/// lookup, insert, capacity eviction — touches O(1) nodes.
#[derive(Debug)]
pub struct LruTtlCache<K: Eq + Hash + Clone, V> {
    map: HashMap<K, usize>,
    slab: Vec<Option<Node<K, V>>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
    ttl: u64,
    stats: CacheStats,
}

impl<K: Eq + Hash + Clone, V> LruTtlCache<K, V> {
    /// Cache holding up to `capacity` entries, each valid for `ttl`
    /// clock units after insertion.
    ///
    /// # Panics
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize, ttl: u64) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        LruTtlCache {
            map: HashMap::with_capacity(capacity.min(4096)),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            ttl,
            stats: CacheStats::default(),
        }
    }

    /// The default TTL entries are inserted with via [`LruTtlCache::put`].
    pub fn ttl(&self) -> u64 {
        self.ttl
    }

    fn node(&self, slot: usize) -> &Node<K, V> {
        self.slab[slot].as_ref().expect("live slot")
    }

    fn node_mut(&mut self, slot: usize) -> &mut Node<K, V> {
        self.slab[slot].as_mut().expect("live slot")
    }

    /// Unlink `slot` from the recency list (it stays in the slab/map).
    fn detach(&mut self, slot: usize) {
        let (prev, next) = {
            let n = self.node(slot);
            (n.prev, n.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.node_mut(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.node_mut(n).prev = prev,
        }
    }

    /// Link `slot` at the head (most recently used) of the list.
    fn push_front(&mut self, slot: usize) {
        let old_head = self.head;
        {
            let n = self.node_mut(slot);
            n.prev = NIL;
            n.next = old_head;
        }
        match old_head {
            NIL => self.tail = slot,
            h => self.node_mut(h).prev = slot,
        }
        self.head = slot;
    }

    /// Remove `slot` entirely: list, map, and slab.
    fn remove_slot(&mut self, slot: usize) {
        self.detach(slot);
        let node = self.slab[slot].take().expect("live slot");
        self.map.remove(&node.key);
        self.free.push(slot);
    }

    /// Look up `key` at time `now`. Expired entries count as misses
    /// and are removed; a hit refreshes the entry's recency.
    pub fn get(&mut self, key: &K, now: u64) -> Option<&V> {
        let Some(&slot) = self.map.get(key) else {
            self.stats.misses += 1;
            return None;
        };
        if now > self.node(slot).expires_at {
            self.remove_slot(slot);
            self.stats.misses += 1;
            self.stats.expired += 1;
            return None;
        }
        self.detach(slot);
        self.push_front(slot);
        self.stats.hits += 1;
        Some(&self.node(slot).value)
    }

    /// Insert at time `now` with the cache-wide TTL, evicting the
    /// least-recently-used entry on overflow.
    pub fn put(&mut self, key: K, value: V, now: u64) {
        let ttl = self.ttl;
        self.put_with_ttl(key, value, now, ttl);
    }

    /// Insert at time `now` with a per-entry TTL override (degraded
    /// responses and negative entries get short lifetimes; see the
    /// hosting layer and the source cache).
    pub fn put_with_ttl(&mut self, key: K, value: V, now: u64, ttl: u64) {
        let expires_at = now.saturating_add(ttl);
        if let Some(&slot) = self.map.get(&key) {
            {
                let n = self.node_mut(slot);
                n.value = value;
                n.expires_at = expires_at;
            }
            self.detach(slot);
            self.push_front(slot);
            return;
        }
        if self.map.len() >= self.capacity {
            let tail = self.tail;
            debug_assert_ne!(tail, NIL, "non-empty cache has a tail");
            self.remove_slot(tail);
            self.stats.evictions += 1;
        }
        let node = Node {
            key: key.clone(),
            value,
            expires_at,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s] = Some(node);
                s
            }
            None => {
                self.slab.push(Some(node));
                self.slab.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.push_front(slot);
    }

    /// The key next in line for capacity eviction (the least recently
    /// used entry), without touching recency or stats. Admission
    /// policies compare an insertion candidate against this victim.
    pub fn peek_lru(&self) -> Option<&K> {
        match self.tail {
            NIL => None,
            t => Some(&self.node(t).key),
        }
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Remove every entry whose TTL has lapsed at time `now`,
    /// returning how many were dropped. Complements the lazy expiry in
    /// [`LruTtlCache::get`]: entries that are never looked up again
    /// would otherwise occupy capacity until evicted.
    pub fn purge_expired(&mut self, now: u64) -> usize {
        let mut dropped = 0usize;
        let mut cur = self.tail;
        while cur != NIL {
            let prev = self.node(cur).prev;
            if now > self.node(cur).expires_at {
                self.remove_slot(cur);
                dropped += 1;
            }
            cur = prev;
        }
        self.stats.expired += dropped as u64;
        dropped
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drop everything (used when an app is republished).
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_hit_miss() {
        let mut c: LruTtlCache<&str, u32> = LruTtlCache::new(4, 100);
        assert_eq!(c.get(&"a", 0), None);
        c.put("a", 1, 0);
        assert_eq!(c.get(&"a", 10), Some(&1));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn ttl_expires_entries() {
        let mut c: LruTtlCache<&str, u32> = LruTtlCache::new(4, 50);
        c.put("a", 1, 0);
        assert_eq!(c.get(&"a", 50), Some(&1), "at ttl boundary still valid");
        assert_eq!(c.get(&"a", 51), None, "past ttl expired");
        assert_eq!(c.len(), 0, "expired entry removed");
    }

    #[test]
    fn lru_eviction_order() {
        let mut c: LruTtlCache<&str, u32> = LruTtlCache::new(2, 1000);
        c.put("a", 1, 0);
        c.put("b", 2, 0);
        c.get(&"a", 1); // a is now more recently used than b
        c.put("c", 3, 2);
        assert_eq!(c.get(&"b", 3), None, "b was LRU and evicted");
        assert_eq!(c.get(&"a", 3), Some(&1));
        assert_eq!(c.get(&"c", 3), Some(&3));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn reinserting_same_key_does_not_evict() {
        let mut c: LruTtlCache<&str, u32> = LruTtlCache::new(2, 1000);
        c.put("a", 1, 0);
        c.put("b", 2, 0);
        c.put("a", 9, 1);
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.get(&"a", 2), Some(&9));
    }

    #[test]
    fn hit_rate() {
        let mut c: LruTtlCache<&str, u32> = LruTtlCache::new(2, 1000);
        c.put("a", 1, 0);
        c.get(&"a", 1);
        c.get(&"b", 1);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn purge_expired_sweeps_only_stale_entries() {
        let mut c: LruTtlCache<&str, u32> = LruTtlCache::new(8, 50);
        c.put("old1", 1, 0);
        c.put("old2", 2, 10);
        c.put("fresh", 3, 100);
        assert_eq!(c.purge_expired(120), 2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().expired, 2);
        assert_eq!(c.get(&"fresh", 121), Some(&3));
        // A second sweep at the same time finds nothing.
        assert_eq!(c.purge_expired(120), 0);
    }

    #[test]
    fn lazy_expiry_counts_in_stats() {
        let mut c: LruTtlCache<&str, u32> = LruTtlCache::new(4, 50);
        c.put("a", 1, 0);
        assert_eq!(c.get(&"a", 51), None);
        assert_eq!(c.stats().expired, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn clear_empties() {
        let mut c: LruTtlCache<&str, u32> = LruTtlCache::new(2, 1000);
        c.put("a", 1, 0);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.peek_lru(), None);
        // Reusable after clear.
        c.put("b", 2, 0);
        assert_eq!(c.get(&"b", 1), Some(&2));
    }

    #[test]
    fn per_entry_ttl_overrides_cache_ttl() {
        let mut c: LruTtlCache<&str, u32> = LruTtlCache::new(4, 1_000);
        c.put_with_ttl("short", 1, 0, 10);
        c.put("long", 2, 0);
        assert_eq!(c.get(&"short", 10), Some(&1));
        assert_eq!(c.get(&"short", 11), None, "short TTL lapsed");
        assert_eq!(c.get(&"long", 11), Some(&2), "default TTL still live");
        // Re-putting with the default TTL refreshes the lifetime.
        c.put_with_ttl("short", 3, 20, 10);
        c.put("short", 4, 20);
        assert_eq!(c.get(&"short", 500), Some(&4));
    }

    #[test]
    fn peek_lru_tracks_the_eviction_victim() {
        let mut c: LruTtlCache<&str, u32> = LruTtlCache::new(3, 1_000);
        assert_eq!(c.peek_lru(), None);
        c.put("a", 1, 0);
        c.put("b", 2, 0);
        c.put("c", 3, 0);
        assert_eq!(c.peek_lru(), Some(&"a"));
        c.get(&"a", 1); // refresh: b becomes the victim
        assert_eq!(c.peek_lru(), Some(&"b"));
        c.put("d", 4, 2); // evicts b
        assert_eq!(c.get(&"b", 3), None);
        assert_eq!(c.peek_lru(), Some(&"c"));
    }

    #[test]
    fn slots_are_recycled_after_eviction_and_expiry() {
        let mut c: LruTtlCache<u32, u32> = LruTtlCache::new(2, 10);
        for i in 0..100u32 {
            c.put(i, i, (i as u64) * 5);
            let _ = c.get(&i, (i as u64) * 5);
        }
        assert!(c.len() <= 2);
        // The slab never grows past capacity + the transient slots from
        // lazy expiry (every removal recycles its slot).
        assert!(c.slab.len() <= 3, "slab grew to {}", c.slab.len());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _: LruTtlCache<u32, u32> = LruTtlCache::new(0, 10);
    }

    #[test]
    fn cache_stats_merge_sums_every_counter() {
        let mut a = CacheStats {
            hits: 1,
            misses: 2,
            coalesced: 3,
            evictions: 4,
            expired: 5,
        };
        let b = CacheStats {
            hits: 10,
            misses: 20,
            coalesced: 30,
            evictions: 40,
            expired: 50,
        };
        a.merge(&b);
        assert_eq!(
            a,
            CacheStats {
                hits: 11,
                misses: 22,
                coalesced: 33,
                evictions: 44,
                expired: 55,
            }
        );
        assert!((a.hit_rate() - 11.0 / 66.0).abs() < 1e-12);
    }
}
