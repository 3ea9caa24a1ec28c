//! The sharded, single-flight LRU behind every in-memory cache tier
//! (column artifacts, key-tuple sets, pair overlaps).
//!
//! # Determinism contract
//!
//! * A missing value is computed *inside* the owning shard's lock, so
//!   concurrent first lookups of one key cannot both count as misses: the
//!   first lookup of a key is a miss and every later one a hit, however
//!   threads interleave — `misses = distinct keys`, `hits = lookups −
//!   misses`.
//! * The victim is the least-recently-used entry, ties broken on the
//!   smaller key. Victim choice may vary with arrival order, but the number
//!   of evictions depends only on how many distinct keys pass through a
//!   shard.
//!
//! Counters are mirrored into the deterministic obs section under the
//! tier's `[hits, misses, evictions]` names.

use crate::CacheStats;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

const SHARDS: usize = 16;

/// Recover the guard from a poisoned mutex: every mutex in this crate
/// guards state that is valid after any interrupted mutation, so a panic
/// in another thread must not cascade (same policy as
/// `autosuggest-parallel`).
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

struct Entry<V> {
    value: V,
    last_used: u64,
}

struct Shard<K, V> {
    map: HashMap<K, Entry<V>>,
    tick: u64,
}

pub(crate) struct ShardedLru<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    counter_names: [&'static str; 3],
}

impl<K: Hash + Eq + Ord + Copy, V: Clone> ShardedLru<K, V> {
    /// An LRU holding at most `capacity` entries in total (rounded up to at
    /// least one entry per shard), mirroring its counters into obs under
    /// `counter_names = [hits, misses, evictions]`.
    pub(crate) fn new(capacity: usize, counter_names: [&'static str; 3]) -> Self {
        ShardedLru {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(Shard { map: HashMap::new(), tick: 0 }))
                .collect(),
            per_shard_capacity: capacity.div_ceil(SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            counter_names,
        }
    }

    /// Fetch `key` from shard `shard_sel % 16`, computing (and inserting)
    /// it with `compute` on a miss — inside the shard's lock.
    pub(crate) fn get_or_insert_with(
        &self,
        key: K,
        shard_sel: u64,
        compute: impl FnOnce() -> V,
    ) -> V {
        let shard_idx = (shard_sel % SHARDS as u64) as usize;
        let mut evicted = false;
        let (value, hit) = {
            let mut guard = lock_recover(&self.shards[shard_idx]);
            let shard = &mut *guard;
            shard.tick += 1;
            let tick = shard.tick;
            match shard.map.get_mut(&key) {
                Some(entry) => {
                    entry.last_used = tick;
                    (entry.value.clone(), true)
                }
                None => {
                    let value = compute();
                    if shard.map.len() >= self.per_shard_capacity {
                        let victim = shard
                            .map
                            .iter()
                            .min_by_key(|(k, e)| (e.last_used, **k))
                            .map(|(k, _)| *k);
                        if let Some(v) = victim {
                            shard.map.remove(&v);
                            evicted = true;
                        }
                    }
                    shard.map.insert(key, Entry { value: value.clone(), last_used: tick });
                    (value, false)
                }
            }
        };
        let [hits_name, misses_name, evictions_name] = self.counter_names;
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            autosuggest_obs::counter_add(hits_name, 1);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            autosuggest_obs::counter_add(misses_name, 1);
        }
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            autosuggest_obs::counter_add(evictions_name, 1);
        }
        value
    }

    /// Snapshot the cumulative counters.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Number of entries across all shards.
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_recover(s).map.len()).sum()
    }

    /// Drop every entry and reset the counters.
    pub(crate) fn clear(&self) {
        for s in &self.shards {
            let mut guard = lock_recover(s);
            guard.map.clear();
            guard.tick = 0;
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const NAMES: [&str; 3] = ["test.lru.hits", "test.lru.misses", "test.lru.evictions"];

    /// Look `key` up in shard `key`, recording whether `compute` ran.
    fn get(lru: &ShardedLru<u64, u64>, key: u64) -> bool {
        let mut computed = false;
        let v = lru.get_or_insert_with(key, key, || {
            computed = true;
            key * 10
        });
        assert_eq!(v, key * 10);
        computed
    }

    #[test]
    fn capacity_bounds_entries_and_counts_evictions() {
        // Capacity 16 → one entry per shard; the second distinct key landing
        // in any shard evicts the first.
        let lru = ShardedLru::new(16, NAMES);
        for k in 0..40 {
            assert!(get(&lru, k));
        }
        let stats = lru.stats();
        assert_eq!((stats.hits, stats.misses), (0, 40));
        assert_eq!(lru.len(), 16);
        assert_eq!(stats.evictions, 40 - lru.len() as u64);
    }

    #[test]
    fn evicts_the_least_recently_used_entry() {
        // Two entries per shard; keys 0, 16 and 32 all land in shard 0.
        let lru = ShardedLru::new(2 * SHARDS, NAMES);
        get(&lru, 0);
        get(&lru, 16);
        assert!(!get(&lru, 0)); // touch 0 → 16 is now least recent
        assert!(get(&lru, 32)); // evicts 16
        assert_eq!(lru.stats().evictions, 1);
        let before = lru.stats();
        assert!(!get(&lru, 0));
        assert_eq!(lru.stats().since(&before), CacheStats { hits: 1, misses: 0, evictions: 0 });
        let before = lru.stats();
        assert!(get(&lru, 16)); // was evicted → miss (and evicts again)
        assert_eq!(lru.stats().since(&before), CacheStats { hits: 0, misses: 1, evictions: 1 });
    }

    #[test]
    fn concurrent_first_lookups_compute_once() {
        // 4 threads × the same 8 keys: single-flight inside the shard lock
        // guarantees exactly 8 computations, 8 misses and 24 hits however
        // the threads interleave.
        let lru = Arc::new(ShardedLru::new(256, NAMES));
        let computed = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let lru = Arc::clone(&lru);
                let computed = Arc::clone(&computed);
                std::thread::spawn(move || {
                    for k in 0..8u64 {
                        lru.get_or_insert_with(k, k, || {
                            computed.fetch_add(1, Ordering::Relaxed);
                            k
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(computed.load(Ordering::Relaxed), 8);
        assert_eq!(lru.stats(), CacheStats { hits: 24, misses: 8, evictions: 0 });
    }

    #[test]
    fn clear_resets_entries_and_counters() {
        let lru = ShardedLru::new(64, NAMES);
        get(&lru, 1);
        get(&lru, 1);
        assert_ne!(lru.stats(), CacheStats::default());
        lru.clear();
        assert_eq!(lru.stats(), CacheStats::default());
        assert_eq!(lru.len(), 0);
        assert!(get(&lru, 1), "a cleared entry is recomputed");
    }

    #[test]
    fn counters_mirror_into_the_deterministic_obs_section() {
        let ((), snap) = autosuggest_obs::with_local_registry(|| {
            let lru = ShardedLru::new(16, NAMES);
            get(&lru, 0);
            get(&lru, 0);
            get(&lru, 16); // same shard, capacity 1 → evicts 0
        });
        for (name, want) in NAMES.into_iter().zip([1u64, 2, 1]) {
            assert_eq!(snap.counters.get(name).copied(), Some(want), "{name}");
        }
        let det = snap.deterministic_value().to_string();
        assert!(NAMES.iter().all(|n| det.contains(n)), "missing counters in {det}");
        assert!(!snap.timing_value().to_string().contains("test.lru"));
    }
}
