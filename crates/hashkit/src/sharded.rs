//! A mutex-sharded [`CounterMap`] for concurrent per-user counters.
//!
//! The concurrent estimators keep the same `u64 → f64` Horvitz–Thompson
//! counters as the sequential ones, but must accept writes from many
//! threads. [`ShardedCounterMap`] splits one [`CounterMap`] into 64
//! independently locked shards keyed by a mix of the user id, so writers
//! for different users almost never contend and every shard keeps the flat
//! one-cache-line-per-touch layout of the scalar store.
//!
//! The shard comes from the **high** bits of `splitmix64(key)`, because
//! each shard's [`CounterMap`] starts probing at the low bits of that same
//! hash. Taking the shard from the low bits would leave every key of a
//! shard with the same low 6 bits, so they would crowd into 1/64 of its
//! home slots: a lookup then probes about 13 slots instead of about 1.3
//! (100k keys).

use crate::countermap::CounterMap;
use crate::mix::splitmix64;
use crate::reduce64;
use parking_lot::Mutex;

/// The shard count: enough that 8–16 writer threads rarely collide,
/// small enough that a full scan stays cheap.
const SHARDS: usize = 64;

/// A concurrent `u64 → f64` accumulator map: 64 mutex-protected
/// [`CounterMap`] shards, keyed by the high bits of a mix of the key (so
/// sequential user ids spread instead of piling into neighbouring shards,
/// and a shard's keys still spread over all of its home slots).
///
/// ```
/// use hashkit::ShardedCounterMap;
///
/// let m = ShardedCounterMap::default();
/// m.add(7, 1.5);
/// m.add(7, 1.0);
/// assert_eq!(m.get(7), Some(2.5));
/// assert_eq!(m.len(), 1);
/// ```
#[derive(Debug)]
pub struct ShardedCounterMap {
    shards: Box<[Mutex<CounterMap>]>,
}

impl Default for ShardedCounterMap {
    /// An empty map.
    fn default() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(CounterMap::new())).collect(),
        }
    }
}

impl ShardedCounterMap {
    #[inline]
    fn shard(&self, key: u64) -> &Mutex<CounterMap> {
        &self.shards[reduce64(splitmix64(key), SHARDS)]
    }

    /// Adds `delta` to `key`'s counter, inserting the key at zero first if
    /// absent. Callable concurrently.
    #[inline]
    pub fn add(&self, key: u64, delta: f64) {
        self.shard(key).lock().add(key, delta);
    }

    /// The counter for `key`, if present.
    #[inline]
    #[must_use]
    pub fn get(&self, key: u64) -> Option<f64> {
        self.shard(key).lock().get(key)
    }

    /// Number of distinct keys across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether no keys are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits every `(key, counter)` pair, one shard at a time (each shard
    /// is locked only while it is being visited).
    pub fn for_each(&self, f: &mut dyn FnMut(u64, f64)) {
        for s in &self.shards {
            s.lock().for_each(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_round_trip() {
        let m = ShardedCounterMap::default();
        for k in 0..500u64 {
            m.add(k, k as f64);
            m.add(k, 1.0);
        }
        assert_eq!(m.len(), 500);
        for k in 0..500u64 {
            assert_eq!(m.get(k), Some(k as f64 + 1.0), "key {k}");
        }
        assert_eq!(m.get(9999), None);
    }

    #[test]
    fn concurrent_adds_all_land() {
        let m = ShardedCounterMap::default();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let m = &m;
                s.spawn(move || {
                    for k in 0..200u64 {
                        m.add(k * 8 + t, 1.0);
                        m.add(42, 0.5); // shared hot key
                    }
                });
            }
        });
        // Keys k*8+t cover 1600 distinct ids (42 = 5*8+2 is among them);
        // the hot key receives 8 threads × 200 adds of 0.5 on top of its
        // 1.0 from the disjoint pass.
        assert_eq!(m.len(), 1600);
        assert!((m.get(42).unwrap_or(0.0) - (1.0 + 1600.0 * 0.5)).abs() < 1e-9);
        let mut sum = 0.0;
        m.for_each(&mut |_, v| sum += v);
        assert!((sum - (1600.0 + 800.0)).abs() < 1e-9);
    }

    #[test]
    fn shard_keys_spread_over_their_home_slots() {
        // The shard index and a shard's home slot come from different bits
        // of the same hash; from the same bits, this mean is about 13.
        let m = ShardedCounterMap::default();
        for k in 0..100_000u64 {
            m.add(k, 1.0);
        }
        let (mut probes, mut keys) = (0.0, 0usize);
        for s in &m.shards {
            let s = s.lock();
            probes += s.mean_probe() * s.len() as f64;
            keys += s.len();
        }
        let mean = probes / keys as f64;
        assert!(mean <= 2.0, "mean successful probe {mean:.2} slots");
    }

    #[test]
    fn for_each_visits_the_sentinel_key() {
        let m = ShardedCounterMap::default();
        m.add(u64::MAX, 2.0); // sentinel key must survive sharding
        m.add(1, 3.0);
        let mut seen = Vec::new();
        m.for_each(&mut |k, v| seen.push((k, v)));
        seen.sort_by_key(|&(k, _)| k);
        assert_eq!(seen, [(1, 3.0), (u64::MAX, 2.0)]);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    }
}
