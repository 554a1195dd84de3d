//! A flat open-addressing accumulator map for per-user counters.
//!
//! The paper's estimators keep one `f64` Horvitz–Thompson counter per user
//! and update it on (almost) every edge, so the counter store is the hottest
//! memory after the shared array itself. `std::collections::HashMap` keeps
//! control bytes and key–value pairs in separate allocations — two cache
//! lines per touch — and its `Entry` API adds branchy plumbing on top.
//! [`CounterMap`] stores `(key, value)` pairs interleaved in one
//! power-of-two slot array (one cache line per touch), probes linearly, and
//! exposes [`CounterMap::touch`] so the batched ingest path can warm the
//! next block's counter lines while the current block is being applied —
//! the same software-prefetch discipline `bitpack` uses for the shared
//! array.

use crate::mix::splitmix64;

/// Sentinel marking an empty slot. A real key equal to the sentinel is
/// handled out of line so the map is correct for the full `u64` domain.
const EMPTY: u64 = u64::MAX;

/// Initial slot count (power of two).
const INITIAL_CAPACITY: usize = 16;

/// Slots per occupancy mask in [`CounterMap::for_each`] (at most 32, and
/// at most [`INITIAL_CAPACITY`] so every group is full).
const GROUP: usize = 16;

/// A `u64 → f64` accumulator map: linear-probing open addressing over
/// interleaved `(key, value)` slots, ≤ 50% load factor.
///
/// ```
/// use hashkit::CounterMap;
///
/// let mut m = CounterMap::new();
/// m.add(7, 1.5);
/// m.add(7, 1.0);
/// assert_eq!(m.get(7), Some(2.5));
/// assert_eq!(m.get(8), None);
/// assert_eq!(m.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CounterMap {
    slots: Vec<(u64, f64)>,
    len: usize,
    /// Value for the one key that collides with the empty sentinel.
    sentinel: Option<f64>,
}

impl Default for CounterMap {
    fn default() -> Self {
        Self::new()
    }
}

impl CounterMap {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        Self {
            slots: vec![(EMPTY, 0.0); INITIAL_CAPACITY],
            len: 0,
            sentinel: None,
        }
    }

    /// Number of distinct keys stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len + usize::from(self.sentinel.is_some())
    }

    /// Whether the map holds no keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Adds `delta` to `key`'s counter, inserting the key at zero first if
    /// absent.
    #[inline]
    pub fn add(&mut self, key: u64, delta: f64) {
        if key == EMPTY {
            *self.sentinel.get_or_insert(0.0) += delta;
            return;
        }
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.mask();
        let mut i = splitmix64(key) as usize & mask;
        loop {
            let slot = &mut self.slots[i];
            if slot.0 == key {
                slot.1 += delta;
                return;
            }
            if slot.0 == EMPTY {
                *slot = (key, delta);
                self.len += 1;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// The counter for `key`, if present.
    #[inline]
    #[must_use]
    pub fn get(&self, key: u64) -> Option<f64> {
        if key == EMPTY {
            return self.sentinel;
        }
        let mask = self.mask();
        let mut i = splitmix64(key) as usize & mask;
        loop {
            let (k, v) = self.slots[i];
            if k == key {
                return Some(v);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Load-only warm-up of `key`'s home slot, returning the resident key so
    /// the caller can fold many warms into one accumulator and force them
    /// with a single `std::hint::black_box` per block — the batch ingest
    /// path's software prefetch of the counter lines (this crate forbids
    /// `unsafe`, so no prefetch intrinsic). With ≤ 50% load and linear
    /// probing, the home line covers the vast majority of probes.
    #[inline]
    #[must_use]
    pub fn warm(&self, key: u64) -> u64 {
        let i = splitmix64(key) as usize & self.mask();
        self.slots[i].0
    }

    /// Visits every `(key, counter)` pair in unspecified order.
    pub fn for_each(&self, f: &mut dyn FnMut(u64, f64)) {
        // One branch-free occupancy mask per group of slots, then a visit
        // per set bit: a key test per slot mispredicts often on a
        // well-spread map, a loop over a group's keys about once per group.
        for group in self.slots.chunks(GROUP) {
            let mut full = 0u32;
            for (j, &(k, _)) in group.iter().enumerate() {
                full |= u32::from(k != EMPTY) << j;
            }
            while full != 0 {
                let (k, v) = group[full.trailing_zeros() as usize];
                f(k, v);
                full &= full - 1;
            }
        }
        if let Some(v) = self.sentinel {
            f(EMPTY, v);
        }
    }

    /// Mean number of slots a successful lookup probes: one plus each
    /// key's distance from its home slot, averaged over the stored keys
    /// (the sentinel key, kept out of line, is not counted).
    #[cfg(test)]
    pub(crate) fn mean_probe(&self) -> f64 {
        let mask = self.mask();
        let probes: usize = self
            .slots
            .iter()
            .enumerate()
            .filter(|&(_, &(k, _))| k != EMPTY)
            .map(|(i, &(k, _))| (i.wrapping_sub(splitmix64(k) as usize) & mask) + 1)
            .sum();
        probes as f64 / self.len.max(1) as f64
    }

    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![(EMPTY, 0.0); new_cap]);
        let mask = new_cap - 1;
        for (k, v) in old {
            if k == EMPTY {
                continue;
            }
            let mut i = splitmix64(k) as usize & mask;
            while self.slots[i].0 != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = (k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every counter, summed through [`CounterMap::for_each`].
    fn sum(m: &CounterMap) -> f64 {
        let mut sum = 0.0;
        m.for_each(&mut |_, v| sum += v);
        sum
    }

    #[test]
    fn empty_map() {
        let m = CounterMap::new();
        assert_eq!(m.len(), 0);
        assert!(m.is_empty());
        assert_eq!(m.get(0), None);
        assert_eq!(m.get(u64::MAX), None);
        assert_eq!(sum(&m), 0.0);
    }

    #[test]
    fn add_and_get_round_trip() {
        let mut m = CounterMap::new();
        for k in 0..1000u64 {
            m.add(k, k as f64);
            m.add(k, 1.0);
        }
        assert_eq!(m.len(), 1000);
        for k in 0..1000u64 {
            assert_eq!(m.get(k), Some(k as f64 + 1.0), "key {k}");
        }
        assert_eq!(m.get(5000), None);
    }

    #[test]
    fn sentinel_key_is_supported() {
        let mut m = CounterMap::new();
        m.add(u64::MAX, 2.0);
        m.add(u64::MAX, 3.0);
        assert_eq!(m.get(u64::MAX), Some(5.0));
        assert_eq!(m.len(), 1);
        assert_eq!(sum(&m), 5.0);
        let mut seen = Vec::new();
        m.for_each(&mut |k, v| seen.push((k, v)));
        assert_eq!(seen, vec![(u64::MAX, 5.0)]);
    }

    #[test]
    fn for_each_and_sum_cover_all_entries() {
        // 257 keys span many occupancy groups; each value names its key, so
        // a visit that reads the wrong slot of a group shows up.
        let mut m = CounterMap::new();
        for k in 0..257u64 {
            m.add(k * 3, k as f64 + 0.5);
        }
        let mut seen = Vec::new();
        m.for_each(&mut |k, v| seen.push((k, v)));
        seen.sort_unstable_by_key(|&(k, _)| k);
        let expected: Vec<(u64, f64)> = (0..257u64).map(|k| (k * 3, k as f64 + 0.5)).collect();
        assert_eq!(seen, expected);
        let want: f64 = expected.iter().map(|&(_, v)| v).sum();
        assert!((sum(&m) - want).abs() < 1e-9);
    }

    #[test]
    fn adversarial_colliding_keys_survive_growth() {
        // Keys crafted to share low hash bits still resolve by probing.
        let mut m = CounterMap::new();
        for k in 0..64u64 {
            m.add(k << 32, 1.0);
        }
        for k in 0..64u64 {
            assert_eq!(m.get(k << 32), Some(1.0));
        }
        assert_eq!(m.len(), 64);
    }

    #[test]
    fn warm_is_side_effect_free() {
        let mut m = CounterMap::new();
        m.add(9, 4.0);
        let _ = m.warm(9);
        let _ = m.warm(12345);
        assert_eq!(m.get(9), Some(4.0));
        assert_eq!(m.len(), 1);
    }
}
