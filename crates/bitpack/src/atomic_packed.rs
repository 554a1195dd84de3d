//! Packed register array for the shards of the concurrent FreeRS: one
//! writer at a time, any number of readers.

use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed-length array of `w`-bit registers that one writer at a time
/// max-updates through `&self` while any number of threads read it.
///
/// **One writer at a time.** Every write ([`AtomicPackedArray::store_max`],
/// [`AtomicPackedArray::merge_max`]) is a relaxed load and a relaxed store
/// of the word, with no compare-and-swap. Two writers at once could lose
/// each other's growths, so callers serialize them: the concurrent engine
/// in `freesketch` holds its writer lock across every call that writes.
/// The words stay atomic so that readers, which take no lock, load what the
/// writer stored (the crate forbids `unsafe`), and a reader sees every
/// register whole, because a register never straddles two words.
///
/// Unlike [`crate::PackedArray`], cells never straddle word boundaries:
/// each word holds `⌊64/w⌋` cells and the remainder bits go unused. The
/// memory overhead versus tight packing is `64 mod w` bits per word
/// (for w = 5: 4/64 ≈ 6%).
#[derive(Debug)]
pub struct AtomicPackedArray {
    words: Vec<AtomicU64>,
    len: usize,
    width: u8,
    cells_per_word: usize,
}

impl AtomicPackedArray {
    /// Creates an all-zero atomic register array.
    ///
    /// # Panics
    /// Panics if `len == 0` or `width ∉ 1..=16`.
    #[must_use]
    pub fn new(len: usize, width: u8) -> Self {
        assert!(len > 0, "register array must be non-empty");
        assert!((1..=16).contains(&width), "width {width} must be in 1..=16");
        let cells_per_word = 64 / usize::from(width);
        let n_words = len.div_ceil(cells_per_word);
        let mut words = Vec::with_capacity(n_words);
        words.resize_with(n_words, || AtomicU64::new(0));
        Self {
            words,
            len,
            width,
            cells_per_word,
        }
    }

    /// Number of registers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false: the constructor rejects empty arrays.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Register width in bits.
    #[must_use]
    pub fn width(&self) -> u8 {
        self.width
    }

    /// Largest storable value, `2^w − 1`.
    #[must_use]
    pub fn max_value(&self) -> u16 {
        ((1u32 << self.width) - 1) as u16
    }

    #[inline]
    fn locate(&self, i: usize) -> (usize, u32) {
        let word = i / self.cells_per_word;
        let off = (i % self.cells_per_word) as u32 * u32::from(self.width);
        (word, off)
    }

    /// Load-only warm-up of the word holding register `i` (relaxed),
    /// returned so the caller can fold many warms into one accumulator and
    /// force the batch with a single `std::hint::black_box` — the
    /// concurrent batch ingest path's software prefetch (the crate forbids
    /// `unsafe`, so no prefetch intrinsic).
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn warm(&self, i: usize) -> u64 {
        assert!(i < self.len, "register index {i} out of range {}", self.len);
        let (word, _) = self.locate(i);
        // ORDERING: relaxed-ok — the value is discarded (cache-warming only);
        // any ordering stronger than Relaxed would just slow the prefetch.
        self.words[word].load(Ordering::Relaxed)
    }

    /// Loads register `i` (relaxed).
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn load(&self, i: usize) -> u16 {
        assert!(i < self.len, "register index {i} out of range {}", self.len);
        let (word, off) = self.locate(i);
        let mask = (1u64 << self.width) - 1;
        // ORDERING: relaxed-ok — registers only grow (max-merge), and a stale
        // read merely under-reports momentarily; no payload is guarded.
        ((self.words[word].load(Ordering::Relaxed) >> off) & mask) as u16
    }

    /// Performs `R[i] ← max(R[i], value)` (one writer at a time),
    /// returning the previous value if this call grew the register.
    ///
    /// # Panics
    /// Panics if `i >= len` or `value > max_value()`.
    #[inline]
    pub fn store_max(&self, i: usize, value: u16) -> Option<u16> {
        assert!(i < self.len, "register index {i} out of range {}", self.len);
        assert!(
            value <= self.max_value(),
            "value {value} exceeds {}-bit register capacity",
            self.width
        );
        let (word, off) = self.locate(i);
        let mask = (1u64 << self.width) - 1;
        let slot = &self.words[word];
        // ORDERING: relaxed-ok — one writer at a time (see the type doc):
        // nothing else stores this word between the load and the store, and
        // a register publishes no other memory.
        let current = slot.load(Ordering::Relaxed);
        let old = ((current >> off) & mask) as u16;
        if value <= old {
            return None;
        }
        let updated = (current & !(mask << off)) | (u64::from(value) << off);
        // ORDERING: relaxed-ok — as above.
        slot.store(updated, Ordering::Relaxed);
        Some(old)
    }

    /// `Σ 2^{-R[i]}` over all registers (quiescent-state scan).
    #[must_use]
    pub fn sum_pow2_neg(&self) -> f64 {
        (0..self.len)
            .map(|i| f64::from_bits((1023u64.saturating_sub(u64::from(self.load(i)))) << 52))
            .sum()
    }

    /// Number of backing words.
    #[must_use]
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Backing word `i`: registers `i·c .. (i+1)·c` for `c = ⌊64/w⌋`
    /// cells per word, cell `j` of the word at bits `j·w .. (j+1)·w`.
    ///
    /// # Panics
    /// Panics if `i >= word_count()`.
    #[must_use]
    pub fn word(&self, i: usize) -> u64 {
        // ORDERING: relaxed-ok — registers only grow; read at quiescence for
        // an exact image, and any interleaved view is still a valid
        // (slightly stale) sketch state.
        self.words[i].load(Ordering::Relaxed)
    }

    /// Rebuilds an array of `len` registers of `width` bits from its
    /// backing words (the inverse of [`AtomicPackedArray::word`]).
    ///
    /// # Errors
    /// The first violated invariant: zero length, a width outside
    /// `1..=16`, a word count that does not match the geometry, or bits
    /// set outside the cells.
    pub fn from_words(len: usize, width: u8, words: Vec<u64>) -> Result<Self, String> {
        if len == 0 {
            return Err("register array length is zero".to_string());
        }
        if !(1..=16).contains(&width) {
            return Err(format!("register width {width} outside 1..=16"));
        }
        let cells_per_word = 64 / usize::from(width);
        let expected = len.div_ceil(cells_per_word);
        if words.len() != expected {
            return Err(format!(
                "register array has {} words, expected {expected} for {len} registers of \
                 {width} bits",
                words.len()
            ));
        }
        let last_cells = len - (expected - 1) * cells_per_word;
        for (i, &w) in words.iter().enumerate() {
            let cells = if i + 1 == expected {
                last_cells
            } else {
                cells_per_word
            };
            let bits = cells * usize::from(width);
            if bits < 64 && w >> bits != 0 {
                return Err(format!("stray bits in register word {i}"));
            }
        }
        Ok(Self {
            words: words.into_iter().map(AtomicU64::new).collect(),
            len,
            width,
            cells_per_word,
        })
    }

    /// Element-wise max of another array into this one (HLL union), as
    /// this array's one writer; `other` is read as it stands.
    ///
    /// # Panics
    /// Panics if geometry differs.
    pub fn merge_max(&self, other: &Self) {
        assert_eq!(self.len, other.len, "merge requires equal lengths");
        assert_eq!(self.width, other.width, "merge requires equal widths");
        for i in 0..self.len {
            let v = other.load(i);
            if v > 0 {
                self.store_max(i, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_semantics_match_packed() {
        let a = AtomicPackedArray::new(300, 5);
        let mut p = crate::PackedArray::new(300, 5);
        let mut g = hashkit_free_rng(42);
        for _ in 0..2000 {
            let i = (next(&mut g) % 300) as usize;
            let v = (next(&mut g) % 32) as u16;
            assert_eq!(a.store_max(i, v), p.store_max(i, v), "cell {i} value {v}");
        }
        for i in 0..300 {
            assert_eq!(a.load(i), p.load(i));
        }
    }

    // Tiny local RNG to avoid a dev-dependency cycle on hashkit.
    fn hashkit_free_rng(seed: u64) -> u64 {
        seed
    }
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn no_straddling_no_neighbor_corruption() {
        let arr = AtomicPackedArray::new(100, 5);
        // 12 cells per 64-bit word with 4 spare bits; hammer neighbors.
        arr.store_max(11, 31);
        arr.store_max(12, 17);
        arr.store_max(13, 1);
        assert_eq!(arr.load(11), 31);
        assert_eq!(arr.load(12), 17);
        assert_eq!(arr.load(13), 1);
        assert_eq!(arr.load(10), 0);
    }

    #[test]
    fn sum_pow2_neg_matches_sequential_array() {
        let arr = AtomicPackedArray::new(64, 5);
        let mut seq = crate::PackedArray::new(64, 5);
        for i in 0..64 {
            arr.store_max(i, (i % 32) as u16);
            seq.store(i, (i % 32) as u16);
        }
        assert!((arr.sum_pow2_neg() - seq.sum_pow2_neg()).abs() < 1e-12);
    }

    #[test]
    fn words_round_trip_and_reject_bad_shapes() {
        // 12 five-bit cells per word: 25 registers fill three words.
        let arr = AtomicPackedArray::new(25, 5);
        arr.store_max(0, 31);
        arr.store_max(11, 9);
        arr.store_max(24, 17);
        let words: Vec<u64> = (0..arr.word_count()).map(|i| arr.word(i)).collect();
        let back = AtomicPackedArray::from_words(25, 5, words.clone()).expect("valid words");
        for i in 0..25 {
            assert_eq!(back.load(i), arr.load(i), "register {i}");
        }
        assert!(AtomicPackedArray::from_words(25, 5, words[..2].to_vec()).is_err());
        assert!(AtomicPackedArray::from_words(25, 17, words.clone()).is_err());
        // The four spare bits of a full word, and a cell past the length.
        let mut spare = words.clone();
        spare[0] |= 1 << 62;
        assert!(AtomicPackedArray::from_words(25, 5, spare).is_err());
        let mut past = words;
        past[2] |= 1 << 5;
        assert!(AtomicPackedArray::from_words(25, 5, past).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let arr = AtomicPackedArray::new(8, 5);
        arr.store_max(8, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn overflow_value_panics() {
        let arr = AtomicPackedArray::new(8, 5);
        arr.store_max(0, 32);
    }
}
