//! A flat bit array with an exactly-maintained zero count.

/// A fixed-length bit array backed by `u64` words.
///
/// Maintains the number of zero bits (`m0` in the paper) incrementally, so
/// FreeBS can read `q_B = m0 / M` in O(1) on every edge. The count is exact
/// by construction — [`BitArray::set`] only decrements it when a bit really
/// flips — and a property test cross-checks it against a popcount scan.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BitArray {
    words: Vec<u64>,
    len: usize,
    zeros: usize,
}

impl BitArray {
    /// Creates an all-zero bit array of `len` bits.
    ///
    /// # Panics
    /// Panics if `len == 0`.
    #[must_use]
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "bit array must be non-empty");
        Self {
            words: vec![0u64; len.div_ceil(64)],
            len,
            zeros: len,
        }
    }

    /// Number of bits (the paper's `M`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false: the constructor rejects empty arrays.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of zero bits (the paper's `m0`).
    #[must_use]
    pub fn zeros(&self) -> usize {
        self.zeros
    }

    /// Number of one bits.
    #[must_use]
    pub fn ones(&self) -> usize {
        self.len - self.zeros
    }

    /// Fraction of zero bits — the probability `q_B` that a uniformly hashed
    /// new edge flips a bit.
    #[must_use]
    pub fn zero_fraction(&self) -> f64 {
        self.zeros as f64 / self.len as f64
    }

    /// Tests bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i >> 6] >> (i & 63)) & 1 == 1
    }

    /// Sets bit `i`, returning `true` iff the bit was previously zero (i.e.
    /// this call changed the array). This is the `1(B[h*(e)] = 0)` indicator
    /// FreeBS multiplies into its Horvitz–Thompson increment.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let word = &mut self.words[i >> 6];
        let mask = 1u64 << (i & 63);
        let fresh = *word & mask == 0;
        *word |= mask;
        self.zeros -= usize::from(fresh);
        fresh
    }

    /// Sets every bit named in `slots`, recording in `fresh[i]` whether
    /// `slots[i]` flipped from zero — the word-level multi-set primitive of
    /// the batched ingest path. Equivalent to calling [`BitArray::set`] per
    /// slot (duplicates within the block are handled in order: only the
    /// first occurrence reads as fresh), but bounds-checks the whole block
    /// up front so the per-bit loop is branch-free.
    ///
    /// # Panics
    /// Panics if `fresh.len() != slots.len()` or any slot is out of range.
    #[inline]
    pub fn set_many(&mut self, slots: &[usize], fresh: &mut [bool]) {
        assert_eq!(slots.len(), fresh.len(), "freshness buffer length mismatch");
        assert!(
            slots.iter().all(|&s| s < self.len),
            "slot out of range {}",
            self.len
        );
        let mut flipped = 0usize;
        for (f, &slot) in fresh.iter_mut().zip(slots) {
            let word = &mut self.words[slot >> 6];
            let mask = 1u64 << (slot & 63);
            let was_zero = *word & mask == 0;
            *word |= mask;
            *f = was_zero;
            flipped += usize::from(was_zero);
        }
        self.zeros -= flipped;
    }

    /// Load-only warm-up of the word holding bit `i`, returned so the
    /// caller can fold many warms into one accumulator and force the whole
    /// batch with a single `std::hint::black_box`. This is the crate's
    /// software prefetch: `unsafe` is forbidden, so a demand load standing
    /// in for a prefetch intrinsic is the best available, and issuing a
    /// block of independent loads before the read-modify-write pass lets
    /// the core overlap their misses (the RMW pass then hits L1).
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn warm(&self, i: usize) -> u64 {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i >> 6]
    }

    /// Recomputes the zero count from scratch by popcount. Exposed for tests
    /// and drift checks; always equals [`BitArray::zeros`].
    #[must_use]
    pub fn recount_zeros(&self) -> usize {
        let ones: u32 = self.words.iter().map(|w| w.count_ones()).sum();
        self.len - ones as usize
    }

    /// Bitwise OR of another array into this one (sketch union). Both arrays
    /// must have identical length.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn union_with(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "union requires equal lengths");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
        self.zeros = self.recount_zeros();
    }

    /// Resets all bits to zero.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.zeros = self.len;
    }

    /// The backing words: bit `i` is bit `i % 64` of word `i / 64`.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds an array of `len` bits from its backing words (the inverse
    /// of [`BitArray::words`]), recounting the zero count.
    ///
    /// # Errors
    /// The first violated shape invariant (see [`BitArray::validate`]).
    pub fn from_words(len: usize, words: Vec<u64>) -> Result<Self, String> {
        let mut bits = Self {
            words,
            len,
            zeros: len,
        };
        bits.check_shape()?;
        bits.zeros = bits.recount_zeros();
        Ok(bits)
    }

    pub(crate) fn into_words(self) -> Vec<u64> {
        self.words
    }

    /// Checks the structural invariants a freshly deserialized array must
    /// satisfy: non-empty, the right word count for `len`, no stray bits
    /// past `len`, and a zero count that matches the actual contents.
    /// Snapshot restore runs this so a checksum-valid but semantically
    /// inconsistent payload becomes a typed error instead of a later
    /// panic or a silently wrong estimate.
    ///
    /// # Errors
    /// A human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        self.check_shape()?;
        if self.zeros != self.recount_zeros() {
            return Err(format!(
                "zero count {} disagrees with contents ({})",
                self.zeros,
                self.recount_zeros()
            ));
        }
        Ok(())
    }

    // Everything `validate` checks except the zero count; once it holds,
    // `recount_zeros` cannot underflow.
    fn check_shape(&self) -> Result<(), String> {
        if self.len == 0 {
            return Err("bit array length is zero".to_string());
        }
        if self.words.len() != self.len.div_ceil(64) {
            return Err(format!(
                "bit array has {} words, expected {} for {} bits",
                self.words.len(),
                self.len.div_ceil(64),
                self.len
            ));
        }
        let tail_bits = self.len % 64;
        if tail_bits != 0 {
            let last = self.words[self.words.len() - 1];
            if last >> tail_bits != 0 {
                return Err(format!("stray bits past length {}", self.len));
            }
        }
        Ok(())
    }

    /// Iterates over the indices of set bits.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let base = wi << 6;
            let len = self.len;
            BitIter { word: w }
                .map(move |b| base + b)
                .filter(move |&i| i < len)
        })
    }

    /// Heap memory consumed by the array payload, in bytes.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

struct BitIter {
    word: u64,
}

impl Iterator for BitIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let b = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_all_zero() {
        let b = BitArray::new(100);
        assert_eq!(b.len(), 100);
        assert_eq!(b.zeros(), 100);
        assert_eq!(b.ones(), 0);
        assert!((b.zero_fraction() - 1.0).abs() < f64::EPSILON);
        for i in 0..100 {
            assert!(!b.get(i));
        }
    }

    #[test]
    fn set_flips_once() {
        let mut b = BitArray::new(64);
        assert!(b.set(10));
        assert!(!b.set(10));
        assert!(b.get(10));
        assert_eq!(b.zeros(), 63);
    }

    #[test]
    fn zero_count_tracks_sets() {
        let mut b = BitArray::new(1000);
        for i in (0..1000).step_by(3) {
            b.set(i);
        }
        assert_eq!(b.zeros(), b.recount_zeros());
        assert_eq!(b.ones(), 334);
    }

    #[test]
    fn boundary_bits() {
        let mut b = BitArray::new(65); // crosses one word boundary
        assert!(b.set(0));
        assert!(b.set(63));
        assert!(b.set(64));
        assert!(b.get(0) && b.get(63) && b.get(64));
        assert_eq!(b.zeros(), 62);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let b = BitArray::new(10);
        let _ = b.get(10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        let mut b = BitArray::new(10);
        let _ = b.set(10);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_rejected() {
        let _ = BitArray::new(0);
    }

    #[test]
    fn union_merges_and_recounts() {
        let mut a = BitArray::new(128);
        let mut b = BitArray::new(128);
        a.set(1);
        a.set(2);
        b.set(2);
        b.set(3);
        a.union_with(&b);
        assert!(a.get(1) && a.get(2) && a.get(3));
        assert_eq!(a.ones(), 3);
        assert_eq!(a.zeros(), a.recount_zeros());
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn union_length_mismatch_panics() {
        let mut a = BitArray::new(64);
        let b = BitArray::new(128);
        a.union_with(&b);
    }

    #[test]
    fn clear_resets() {
        let mut b = BitArray::new(77);
        for i in 0..77 {
            b.set(i);
        }
        assert_eq!(b.zeros(), 0);
        b.clear();
        assert_eq!(b.zeros(), 77);
        assert!(!b.get(40));
    }

    #[test]
    fn iter_ones_yields_exactly_set_bits() {
        let mut b = BitArray::new(200);
        let set: Vec<usize> = vec![0, 1, 63, 64, 65, 128, 199];
        for &i in &set {
            b.set(i);
        }
        let got: Vec<usize> = b.iter_ones().collect();
        assert_eq!(got, set);
    }

    #[test]
    fn set_many_matches_scalar_sets() {
        let slots: Vec<usize> = vec![3, 64, 3, 199, 64, 0, 127, 128];
        let mut batch = BitArray::new(200);
        let mut fresh = vec![false; slots.len()];
        batch.set_many(&slots, &mut fresh);

        let mut scalar = BitArray::new(200);
        let expected: Vec<bool> = slots.iter().map(|&s| scalar.set(s)).collect();
        assert_eq!(
            fresh, expected,
            "duplicate slots: first occurrence is fresh"
        );
        assert_eq!(batch, scalar);
        assert_eq!(batch.zeros(), batch.recount_zeros());
    }

    #[test]
    fn set_many_empty_block() {
        let mut b = BitArray::new(64);
        b.set_many(&[], &mut []);
        assert_eq!(b.zeros(), 64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_many_rejects_out_of_range() {
        let mut b = BitArray::new(10);
        b.set_many(&[3, 10], &mut [false, false]);
    }

    #[test]
    fn warm_is_side_effect_free_and_returns_word() {
        let mut b = BitArray::new(128);
        b.set(64);
        assert_eq!(b.warm(0), 0);
        assert_eq!(b.warm(64), 1);
        assert_eq!(b.warm(127), 1);
        assert_eq!(b.zeros(), 127);
        assert!(b.get(64));
    }

    #[test]
    fn words_round_trip_and_reject_bad_shapes() {
        let mut b = BitArray::new(130);
        for i in [0usize, 63, 64, 129] {
            b.set(i);
        }
        let back = BitArray::from_words(130, b.words().to_vec()).expect("valid words");
        assert_eq!(back, b);
        assert!(BitArray::from_words(0, Vec::new()).is_err());
        assert!(BitArray::from_words(130, vec![0; 2]).is_err());
        // Bit 130 lies past the length.
        let err = BitArray::from_words(130, vec![0, 0, 1 << 2]).expect_err("stray bit");
        assert!(err.contains("stray"), "{err}");
    }

    #[test]
    fn memory_accounting() {
        assert_eq!(BitArray::new(64).memory_bytes(), 8);
        assert_eq!(BitArray::new(65).memory_bytes(), 16);
        assert_eq!(BitArray::new(512).memory_bytes(), 64);
    }
}
