//! Bit-packed arrays of `w`-bit registers.

/// A fixed-length array of `w`-bit unsigned registers, bit-packed into `u64`
/// words with cells allowed to straddle word boundaries.
///
/// The paper's register-sharing methods use `w = 5` ("each register consists
/// of 5 bits") and HLL++ uses `w = 6`; the packing here makes the memory
/// comparison in the evaluation exact: `M` registers cost `⌈wM/64⌉` words.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PackedArray {
    words: Vec<u64>,
    len: usize,
    width: u8,
}

impl PackedArray {
    /// Creates an all-zero array of `len` registers of `width` bits each.
    ///
    /// # Panics
    /// Panics if `len == 0` or `width ∉ 1..=16`.
    #[must_use]
    pub fn new(len: usize, width: u8) -> Self {
        assert!(len > 0, "register array must be non-empty");
        assert!((1..=16).contains(&width), "width {width} must be in 1..=16");
        assert!(
            len <= usize::MAX / usize::from(width),
            "register array size overflows"
        );
        let total_bits = len * usize::from(width);
        Self {
            words: vec![0u64; total_bits.div_ceil(64)],
            len,
            width,
        }
    }

    /// Number of registers (the paper's `M` for FreeRS/vHLL, `m` for HLL).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false: the constructor rejects empty arrays.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Register width in bits (the paper's `w`).
    #[must_use]
    pub fn width(&self) -> u8 {
        self.width
    }

    /// Largest value a register can hold: `2^w - 1`.
    #[must_use]
    pub fn max_value(&self) -> u16 {
        ((1u32 << self.width) - 1) as u16
    }

    /// Loads register `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn load(&self, i: usize) -> u16 {
        assert!(i < self.len, "register index {i} out of range {}", self.len);
        let w = self.width as usize;
        let bit = i * w;
        let word = bit >> 6;
        let off = bit & 63;
        let mask = (1u64 << w) - 1;
        let lo = self.words[word] >> off;
        let v = if off + w <= 64 {
            lo
        } else {
            lo | (self.words[word + 1] << (64 - off))
        };
        (v & mask) as u16
    }

    /// Stores `value` into register `i` unconditionally.
    ///
    /// # Panics
    /// Panics if `i >= len` or `value > max_value()`.
    #[inline]
    pub fn store(&mut self, i: usize, value: u16) {
        assert!(i < self.len, "register index {i} out of range {}", self.len);
        assert!(
            value <= self.max_value(),
            "value {value} exceeds {}-bit register capacity",
            self.width
        );
        let w = self.width as usize;
        let bit = i * w;
        let word = bit >> 6;
        let off = bit & 63;
        let mask = (1u64 << w) - 1;
        let v = u64::from(value);
        self.words[word] = (self.words[word] & !(mask << off)) | (v << off);
        if off + w > 64 {
            let spill = 64 - off;
            let hi_mask = mask >> spill;
            self.words[word + 1] = (self.words[word + 1] & !hi_mask) | (v >> spill);
        }
    }

    /// `R[i] ← max(R[i], value)`, returning the previous value if the
    /// register grew, `None` otherwise. This is the single register update
    /// every HLL-family sketch performs; the `Some`/`None` distinction is the
    /// `1(R(t)[h*(e)] ≠ R(t−1)[h*(e)])` indicator in FreeRS.
    ///
    /// # Panics
    /// Panics if `i >= len` or `value > max_value()`.
    #[inline]
    pub fn store_max(&mut self, i: usize, value: u16) -> Option<u16> {
        let old = self.load(i);
        if value > old {
            self.store(i, value);
            Some(old)
        } else {
            None
        }
    }

    /// Load-only warm-up of the word holding register `i`, returned so the
    /// caller can fold many warms into one accumulator and force the batch
    /// with one `std::hint::black_box` — the crate's software prefetch (no
    /// `unsafe`, so no prefetch intrinsic). The batch ingest path warms a
    /// block's registers before the max-update pass.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn warm(&self, i: usize) -> u64 {
        assert!(i < self.len, "register index {i} out of range {}", self.len);
        self.words[(i * self.width as usize) >> 6]
    }

    /// Iterates over all register values.
    pub fn iter(&self) -> impl Iterator<Item = u16> + '_ {
        (0..self.len).map(move |i| self.load(i))
    }

    /// Number of registers equal to zero (the `Ũ` count used by HLL's
    /// linear-counting fallback).
    #[must_use]
    pub fn count_zeros(&self) -> usize {
        self.iter().filter(|&v| v == 0).count()
    }

    /// The harmonic-mean denominator `Σ_i 2^{-R[i]}` used by every
    /// HLL-family estimator and by FreeRS's `q_R`.
    #[must_use]
    pub fn sum_pow2_neg(&self) -> f64 {
        self.iter().map(pow2_neg).sum()
    }

    /// Merges another array by element-wise max (HLL union). Arrays must
    /// agree on length and width.
    ///
    /// # Panics
    /// Panics if geometry differs.
    pub fn merge_max(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "merge requires equal lengths");
        assert_eq!(self.width, other.width, "merge requires equal widths");
        for i in 0..self.len {
            let v = other.load(i);
            if v > self.load(i) {
                self.store(i, v);
            }
        }
    }

    /// Resets all registers to zero.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The backing words: register `i` occupies bits `i·w .. (i+1)·w` of
    /// the concatenated little-endian words, straddling word boundaries.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds an array of `len` registers of `width` bits from its
    /// backing words (the inverse of [`PackedArray::words`]).
    ///
    /// # Errors
    /// The first violated invariant (see [`PackedArray::validate`]).
    pub fn from_words(len: usize, width: u8, words: Vec<u64>) -> Result<Self, String> {
        let regs = Self { words, len, width };
        regs.validate()?;
        Ok(regs)
    }

    pub(crate) fn into_words(self) -> Vec<u64> {
        self.words
    }

    /// Checks the structural invariants a freshly deserialized array must
    /// satisfy: non-empty, a width in `1..=16`, the right word count for
    /// the geometry, and no stray bits past the packed payload. Snapshot
    /// restore runs this so a checksum-valid but semantically
    /// inconsistent payload becomes a typed error instead of a later
    /// panic.
    ///
    /// # Errors
    /// A human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.len == 0 {
            return Err("register array length is zero".to_string());
        }
        if !(1..=16).contains(&self.width) {
            return Err(format!("register width {} outside 1..=16", self.width));
        }
        if self.len > usize::MAX / usize::from(self.width) {
            return Err(format!(
                "register array geometry {}x{} overflows",
                self.len, self.width
            ));
        }
        let total_bits = self.len * usize::from(self.width);
        if self.words.len() != total_bits.div_ceil(64) {
            return Err(format!(
                "register array has {} words, expected {} for {} registers of {} bits",
                self.words.len(),
                total_bits.div_ceil(64),
                self.len,
                self.width
            ));
        }
        let tail_bits = total_bits % 64;
        if tail_bits != 0 {
            let last = self.words[self.words.len() - 1];
            if last >> tail_bits != 0 {
                return Err(format!("stray bits past register {}", self.len));
            }
        }
        Ok(())
    }

    /// Heap memory consumed by the packed payload, in bytes.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

/// `2^{-v}` for register values, computed by exponent manipulation (exact for
/// the whole register domain, no `powi` call in the hot path).
#[inline]
#[must_use]
pub(crate) fn pow2_neg(v: u16) -> f64 {
    // f64 can represent 2^-v exactly for v <= 1074; register widths cap v at
    // 65535, but rank saturation keeps real values <= 64.
    f64::from_bits((1023u64.saturating_sub(u64::from(v))) << 52)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_neg_matches_powi() {
        for v in 0..=64u16 {
            assert_eq!(pow2_neg(v), 2f64.powi(-i32::from(v)), "v={v}");
        }
    }

    #[test]
    fn warm_is_side_effect_free() {
        let mut r = PackedArray::new(100, 5);
        r.store(42, 17);
        let _ = r.warm(0);
        let _ = r.warm(42);
        let _ = r.warm(99);
        assert_eq!(r.load(42), 17);
        assert_eq!(r.count_zeros(), 99);
    }

    #[test]
    fn new_is_all_zero() {
        let p = PackedArray::new(100, 5);
        assert_eq!(p.len(), 100);
        assert_eq!(p.width(), 5);
        assert_eq!(p.count_zeros(), 100);
        assert!((p.sum_pow2_neg() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn store_load_round_trip_5bit() {
        let mut p = PackedArray::new(64, 5);
        for i in 0..64 {
            p.store(i, (i % 32) as u16);
        }
        for i in 0..64 {
            assert_eq!(p.load(i), (i % 32) as u16, "register {i}");
        }
    }

    #[test]
    fn straddling_cells_round_trip() {
        // width 5: cell 12 occupies bits 60..65, straddling words 0 and 1.
        let mut p = PackedArray::new(16, 5);
        p.store(12, 0b10110);
        assert_eq!(p.load(12), 0b10110);
        // Neighbors are untouched.
        assert_eq!(p.load(11), 0);
        assert_eq!(p.load(13), 0);
        p.store(11, 31);
        p.store(13, 31);
        assert_eq!(p.load(12), 0b10110);
    }

    #[test]
    fn store_max_semantics() {
        let mut p = PackedArray::new(8, 6);
        assert_eq!(p.store_max(2, 10), Some(0));
        assert_eq!(p.store_max(2, 10), None);
        assert_eq!(p.store_max(2, 9), None);
        assert_eq!(p.store_max(2, 11), Some(10));
        assert_eq!(p.load(2), 11);
    }

    #[test]
    fn max_value_by_width() {
        assert_eq!(PackedArray::new(4, 1).max_value(), 1);
        assert_eq!(PackedArray::new(4, 5).max_value(), 31);
        assert_eq!(PackedArray::new(4, 6).max_value(), 63);
        assert_eq!(PackedArray::new(4, 8).max_value(), 255);
        assert_eq!(PackedArray::new(4, 16).max_value(), 65535);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn overflow_value_panics() {
        let mut p = PackedArray::new(4, 5);
        p.store(0, 32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn load_out_of_range_panics() {
        let p = PackedArray::new(4, 5);
        let _ = p.load(4);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn width_zero_rejected() {
        let _ = PackedArray::new(4, 0);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn width_too_large_rejected() {
        let _ = PackedArray::new(4, 17);
    }

    #[test]
    fn sum_pow2_neg_tracks_values() {
        let mut p = PackedArray::new(4, 5);
        p.store(0, 1); // 1/2
        p.store(1, 2); // 1/4
        p.store(2, 3); // 1/8
                       // register 3 stays 0 -> 1
        assert!((p.sum_pow2_neg() - (0.5 + 0.25 + 0.125 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn merge_max_is_elementwise() {
        let mut a = PackedArray::new(8, 5);
        let mut b = PackedArray::new(8, 5);
        a.store(0, 5);
        a.store(1, 1);
        b.store(1, 9);
        b.store(2, 3);
        a.merge_max(&b);
        assert_eq!(a.load(0), 5);
        assert_eq!(a.load(1), 9);
        assert_eq!(a.load(2), 3);
    }

    #[test]
    #[should_panic(expected = "equal widths")]
    fn merge_width_mismatch_panics() {
        let mut a = PackedArray::new(8, 5);
        let b = PackedArray::new(8, 6);
        a.merge_max(&b);
    }

    #[test]
    fn words_round_trip_and_reject_bad_shapes() {
        let mut p = PackedArray::new(13, 5); // 65 bits: two words
        p.store(12, 31);
        p.store(3, 7);
        let back = PackedArray::from_words(13, 5, p.words().to_vec()).expect("valid");
        assert_eq!(back, p);
        assert!(PackedArray::from_words(13, 0, vec![0; 2]).is_err());
        assert!(PackedArray::from_words(13, 5, vec![0; 3]).is_err());
        let err = PackedArray::from_words(13, 5, vec![0, 1 << 1]).expect_err("stray bit");
        assert!(err.contains("stray"), "{err}");
    }

    #[test]
    fn memory_is_packed() {
        // 1024 five-bit registers = 5120 bits = 80 words = 640 bytes,
        // versus 1024 bytes if stored as u8.
        assert_eq!(PackedArray::new(1024, 5).memory_bytes(), 640);
        assert_eq!(PackedArray::new(1024, 6).memory_bytes(), 768);
    }

    #[test]
    fn clear_resets() {
        let mut p = PackedArray::new(50, 7);
        for i in 0..50 {
            p.store(i, 100);
        }
        p.clear();
        assert_eq!(p.count_zeros(), 50);
    }

    #[test]
    fn iter_collects_all() {
        let mut p = PackedArray::new(10, 4);
        for i in 0..10 {
            p.store(i, i as u16);
        }
        let v: Vec<u16> = p.iter().collect();
        assert_eq!(v, (0..10).map(|i| i as u16).collect::<Vec<_>>());
    }
}
