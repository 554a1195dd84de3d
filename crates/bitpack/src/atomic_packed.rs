//! Packed register array for the shards of the concurrent FreeRS: one
//! writer at a time, read only while no writer runs.

use crate::packed::pow2_neg;
use crate::PackedArray;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed-length array of `w`-bit registers that one writer at a time
/// max-updates through `&self`, laid out as [`PackedArray`]: register `i`
/// takes bits `i·w .. (i+1)·w` of the concatenated words, straddling a
/// word boundary where it falls on one, so `M` registers take
/// `⌈wM/64⌉` words, exactly the `w·M` bits the paper's memory accounting
/// assumes, and the words equal a [`PackedArray`]'s after the same
/// updates.
///
/// **One writer at a time, and no reader beside it.** Every write
/// ([`AtomicPackedArray::store_max`], [`AtomicPackedArray::merge_max`]) is
/// a relaxed load and a relaxed store of each word the register touches,
/// with no compare-and-swap, so two writers at once could lose each
/// other's growths, and a reader could see a straddling register half
/// written. Callers serialize writers, and load registers only while no
/// writer runs: the concurrent engine in `freesketch` holds its writer
/// lock across every call that writes, and reads registers only under that
/// lock (the writer itself; `resync` after a merge, whose `other` is
/// quiescent) or at quiescence (`q_discrepancy`, and snapshot capture,
/// under `serve`'s ingest gate). The words stay atomic because the crate
/// forbids `unsafe` and the engine is shared through `&self`.
#[derive(Debug)]
pub struct AtomicPackedArray {
    words: Vec<AtomicU64>,
    len: usize,
    width: u8,
}

impl AtomicPackedArray {
    /// Creates an all-zero atomic register array.
    ///
    /// # Panics
    /// Panics if `len == 0` or `width ∉ 1..=16`.
    #[must_use]
    pub fn new(len: usize, width: u8) -> Self {
        Self::from_packed(PackedArray::new(len, width))
    }

    /// Takes over the words of a validated [`PackedArray`].
    fn from_packed(regs: PackedArray) -> Self {
        let (len, width) = (regs.len(), regs.width());
        Self {
            words: regs.into_words().into_iter().map(AtomicU64::new).collect(),
            len,
            width,
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

    /// Load-only warm-up of the word holding register `i`'s low bits
    /// (relaxed), returned so the caller can fold many warms into one
    /// accumulator and force the batch with a single
    /// `std::hint::black_box` — the concurrent batch ingest path's
    /// software prefetch (the crate forbids `unsafe`, so no prefetch
    /// intrinsic).
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn warm(&self, i: usize) -> u64 {
        assert!(i < self.len, "register index {i} out of range {}", self.len);
        // ORDERING: relaxed-ok — the value is discarded (cache-warming only);
        // any ordering stronger than Relaxed would just slow the prefetch.
        self.words[(i * usize::from(self.width)) >> 6].load(Ordering::Relaxed)
    }

    /// Loads register `i` (relaxed), by the writer or while none runs
    /// (see the type doc).
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn load(&self, i: usize) -> u16 {
        assert!(i < self.len, "register index {i} out of range {}", self.len);
        let w = usize::from(self.width);
        let (word, off) = ((i * w) >> 6, (i * w) & 63);
        // ORDERING: relaxed-ok — no writer runs beside a load (see the type
        // doc): the writer reads its own stores, and a quiescent reader is
        // ordered after them by the writer lock's hand-off or a join.
        let mut v = self.words[word].load(Ordering::Relaxed) >> off;
        if off + w > 64 {
            // ORDERING: relaxed-ok — as above, for a register's high bits.
            v |= self.words[word + 1].load(Ordering::Relaxed) << (64 - off);
        }
        (v & ((1u64 << w) - 1)) as u16
    }

    /// Performs `R[i] ← max(R[i], value)` (one writer at a time),
    /// returning the previous value if this call grew the register.
    ///
    /// # Panics
    /// Panics if `i >= len` or `value > max_value()`.
    #[inline]
    pub fn store_max(&self, i: usize, value: u16) -> Option<u16> {
        assert!(
            value <= self.max_value(),
            "value {value} exceeds {}-bit register capacity",
            self.width
        );
        let old = self.load(i);
        if value <= old {
            return None;
        }
        let w = usize::from(self.width);
        let (word, off) = ((i * w) >> 6, (i * w) & 63);
        let (mask, v) = ((1u64 << w) - 1, u64::from(value));
        let lo = &self.words[word];
        // ORDERING: relaxed-ok — one writer at a time (see the type doc):
        // nothing else stores this word between the load and the store, and
        // a register publishes no other memory.
        let bits = lo.load(Ordering::Relaxed);
        // ORDERING: relaxed-ok — as above.
        lo.store((bits & !(mask << off)) | (v << off), Ordering::Relaxed);
        if off + w > 64 {
            let (hi, spill) = (&self.words[word + 1], 64 - off);
            // ORDERING: relaxed-ok — as above, for a register's high bits.
            let bits = hi.load(Ordering::Relaxed);
            // ORDERING: relaxed-ok — as above.
            hi.store((bits & !(mask >> spill)) | (v >> spill), Ordering::Relaxed);
        }
        Some(old)
    }

    /// `Σ 2^{-R[i]}` over all registers (quiescent-state scan).
    #[must_use]
    pub fn sum_pow2_neg(&self) -> f64 {
        (0..self.len).map(|i| pow2_neg(self.load(i))).sum()
    }

    /// Number of backing words.
    #[must_use]
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Backing word `i`, laid out as [`PackedArray::words`].
    ///
    /// # Panics
    /// Panics if `i >= word_count()`.
    #[must_use]
    pub fn word(&self, i: usize) -> u64 {
        // ORDERING: relaxed-ok — read at quiescence (see the type doc), where
        // the writer lock's hand-off or a join orders it after every store.
        self.words[i].load(Ordering::Relaxed)
    }

    /// Rebuilds an array of `len` registers of `width` bits from its
    /// backing words (the inverse of [`AtomicPackedArray::word`]),
    /// validated as [`PackedArray::from_words`] does.
    ///
    /// # Errors
    /// The first violated shape invariant.
    pub fn from_words(len: usize, width: u8, words: Vec<u64>) -> Result<Self, String> {
        PackedArray::from_words(len, width, words).map(Self::from_packed)
    }

    /// Element-wise max of another array into this one (HLL union), as
    /// this array's one writer; `other` must be quiescent.
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

    fn words(arr: &AtomicPackedArray) -> Vec<u64> {
        (0..arr.word_count()).map(|i| arr.word(i)).collect()
    }

    #[test]
    fn sequential_semantics_match_packed() {
        // 2^14 five-bit registers take 1,280 words, as PackedArray's do, and
        // the same updates leave the same words, at widths that straddle
        // word boundaries (5, 6, 7) and one that does not (16).
        assert_eq!(AtomicPackedArray::new(1 << 14, 5).word_count(), 1280);
        let mut g = 42u64;
        for width in [5u8, 6, 7, 16] {
            let len = 1 << 14;
            let a = AtomicPackedArray::new(len, width);
            let mut p = PackedArray::new(len, width);
            assert_eq!(a.word_count(), p.words().len(), "width {width}");
            for _ in 0..20_000 {
                let i = (next(&mut g) % len as u64) as usize;
                let v = (next(&mut g) % (u64::from(a.max_value()) + 1)) as u16;
                assert_eq!(
                    a.store_max(i, v),
                    p.store_max(i, v),
                    "register {i} value {v}"
                );
            }
            assert_eq!(words(&a), p.words(), "width {width}");
            for i in 0..len {
                assert_eq!(a.load(i), p.load(i), "width {width}: register {i}");
            }
        }
    }

    // Tiny local RNG to avoid a dev-dependency cycle on hashkit.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn straddling_registers_leave_their_neighbors_alone() {
        // Five-bit register 12 takes bits 60..65: four in word 0, one in
        // word 1.
        let arr = AtomicPackedArray::new(100, 5);
        assert_eq!(arr.store_max(12, 0b10110), Some(0));
        assert_eq!(arr.load(12), 0b10110);
        assert_eq!((arr.word(0) >> 60, arr.word(1)), (0b0110, 0b1));
        arr.store_max(11, 31);
        arr.store_max(13, 31);
        assert_eq!(arr.load(12), 0b10110);
        assert_eq!(arr.store_max(12, 31), Some(0b10110));
        assert_eq!([arr.load(10), arr.load(11), arr.load(13)], [0, 31, 31]);
    }

    #[test]
    fn sum_pow2_neg_matches_sequential_array() {
        let arr = AtomicPackedArray::new(64, 5);
        let mut seq = PackedArray::new(64, 5);
        for i in 0..64 {
            arr.store_max(i, (i % 32) as u16);
            seq.store(i, (i % 32) as u16);
        }
        assert_eq!(arr.sum_pow2_neg().to_bits(), seq.sum_pow2_neg().to_bits());
    }

    #[test]
    fn words_round_trip_and_reject_bad_shapes() {
        // 25 five-bit registers take 125 bits: two words, the last with
        // three spare bits.
        let arr = AtomicPackedArray::new(25, 5);
        arr.store_max(0, 31);
        arr.store_max(12, 9);
        arr.store_max(24, 17);
        let words = words(&arr);
        assert_eq!(words.len(), 2);
        let back = AtomicPackedArray::from_words(25, 5, words.clone()).expect("valid words");
        for i in 0..25 {
            assert_eq!(back.load(i), arr.load(i), "register {i}");
        }
        assert!(AtomicPackedArray::from_words(25, 5, words[..1].to_vec()).is_err());
        assert!(AtomicPackedArray::from_words(25, 17, words.clone()).is_err());
        assert!(AtomicPackedArray::from_words(0, 5, Vec::new()).is_err());
        let mut past = words;
        past[1] |= 1 << 62;
        let err = AtomicPackedArray::from_words(25, 5, past).expect_err("stray bit");
        assert!(err.contains("stray"), "{err}");
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
