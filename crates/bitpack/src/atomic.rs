//! Bit array for the shards of the concurrent FreeBS: one writer at a
//! time, any number of readers.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A fixed-length bit array that one writer at a time sets through `&self`
/// while any number of threads read it.
///
/// **One writer at a time.** Every write ([`AtomicBitArray::set`],
/// [`AtomicBitArray::set_many`], [`AtomicBitArray::union_with`]) is a
/// relaxed load and a relaxed store of the word, with no read-modify-write,
/// and the zero count is stored, not decremented in place. Two writers at
/// once could lose each other's bits and flips, so callers serialize them:
/// the concurrent engine in `freesketch` holds its writer lock across every
/// call that writes. The words and the count stay atomic so that readers,
/// which take no lock, load what the writer stored (the crate forbids
/// `unsafe`). Under that contract the zero count is exact after every
/// write, and a reader sees it at most one write behind. A write that would
/// take the count below zero (overlapping writers counting one flip twice)
/// panics rather than wrap it.
#[derive(Debug)]
pub struct AtomicBitArray {
    words: Vec<AtomicU64>,
    len: usize,
    zeros: AtomicUsize,
}

impl AtomicBitArray {
    /// Creates an all-zero atomic bit array of `len` bits.
    ///
    /// # Panics
    /// Panics if `len == 0`.
    #[must_use]
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "bit array must be non-empty");
        let mut words = Vec::with_capacity(len.div_ceil(64));
        words.resize_with(len.div_ceil(64), || AtomicU64::new(0));
        Self {
            words,
            len,
            zeros: AtomicUsize::new(len),
        }
    }

    /// Number of bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false: the constructor rejects empty arrays.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Current zero-bit count: exact for the writer, at most one write
    /// behind for a reader.
    #[must_use]
    pub fn zeros(&self) -> usize {
        // ORDERING: relaxed-ok — a count with no payload behind it; the
        // writer reads its own stores, and a reader that needs an exact
        // value reads after a join or the writer's lock hand-off.
        self.zeros.load(Ordering::Relaxed)
    }

    /// Lowers the zero count by `flipped` (the writer only).
    #[inline]
    fn settle(&self, flipped: usize) {
        if flipped > 0 {
            // ORDERING: relaxed-ok — one writer at a time (see the type
            // doc), so a load and a store cannot lose a flip; readers treat
            // the count as in zeros().
            let zeros = self.zeros.load(Ordering::Relaxed);
            // Overlapping writers can count one flip twice; fail loudly
            // rather than wrap the count and price growths at q > 1.
            assert!(
                flipped <= zeros,
                "more flips than zero bits: two writers overlapped"
            );
            // ORDERING: relaxed-ok — as above.
            self.zeros.store(zeros - flipped, Ordering::Relaxed);
        }
    }

    /// Tests bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        // ORDERING: relaxed-ok — a set bit carries no payload to synchronize
        // with: observing it early or late only shifts *when* an estimate
        // updates, never its correctness (monotone 0→1 writes).
        (self.words[i >> 6].load(Ordering::Relaxed) >> (i & 63)) & 1 == 1
    }

    /// Sets bit `i` (one writer at a time), returning `true` iff this call
    /// flipped it.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&self, i: usize) -> bool {
        let mut fresh = [false];
        self.set_many(&[i], &mut fresh);
        fresh[0]
    }

    /// Sets every bit named in `slots` (one writer at a time), recording in
    /// `fresh[i]` whether this call flipped bit `slots[i]` — the block form
    /// of [`AtomicBitArray::set`]. Each bit is a load and an unconditional
    /// store of its word, branch-free as [`crate::BitArray::set_many`], and
    /// the zero count is stored once for the whole block.
    ///
    /// # Panics
    /// Panics if `fresh.len() != slots.len()` or any slot is out of range.
    #[inline]
    pub fn set_many(&self, slots: &[usize], fresh: &mut [bool]) {
        assert_eq!(slots.len(), fresh.len(), "freshness buffer length mismatch");
        assert!(
            slots.iter().all(|&s| s < self.len),
            "slot out of range {}",
            self.len
        );
        let mut flipped = 0usize;
        for (f, &slot) in fresh.iter_mut().zip(slots) {
            let word = &self.words[slot >> 6];
            let mask = 1u64 << (slot & 63);
            // ORDERING: relaxed-ok — one writer at a time (see the type
            // doc): nothing else stores this word between the load and the
            // store, and a set bit publishes no other memory.
            let bits = word.load(Ordering::Relaxed);
            // ORDERING: relaxed-ok — as above.
            word.store(bits | mask, Ordering::Relaxed);
            let was_zero = bits & mask == 0;
            *f = was_zero;
            flipped += usize::from(was_zero);
        }
        self.settle(flipped);
    }

    /// Load-only warm-up of the word holding bit `i` (relaxed), returned so
    /// the caller can fold many warms into one accumulator and force the
    /// batch with a single `std::hint::black_box` — the concurrent batch
    /// ingest path's software prefetch (the crate forbids `unsafe`, so no
    /// prefetch intrinsic).
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn warm(&self, i: usize) -> u64 {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        // ORDERING: relaxed-ok — the value is discarded (cache-warming only);
        // any ordering stronger than Relaxed would just slow the prefetch.
        self.words[i >> 6].load(Ordering::Relaxed)
    }

    /// Recomputes the zero count by popcount scan (quiescent state only).
    #[must_use]
    pub fn recount_zeros(&self) -> usize {
        let ones: u32 = self
            .words
            .iter()
            // ORDERING: relaxed-ok — documented quiescent-only API; the caller's
            // thread join supplies the happens-before edge for exactness.
            .map(|w| w.load(Ordering::Relaxed).count_ones())
            .sum();
        self.len - ones as usize
    }

    /// Number of backing words.
    #[must_use]
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Backing word `i`, laid out as [`crate::BitArray::words`].
    ///
    /// # Panics
    /// Panics if `i >= word_count()`.
    #[must_use]
    pub fn word(&self, i: usize) -> u64 {
        // ORDERING: relaxed-ok — monotone bits; read at quiescence for an
        // exact image, and any interleaved view is still a valid (slightly
        // stale) sketch state.
        self.words[i].load(Ordering::Relaxed)
    }

    /// Rebuilds an array of `len` bits from its backing words, validated
    /// and zero-counted as [`crate::BitArray::from_words`] does.
    ///
    /// # Errors
    /// The first violated shape invariant.
    pub fn from_words(len: usize, words: Vec<u64>) -> Result<Self, String> {
        let bits = crate::BitArray::from_words(len, words)?;
        let zeros = bits.zeros();
        Ok(Self {
            words: bits.into_words().into_iter().map(AtomicU64::new).collect(),
            len,
            zeros: AtomicUsize::new(zeros),
        })
    }

    /// Bitwise OR of another array into this one (sketch union), as this
    /// array's one writer; `other` is read as it stands.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn union_with(&self, other: &Self) {
        assert_eq!(self.len, other.len, "union requires equal lengths");
        let mut flipped = 0usize;
        for (a, b) in self.words.iter().zip(&other.words) {
            // ORDERING: relaxed-ok — monotone bits carry no payload, and
            // this call is `self`'s one writer (see the type doc), so no
            // other store lands between the load of `a` and its store.
            let bits = b.load(Ordering::Relaxed);
            if bits != 0 {
                // ORDERING: relaxed-ok — as above.
                let prev = a.load(Ordering::Relaxed);
                // ORDERING: relaxed-ok — as above.
                a.store(prev | bits, Ordering::Relaxed);
                flipped += (bits & !prev).count_ones() as usize;
            }
        }
        self.settle(flipped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_semantics_match_bitarray() {
        let a = AtomicBitArray::new(300);
        let mut b = crate::BitArray::new(300);
        for i in (0..300).step_by(7) {
            assert_eq!(a.set(i), b.set(i));
        }
        assert_eq!(a.zeros(), b.zeros());
        assert_eq!(a.recount_zeros(), b.recount_zeros());
    }

    #[test]
    #[should_panic(expected = "two writers overlapped")]
    fn a_double_counted_flip_fails_loudly() {
        // Two overlapping writers can both count the last zero bit's flip.
        let a = AtomicBitArray::new(4);
        a.settle(3);
        a.settle(2);
    }

    #[test]
    fn words_round_trip() {
        let a = AtomicBitArray::new(130);
        for i in [0usize, 63, 64, 65, 129] {
            a.set(i);
        }
        let words: Vec<u64> = (0..a.word_count()).map(|i| a.word(i)).collect();
        let back = AtomicBitArray::from_words(130, words).expect("valid words");
        for i in 0..130 {
            assert_eq!(back.get(i), a.get(i), "bit {i}");
        }
        assert_eq!(back.zeros(), a.zeros());
        assert!(AtomicBitArray::from_words(130, vec![0, 0, 1 << 5]).is_err());
    }

    #[test]
    fn set_many_matches_per_slot_sets() {
        // Repeated slots within the block, and bits set before it.
        let slots = [3usize, 64, 3, 199, 64, 0, 127, 128, 5, 5];
        let batch = AtomicBitArray::new(200);
        let scalar = AtomicBitArray::new(200);
        for i in [5usize, 128] {
            batch.set(i);
            scalar.set(i);
        }
        let mut fresh = [false; 10];
        batch.set_many(&slots, &mut fresh);
        let expected: Vec<bool> = slots.iter().map(|&s| scalar.set(s)).collect();
        assert_eq!(fresh.as_slice(), expected.as_slice());
        for i in 0..batch.word_count() {
            assert_eq!(batch.word(i), scalar.word(i), "word {i}");
        }
        assert_eq!(batch.zeros(), scalar.zeros());
        assert_eq!(batch.zeros(), batch.recount_zeros());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_many_rejects_out_of_range_slots() {
        let a = AtomicBitArray::new(8);
        a.set_many(&[1, 8], &mut [false; 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let a = AtomicBitArray::new(8);
        a.set(8);
    }
}
