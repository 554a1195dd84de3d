//! Lock-free bit array for the concurrent FreeBS extension.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A fixed-length bit array whose bits can be set concurrently from many
/// threads without locks.
///
/// The zero count is maintained with a relaxed atomic counter, decremented
/// only by the thread that actually flips a bit (the `fetch_or` winner), so
/// it is exact once all writers quiesce. [`AtomicBitArray::set_many`]
/// settles it once per block, so during concurrent operation a reader may
/// observe a count that lags by up to one block of flips per other writer
/// — the concurrent FreeBS engine tolerates this (it perturbs `q` by at
/// most `k/M` for `k` unsettled flips), and the workspace's
/// `tests/concurrent_equivalence.rs` and core proptests bound the
/// resulting estimate skew.
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

    /// Current zero-bit count. Exact when no writes are in flight.
    #[must_use]
    pub fn zeros(&self) -> usize {
        // ORDERING: relaxed-ok — advisory monotone counter; callers that need
        // an exact value read at quiescence, where thread-join already
        // provides the happens-before edge.
        self.zeros.load(Ordering::Relaxed)
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

    /// Atomically sets bit `i`, returning `true` iff this call flipped it.
    /// Exactly one concurrent caller wins for each bit.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let mask = 1u64 << (i & 63);
        // ORDERING: relaxed-ok — the per-word RMW total order alone picks a
        // unique winner for each bit; no other memory is published, so no
        // release edge is needed.
        let prev = self.words[i >> 6].fetch_or(mask, Ordering::Relaxed);
        let fresh = prev & mask == 0;
        if fresh {
            // ORDERING: relaxed-ok — counter decrement rides the same RMW
            // total order; readers treat it as advisory (see zeros()).
            self.zeros.fetch_sub(1, Ordering::Relaxed);
        }
        fresh
    }

    /// Sets every bit named in `slots`, recording in `fresh[i]` whether
    /// this call flipped bit `slots[i]` — the block form of
    /// [`AtomicBitArray::set`]. A relaxed load skips the `fetch_or` for a
    /// bit that is already set (it can never be won again), and the zero
    /// count is settled by one `fetch_sub` for the whole block.
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
            // ORDERING: relaxed-ok — bits are monotone, so a set bit seen by
            // any load stays set and this call cannot win it; an unset one
            // goes to the fetch_or, whose RMW total order picks the winner
            // (see set()).
            let won = word.load(Ordering::Relaxed) & mask == 0
                && word.fetch_or(mask, Ordering::Relaxed) & mask == 0;
            *f = won;
            flipped += usize::from(won);
        }
        if flipped > 0 {
            // ORDERING: relaxed-ok — advisory counter, same as set().
            self.zeros.fetch_sub(flipped, Ordering::Relaxed);
        }
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

    /// Bitwise OR of another array into this one (concurrent sketch
    /// union). Safe to run while writers are active on either side; the
    /// zero count is exact once all writers (including this merge)
    /// quiesce.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn union_with(&self, other: &Self) {
        assert_eq!(self.len, other.len, "union requires equal lengths");
        let mut flipped = 0usize;
        for (a, b) in self.words.iter().zip(&other.words) {
            // ORDERING: relaxed-ok — monotone bits carry no payload; the
            // fetch_or RMW total order alone decides which bits this call
            // freshly sets (see set()).
            let bits = b.load(Ordering::Relaxed);
            if bits != 0 {
                let prev = a.fetch_or(bits, Ordering::Relaxed);
                flipped += (bits & !prev).count_ones() as usize;
            }
        }
        if flipped > 0 {
            // ORDERING: relaxed-ok — advisory counter, same as set().
            self.zeros.fetch_sub(flipped, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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
    fn exactly_one_winner_per_bit() {
        // Per bit, and in 512-bit blocks whose flips settle the zero count
        // once per block.
        for blocks in [false, true] {
            let arr = Arc::new(AtomicBitArray::new(4096));
            let threads = 8;
            let wins: usize = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        let arr = Arc::clone(&arr);
                        s.spawn(move || {
                            if !blocks {
                                return (0..4096).filter(|&i| arr.set(i)).count();
                            }
                            let slots: Vec<usize> = (0..4096).collect();
                            let mut fresh = [false; 512];
                            let mut won = 0;
                            for block in slots.chunks(512) {
                                arr.set_many(block, &mut fresh);
                                won += fresh.iter().filter(|&&f| f).count();
                            }
                            won
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("thread panicked"))
                    .sum()
            });
            assert_eq!(wins, 4096, "each bit must be flipped exactly once overall");
            assert_eq!(arr.zeros(), 0);
            assert_eq!(arr.recount_zeros(), 0);
        }
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
