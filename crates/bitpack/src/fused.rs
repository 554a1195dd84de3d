//! Cache-line-fused slot layouts: payload words and their `q` bookkeeping
//! colocated in one 64-byte line group.
//!
//! The split stores ([`crate::BitArray`] / [`crate::AtomicBitArray`]) keep
//! the zero-slot count — the numerator of FreeBS's sampling probability
//! `q = m₀/M` — in a single counter away from the payload. That is free for
//! the exclusive store (the counter lives in a register-hot struct field)
//! but costs the concurrent store one *globally contended* atomic RMW per
//! fresh bit, on top of the payload line the update already missed on.
//!
//! The fused layout reshapes the array into 64-byte **line groups** of
//! eight `u64` words: seven payload words (448 bits / `7·⌊64/w⌋`
//! registers) followed by one metadata word holding the group's set-bit /
//! non-zero-register count. An update and its count maintenance then touch
//! the *same* cache line — the line the warm pass already pulled in — so
//! the per-edge cost of the FreeBS store drops to ~1.0 missed line, and
//! the concurrent store can retire a whole block of updates with a single
//! write to the global counter (see
//! [`crate::ConcurrentSlotStore::update_block`]).
//!
//! Slot numbering is **logical and layout-independent**: slot `i` of a
//! fused store is the same slot `i` of its split twin, so an engine over a
//! fused store produces bit-identical state and estimates to one over the
//! split store for the same edge stream (proptested in
//! `freesketch`'s `proptests.rs`). The price of fusion is a physical
//! memory overhead of 1/7 (the metadata words); [`SlotStore::memory_bits`]
//! keeps reporting the *logical* `M` (resp. `w·M`) so the paper's
//! equal-memory accounting is unchanged — [`FusedBitArray::memory_bytes`]
//! reports the physical footprint.

use crate::slotstore::{ConcurrentSlotStore, SlotStore};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Payload bits per 64-byte line group (seven `u64` payload words).
const GROUP_BITS: usize = 448;
/// `u64` words per line group: seven payload + one metadata count word.
const WORDS_PER_GROUP: usize = 8;

/// Payload word index and bit offset of logical bit `i`.
#[inline]
fn locate_bit(i: usize) -> (usize, u32) {
    let g = i / GROUP_BITS;
    let r = i - g * GROUP_BITS;
    (g * WORDS_PER_GROUP + (r >> 6), (r & 63) as u32)
}

/// A [`crate::BitArray`] twin whose words are arranged in fused line
/// groups: every 64-byte group carries its own set-bit count word, so bit
/// updates and their count maintenance share one cache line. Logical slot
/// numbering (and therefore every estimate built on it) is identical to
/// the split layout.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FusedBitArray {
    words: Vec<u64>,
    len: usize,
    zeros: usize,
}

impl FusedBitArray {
    /// Creates an all-zero fused bit array of `len` logical bits.
    ///
    /// # Panics
    /// Panics if `len == 0`.
    #[must_use]
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "bit array must be non-empty");
        Self {
            words: vec![0u64; len.div_ceil(GROUP_BITS) * WORDS_PER_GROUP],
            len,
            zeros: len,
        }
    }

    /// Number of logical bits (the paper's `M`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false: the constructor rejects empty arrays.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of zero bits (the paper's `m₀`), maintained exactly.
    #[must_use]
    pub fn zeros(&self) -> usize {
        self.zeros
    }

    /// Number of one bits.
    #[must_use]
    pub fn ones(&self) -> usize {
        self.len - self.zeros
    }

    /// Tests bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let (w, b) = locate_bit(i);
        (self.words[w] >> b) & 1 == 1
    }

    /// Sets bit `i`, returning `true` iff this call flipped it. The group's
    /// in-line count word is maintained in the same cache line touched by
    /// the payload write.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let (w, b) = locate_bit(i);
        let mask = 1u64 << b;
        let fresh = self.words[w] & mask == 0;
        self.words[w] |= mask;
        // Metadata word of the group: payload words have in-group index
        // 0..=6, so `w | 7` names the group's eighth (count) word.
        self.words[w | (WORDS_PER_GROUP - 1)] += u64::from(fresh);
        self.zeros -= usize::from(fresh);
        fresh
    }

    /// Sets every bit named in `slots`, recording in `fresh[i]` whether
    /// `slots[i]` flipped — the fused twin of [`crate::BitArray::set_many`]
    /// (duplicates within the block read fresh only on first occurrence).
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
            let (w, b) = locate_bit(slot);
            let mask = 1u64 << b;
            let was_zero = self.words[w] & mask == 0;
            self.words[w] |= mask;
            self.words[w | (WORDS_PER_GROUP - 1)] += u64::from(was_zero);
            *f = was_zero;
            flipped += usize::from(was_zero);
        }
        self.zeros -= flipped;
    }

    /// Load-only warm-up of the payload word holding bit `i` (see
    /// [`crate::BitArray::warm`] for the software-prefetch idiom).
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn warm(&self, i: usize) -> u64 {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[locate_bit(i).0]
    }

    /// Recomputes the zero count by popcount over the payload words.
    #[must_use]
    pub fn recount_zeros(&self) -> usize {
        let ones: u64 = self
            .words
            .chunks_exact(WORDS_PER_GROUP)
            .map(|g| {
                g[..WORDS_PER_GROUP - 1]
                    .iter()
                    .map(|w| u64::from(w.count_ones()))
                    .sum::<u64>()
            })
            .sum();
        self.len - usize::try_from(ones).unwrap_or(usize::MAX)
    }

    /// Bitwise OR of another fused array into this one (sketch union);
    /// group counts and the zero count are recomputed afterwards.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn union_with(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "union requires equal lengths");
        for (group, other_group) in self
            .words
            .chunks_exact_mut(WORDS_PER_GROUP)
            .zip(other.words.chunks_exact(WORDS_PER_GROUP))
        {
            let mut ones = 0u64;
            for (a, b) in group[..WORDS_PER_GROUP - 1]
                .iter_mut()
                .zip(&other_group[..WORDS_PER_GROUP - 1])
            {
                *a |= *b;
                ones += u64::from(a.count_ones());
            }
            group[WORDS_PER_GROUP - 1] = ones;
        }
        self.zeros = self.recount_zeros();
    }

    /// Iterates over the indices of set bits (ascending).
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        let len = self.len;
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let in_group = wi % WORDS_PER_GROUP;
            let base = (wi / WORDS_PER_GROUP) * GROUP_BITS + (in_group << 6);
            let word = if in_group == WORDS_PER_GROUP - 1 {
                0
            } else {
                w
            };
            FusedBitIter { word }
                .map(move |b| base + b)
                .filter(move |&i| i < len)
        })
    }

    /// Checks the structural invariants a freshly deserialized array must
    /// satisfy: the right word count for `len`, no stray bits past `len`,
    /// every group count matching its payload popcount, and a zero count
    /// matching the contents.
    ///
    /// # Errors
    /// A human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.len == 0 {
            return Err("fused bit array length is zero".to_string());
        }
        let expect = self.len.div_ceil(GROUP_BITS) * WORDS_PER_GROUP;
        if self.words.len() != expect {
            return Err(format!(
                "fused bit array has {} words, expected {} for {} bits",
                self.words.len(),
                expect,
                self.len
            ));
        }
        for (g, group) in self.words.chunks_exact(WORDS_PER_GROUP).enumerate() {
            let mut ones = 0u64;
            for (k, &w) in group[..WORDS_PER_GROUP - 1].iter().enumerate() {
                let base = g * GROUP_BITS + (k << 6);
                if base >= self.len {
                    if w != 0 {
                        return Err(format!("stray bits past length {}", self.len));
                    }
                } else if base + 64 > self.len && w >> (self.len - base) != 0 {
                    return Err(format!("stray bits past length {}", self.len));
                }
                ones += u64::from(w.count_ones());
            }
            if group[WORDS_PER_GROUP - 1] != ones {
                return Err(format!(
                    "group {g} count {} disagrees with payload ({ones})",
                    group[WORDS_PER_GROUP - 1]
                ));
            }
        }
        if self.zeros != self.recount_zeros() {
            return Err(format!(
                "zero count {} disagrees with contents ({})",
                self.zeros,
                self.recount_zeros()
            ));
        }
        Ok(())
    }

    /// Heap memory consumed by the fused payload **including** the per-group
    /// count words, in bytes — the physical 8/7 overhead over the logical
    /// `M` bits that [`SlotStore::memory_bits`] reports.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

struct FusedBitIter {
    word: u64,
}

impl Iterator for FusedBitIter {
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

impl SlotStore for FusedBitArray {
    const RANKED: bool = false;

    #[inline]
    fn len(&self) -> usize {
        self.len()
    }

    #[inline]
    fn width(&self) -> u8 {
        1
    }

    #[inline]
    fn load(&self, i: usize) -> u16 {
        u16::from(self.get(i))
    }

    #[inline]
    fn warm(&self, i: usize) -> u64 {
        self.warm(i)
    }

    #[inline]
    fn try_update(&mut self, i: usize, _value: u16) -> Option<u16> {
        self.set(i).then_some(0)
    }

    #[inline]
    fn update_many(
        &mut self,
        slots: &[usize],
        _values: &[u16],
        grew: &mut [bool],
        _old: &mut [u16],
    ) {
        self.set_many(slots, grew);
    }

    #[inline]
    fn zero_slots(&self) -> usize {
        self.zeros()
    }

    fn sum_pow2_neg(&self) -> f64 {
        self.zeros() as f64 + self.ones() as f64 * 0.5
    }

    #[inline]
    fn memory_bits(&self) -> usize {
        self.len()
    }

    fn merge_from(&mut self, other: &Self) {
        self.union_with(other);
    }

    fn validate(&self) -> Result<(), String> {
        self.validate()
    }
}

/// The lock-free twin of [`FusedBitArray`]: same line-group layout over
/// `AtomicU64` words, with the group count word updated in the already-hot
/// payload line. A global zero counter is still kept so `q`'s numerator
/// stays O(1) to read, but the block update path
/// ([`ConcurrentSlotStore::update_block`]) folds a whole block's growths
/// into **one** write to it — removing the per-growth globally contended
/// RMW the split [`crate::AtomicBitArray`] pays.
#[derive(Debug)]
pub struct AtomicFusedBitArray {
    words: Vec<AtomicU64>,
    len: usize,
    zeros: AtomicUsize,
}

impl AtomicFusedBitArray {
    /// Creates an all-zero atomic fused bit array of `len` logical bits.
    ///
    /// # Panics
    /// Panics if `len == 0`.
    #[must_use]
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "bit array must be non-empty");
        let n_words = len.div_ceil(GROUP_BITS) * WORDS_PER_GROUP;
        let mut words = Vec::with_capacity(n_words);
        words.resize_with(n_words, || AtomicU64::new(0));
        Self {
            words,
            len,
            zeros: AtomicUsize::new(len),
        }
    }

    /// Number of logical bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false: the constructor rejects empty arrays.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Current zero-bit count. Exact when no writes are in flight and every
    /// block update has retired (see
    /// [`ConcurrentSlotStore::update_block`]).
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
        let (w, b) = locate_bit(i);
        // ORDERING: relaxed-ok — a set bit carries no payload to synchronize
        // with: observing it early or late only shifts *when* an estimate
        // updates, never its correctness (monotone 0→1 writes).
        (self.words[w].load(Ordering::Relaxed) >> b) & 1 == 1
    }

    /// Atomically sets bit `i`, returning `true` iff this call flipped it.
    /// The winner maintains both the in-line group count and the global
    /// zero counter.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&self, i: usize) -> bool {
        let fresh = self.set_in_line(i);
        if fresh {
            // ORDERING: relaxed-ok — counter decrement rides the same RMW
            // total order; readers treat it as advisory (see zeros()).
            self.zeros.fetch_sub(1, Ordering::Relaxed);
        }
        fresh
    }

    /// Sets bit `i` maintaining only the in-line group count, leaving the
    /// global zero counter to the caller — the per-edge body of
    /// [`ConcurrentSlotStore::update_block`], which settles the global
    /// counter once per block.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    fn set_in_line(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let (w, b) = locate_bit(i);
        let mask = 1u64 << b;
        // ORDERING: relaxed-ok — the per-word RMW total order alone picks a
        // unique winner for each bit; no other memory is published, so no
        // release edge is needed.
        let prev = self.words[w].fetch_or(mask, Ordering::Relaxed);
        let fresh = prev & mask == 0;
        if fresh {
            // ORDERING: relaxed-ok — the group count word lives in the cache
            // line the fetch_or above just owned, and is advisory bookkeeping
            // (validated against payload popcounts at quiescence), so the RMW
            // total order is all that is needed.
            self.words[w | (WORDS_PER_GROUP - 1)].fetch_add(1, Ordering::Relaxed);
        }
        fresh
    }

    /// Load-only warm-up of the payload word holding bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn warm(&self, i: usize) -> u64 {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        // ORDERING: relaxed-ok — the value is discarded (cache-warming only);
        // any ordering stronger than Relaxed would just slow the prefetch.
        self.words[locate_bit(i).0].load(Ordering::Relaxed)
    }

    /// Recomputes the zero count by popcount over the payload words
    /// (quiescent state only).
    #[must_use]
    pub fn recount_zeros(&self) -> usize {
        let mut ones = 0usize;
        for (wi, w) in self.words.iter().enumerate() {
            if wi % WORDS_PER_GROUP == WORDS_PER_GROUP - 1 {
                continue;
            }
            // ORDERING: relaxed-ok — documented quiescent-only API; the caller's
            // thread join supplies the happens-before edge for exactness.
            ones += w.load(Ordering::Relaxed).count_ones() as usize;
        }
        self.len - ones
    }

    /// Bitwise OR of another fused array into this one (concurrent sketch
    /// union); group counts and the global zero counter are settled by the
    /// flipping side.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn union_with(&self, other: &Self) {
        assert_eq!(self.len, other.len, "union requires equal lengths");
        let mut flipped = 0usize;
        for (wi, (a, b)) in self.words.iter().zip(&other.words).enumerate() {
            if wi % WORDS_PER_GROUP == WORDS_PER_GROUP - 1 {
                continue;
            }
            // ORDERING: relaxed-ok — monotone bits carry no payload; the
            // fetch_or RMW total order alone decides which bits this call
            // freshly sets (see set()).
            let bits = b.load(Ordering::Relaxed);
            if bits != 0 {
                let prev = a.fetch_or(bits, Ordering::Relaxed);
                let fresh = (bits & !prev).count_ones() as usize;
                if fresh > 0 {
                    // ORDERING: relaxed-ok — advisory in-line group count, same
                    // as set_in_line(); validated only at quiescence.
                    self.words[wi | (WORDS_PER_GROUP - 1)]
                        .fetch_add(fresh as u64, Ordering::Relaxed);
                    flipped += fresh;
                }
            }
        }
        if flipped > 0 {
            // ORDERING: relaxed-ok — advisory counter, same as set().
            self.zeros.fetch_sub(flipped, Ordering::Relaxed);
        }
    }

    /// Converts into a sequential [`FusedBitArray`] snapshot (quiescent
    /// state for exactness).
    #[must_use]
    pub fn snapshot(&self) -> FusedBitArray {
        let mut out = FusedBitArray::new(self.len);
        for (wi, w) in self.words.iter().enumerate() {
            let in_group = wi % WORDS_PER_GROUP;
            if in_group == WORDS_PER_GROUP - 1 {
                continue;
            }
            // ORDERING: relaxed-ok — snapshot of monotone bits; taken at
            // quiescence for exactness, and any interleaved view is still a
            // valid (slightly stale) sketch state.
            let mut bits = w.load(Ordering::Relaxed);
            let base = (wi / WORDS_PER_GROUP) * GROUP_BITS + (in_group << 6);
            while bits != 0 {
                let b_off = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let idx = base + b_off;
                if idx < self.len {
                    out.set(idx);
                }
            }
        }
        out
    }
}

impl ConcurrentSlotStore for AtomicFusedBitArray {
    const RANKED: bool = false;

    #[inline]
    fn len(&self) -> usize {
        self.len()
    }

    #[inline]
    fn width(&self) -> u8 {
        1
    }

    #[inline]
    fn load(&self, i: usize) -> u16 {
        u16::from(self.get(i))
    }

    #[inline]
    fn warm(&self, i: usize) -> u64 {
        self.warm(i)
    }

    #[inline]
    fn try_update(&self, i: usize, _value: u16) -> Option<u16> {
        self.set(i).then_some(0)
    }

    fn update_block(&self, slots: &[usize], values: &[u16], grew: &mut [bool], old: &mut [u16]) {
        assert!(
            slots.len() == values.len() && slots.len() == grew.len() && slots.len() == old.len(),
            "batch buffer length mismatch"
        );
        let mut growths = 0usize;
        for (g, &slot) in grew.iter_mut().zip(slots) {
            let fresh = self.set_in_line(slot);
            *g = fresh;
            growths += usize::from(fresh);
        }
        if growths > 0 {
            // ORDERING: relaxed-ok — one advisory-counter settlement per block
            // instead of one per growth; readers only need exactness at
            // quiescence (see zeros()), which thread-join provides.
            self.zeros.fetch_sub(growths, Ordering::Relaxed);
        }
    }

    #[inline]
    fn zero_slots(&self) -> usize {
        self.zeros()
    }

    fn recount_zero_slots(&self) -> usize {
        self.recount_zeros()
    }

    fn sum_pow2_neg(&self) -> f64 {
        let zeros = self.recount_zeros();
        zeros as f64 + (self.len() - zeros) as f64 * 0.5
    }

    #[inline]
    fn memory_bits(&self) -> usize {
        self.len()
    }

    fn merge_from(&self, other: &Self) {
        self.union_with(other);
    }
}

/// A [`crate::PackedArray`] twin in the fused line-group layout: each
/// 64-byte group holds seven payload words of non-straddling `w`-bit cells
/// (`⌊64/w⌋` per word, like [`crate::AtomicPackedArray`]) plus one count
/// word tracking the group's non-zero registers. Logical register
/// numbering matches the split layout, so FreeRS over either store
/// produces identical register values and estimates.
///
/// There is deliberately no atomic twin: FreeRS's `Z` bookkeeping is a
/// single shared accumulator whatever the layout, so the fused layout buys
/// the concurrent register path nothing — the exclusive engine is where
/// the colocated count pays.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FusedPackedArray {
    words: Vec<u64>,
    len: usize,
    width: u8,
    cells_per_word: usize,
}

impl FusedPackedArray {
    /// Creates an all-zero fused register array.
    ///
    /// # Panics
    /// Panics if `len == 0` or `width ∉ 1..=16`.
    #[must_use]
    pub fn new(len: usize, width: u8) -> Self {
        assert!(len > 0, "register array must be non-empty");
        assert!((1..=16).contains(&width), "width {width} must be in 1..=16");
        let cells_per_word = 64 / usize::from(width);
        let regs_per_group = (WORDS_PER_GROUP - 1) * cells_per_word;
        let n_words = len.div_ceil(regs_per_group) * WORDS_PER_GROUP;
        Self {
            words: vec![0u64; n_words],
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

    /// Registers per line group (seven payload words of `⌊64/w⌋` cells).
    #[inline]
    fn regs_per_group(&self) -> usize {
        (WORDS_PER_GROUP - 1) * self.cells_per_word
    }

    /// Payload word index and bit offset of register `i`.
    #[inline]
    fn locate(&self, i: usize) -> (usize, u32) {
        let rpg = self.regs_per_group();
        let g = i / rpg;
        let r = i - g * rpg;
        let word = g * WORDS_PER_GROUP + r / self.cells_per_word;
        let off = (r % self.cells_per_word) as u32 * u32::from(self.width);
        (word, off)
    }

    /// Loads register `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn load(&self, i: usize) -> u16 {
        assert!(i < self.len, "register index {i} out of range {}", self.len);
        let (word, off) = self.locate(i);
        let mask = (1u64 << self.width) - 1;
        ((self.words[word] >> off) & mask) as u16
    }

    /// `R[i] ← max(R[i], value)`, returning the previous value iff the
    /// register grew; the group's non-zero count word is maintained in the
    /// same cache line.
    ///
    /// # Panics
    /// Panics if `i >= len` or `value > max_value()`.
    #[inline]
    pub fn store_max(&mut self, i: usize, value: u16) -> Option<u16> {
        assert!(i < self.len, "register index {i} out of range {}", self.len);
        assert!(
            value <= self.max_value(),
            "value {value} exceeds {}-bit register capacity",
            self.width
        );
        let (word, off) = self.locate(i);
        let mask = (1u64 << self.width) - 1;
        let old = ((self.words[word] >> off) & mask) as u16;
        if value <= old {
            return None;
        }
        self.words[word] = (self.words[word] & !(mask << off)) | (u64::from(value) << off);
        self.words[word | (WORDS_PER_GROUP - 1)] += u64::from(old == 0);
        Some(old)
    }

    /// Load-only warm-up of the payload word holding register `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn warm(&self, i: usize) -> u64 {
        assert!(i < self.len, "register index {i} out of range {}", self.len);
        self.words[self.locate(i).0]
    }

    /// Iterates over all register values.
    pub fn iter(&self) -> impl Iterator<Item = u16> + '_ {
        (0..self.len).map(move |i| self.load(i))
    }

    /// Number of zero registers, summed from the in-line group counts.
    #[must_use]
    pub fn count_zeros(&self) -> usize {
        let nonzero: u64 = self
            .words
            .chunks_exact(WORDS_PER_GROUP)
            .map(|g| g[WORDS_PER_GROUP - 1])
            .sum();
        self.len - usize::try_from(nonzero).unwrap_or(usize::MAX)
    }

    /// `Σ_i 2^{-R[i]}` over all registers — FreeRS's `Z`.
    #[must_use]
    pub fn sum_pow2_neg(&self) -> f64 {
        self.iter()
            .map(|v| f64::from_bits((1023u64.saturating_sub(u64::from(v))) << 52))
            .sum()
    }

    /// Merges another fused array by element-wise max (HLL union).
    ///
    /// # Panics
    /// Panics if geometry differs.
    pub fn merge_max(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "merge requires equal lengths");
        assert_eq!(self.width, other.width, "merge requires equal widths");
        for i in 0..self.len {
            let v = other.load(i);
            if v > self.load(i) {
                self.store_max(i, v);
            }
        }
    }

    /// Checks the structural invariants a freshly deserialized array must
    /// satisfy: geometry consistency, no stray bits in spare or
    /// past-the-end cells, and group counts matching the payload.
    ///
    /// # Errors
    /// A human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.len == 0 {
            return Err("fused register array length is zero".to_string());
        }
        if !(1..=16).contains(&self.width) {
            return Err(format!("register width {} outside 1..=16", self.width));
        }
        if self.cells_per_word != 64 / usize::from(self.width) {
            return Err(format!(
                "cells-per-word {} disagrees with width {}",
                self.cells_per_word, self.width
            ));
        }
        let rpg = self.regs_per_group();
        let expect = self.len.div_ceil(rpg) * WORDS_PER_GROUP;
        if self.words.len() != expect {
            return Err(format!(
                "fused register array has {} words, expected {} for {} registers of {} bits",
                self.words.len(),
                expect,
                self.len,
                self.width
            ));
        }
        let payload_bits = self.cells_per_word * usize::from(self.width);
        let spare_mask = if payload_bits == 64 {
            0
        } else {
            !0u64 << payload_bits
        };
        for (g, group) in self.words.chunks_exact(WORDS_PER_GROUP).enumerate() {
            let mut nonzero = 0u64;
            for (k, &w) in group[..WORDS_PER_GROUP - 1].iter().enumerate() {
                if w & spare_mask != 0 {
                    return Err(format!("stray bits in spare cell bits of group {g}"));
                }
                let base = g * rpg + k * self.cells_per_word;
                for c in 0..self.cells_per_word {
                    let off = (c * usize::from(self.width)) as u32;
                    let v = (w >> off) & ((1u64 << self.width) - 1);
                    if base + c >= self.len {
                        if v != 0 {
                            return Err(format!("stray value past register {}", self.len));
                        }
                    } else {
                        nonzero += u64::from(v != 0);
                    }
                }
            }
            if group[WORDS_PER_GROUP - 1] != nonzero {
                return Err(format!(
                    "group {g} count {} disagrees with payload ({nonzero})",
                    group[WORDS_PER_GROUP - 1]
                ));
            }
        }
        Ok(())
    }

    /// Heap memory consumed including the per-group count words, in bytes.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

impl SlotStore for FusedPackedArray {
    const RANKED: bool = true;

    #[inline]
    fn len(&self) -> usize {
        self.len()
    }

    #[inline]
    fn width(&self) -> u8 {
        self.width()
    }

    #[inline]
    fn load(&self, i: usize) -> u16 {
        self.load(i)
    }

    #[inline]
    fn warm(&self, i: usize) -> u64 {
        self.warm(i)
    }

    #[inline]
    fn try_update(&mut self, i: usize, value: u16) -> Option<u16> {
        self.store_max(i, value)
    }

    fn update_many(&mut self, slots: &[usize], values: &[u16], grew: &mut [bool], old: &mut [u16]) {
        assert!(
            slots.len() == values.len() && slots.len() == grew.len() && slots.len() == old.len(),
            "batch buffer length mismatch"
        );
        for i in 0..slots.len() {
            let prev = self.store_max(slots[i], values[i]);
            grew[i] = prev.is_some();
            if let Some(p) = prev {
                old[i] = p;
            }
        }
    }

    fn zero_slots(&self) -> usize {
        self.count_zeros()
    }

    fn sum_pow2_neg(&self) -> f64 {
        self.sum_pow2_neg()
    }

    #[inline]
    fn memory_bits(&self) -> usize {
        self.len() * usize::from(self.width())
    }

    fn merge_from(&mut self, other: &Self) {
        self.merge_max(other);
    }

    fn validate(&self) -> Result<(), String> {
        self.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AtomicBitArray, BitArray, PackedArray};
    use std::sync::Arc;

    fn lcg(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn fused_bits_match_split_bits_slot_for_slot() {
        let mut fused = FusedBitArray::new(2000);
        let mut split = BitArray::new(2000);
        let mut st = 7u64;
        for _ in 0..5000 {
            let i = (lcg(&mut st) % 2000) as usize;
            assert_eq!(fused.set(i), split.set(i), "slot {i}");
        }
        assert_eq!(fused.zeros(), split.zeros());
        assert_eq!(fused.recount_zeros(), split.recount_zeros());
        for i in 0..2000 {
            assert_eq!(fused.get(i), split.get(i), "slot {i}");
        }
        assert!(fused.validate().is_ok());
    }

    #[test]
    fn group_boundary_bits() {
        // Bits 447/448 straddle the first group boundary; 449th group word
        // is the count word and must never hold payload.
        let mut b = FusedBitArray::new(900);
        assert!(b.set(447));
        assert!(b.set(448));
        assert!(b.set(899));
        assert!(b.get(447) && b.get(448) && b.get(899));
        assert_eq!(b.zeros(), 897);
        assert!(b.validate().is_ok());
        let ones: Vec<usize> = b.iter_ones().collect();
        assert_eq!(ones, vec![447, 448, 899]);
    }

    #[test]
    fn set_many_matches_scalar_sets() {
        let slots: Vec<usize> = vec![3, 447, 3, 448, 899, 0, 450, 447];
        let mut batch = FusedBitArray::new(900);
        let mut fresh = vec![false; slots.len()];
        batch.set_many(&slots, &mut fresh);

        let mut scalar = FusedBitArray::new(900);
        let expected: Vec<bool> = slots.iter().map(|&s| scalar.set(s)).collect();
        assert_eq!(fresh, expected);
        assert_eq!(batch, scalar);
        assert!(batch.validate().is_ok());
    }

    #[test]
    fn union_recounts_groups() {
        let mut a = FusedBitArray::new(1000);
        let mut b = FusedBitArray::new(1000);
        a.set(1);
        a.set(448);
        b.set(448);
        b.set(999);
        a.union_with(&b);
        assert!(a.get(1) && a.get(448) && a.get(999));
        assert_eq!(a.ones(), 3);
        assert!(a.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_group_count() {
        let mut b = FusedBitArray::new(900);
        b.set(3);
        b.words[7] = 5; // lie about group 0's count
        assert!(b.validate().is_err());
    }

    #[test]
    fn memory_overhead_is_one_seventh() {
        let b = FusedBitArray::new(448 * 10);
        assert_eq!(SlotStore::memory_bits(&b), 4480);
        assert_eq!(b.memory_bytes(), 10 * 64);
    }

    #[test]
    fn atomic_fused_matches_sequential() {
        let a = AtomicFusedBitArray::new(1500);
        let mut b = FusedBitArray::new(1500);
        for i in (0..1500).step_by(7) {
            assert_eq!(a.set(i), b.set(i));
        }
        assert_eq!(a.zeros(), b.zeros());
        assert_eq!(a.recount_zeros(), b.recount_zeros());
        assert_eq!(a.snapshot(), b);
    }

    #[test]
    fn atomic_fused_exactly_one_winner_per_bit() {
        let arr = Arc::new(AtomicFusedBitArray::new(4096));
        let wins: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let arr = Arc::clone(&arr);
                    s.spawn(move || (0..4096).filter(|&i| arr.set(i)).count())
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("thread panicked"))
                .sum()
        });
        assert_eq!(wins, 4096);
        assert_eq!(arr.zeros(), 0);
        assert_eq!(arr.recount_zeros(), 0);
        assert!(arr.snapshot().validate().is_ok());
    }

    #[test]
    fn update_block_settles_global_counter_once() {
        let arr = AtomicFusedBitArray::new(1000);
        let slots = [3usize, 447, 3, 448, 999];
        let values = [1u16; 5];
        let mut grew = [false; 5];
        let mut old = [0u16; 5];
        arr.update_block(&slots, &values, &mut grew, &mut old);
        assert_eq!(grew, [true, true, false, true, true]);
        assert_eq!(arr.zeros(), 996);
        assert_eq!(arr.recount_zeros(), 996);

        // The default (per-edge) path on a split store agrees bit for bit.
        let split = AtomicBitArray::new(1000);
        let mut grew2 = [false; 5];
        let mut old2 = [0u16; 5];
        split.update_block(&slots, &values, &mut grew2, &mut old2);
        assert_eq!(grew, grew2);
        assert_eq!(ConcurrentSlotStore::zero_slots(&split), 996);
    }

    #[test]
    fn fused_union_with_concurrent() {
        let a = AtomicFusedBitArray::new(1000);
        let b = AtomicFusedBitArray::new(1000);
        a.set(1);
        b.set(2);
        b.set(1);
        ConcurrentSlotStore::merge_from(&a, &b);
        assert!(a.get(1) && a.get(2));
        assert_eq!(a.zeros(), a.recount_zeros());
        assert!(a.snapshot().validate().is_ok());
    }

    #[test]
    fn fused_registers_match_split_registers() {
        let mut fused = FusedPackedArray::new(500, 5);
        let mut split = PackedArray::new(500, 5);
        let mut st = 42u64;
        for _ in 0..3000 {
            let i = (lcg(&mut st) % 500) as usize;
            let v = (lcg(&mut st) % 32) as u16;
            assert_eq!(fused.store_max(i, v), split.store_max(i, v), "reg {i}");
        }
        for i in 0..500 {
            assert_eq!(fused.load(i), split.load(i), "reg {i}");
        }
        assert_eq!(fused.count_zeros(), split.count_zeros());
        assert!((fused.sum_pow2_neg() - split.sum_pow2_neg()).abs() < 1e-9);
        assert!(fused.validate().is_ok());
    }

    #[test]
    fn fused_packed_group_geometry() {
        // width 5 → 12 cells/word, 84 regs/group: registers 83/84 cross the
        // first group boundary.
        let mut p = FusedPackedArray::new(200, 5);
        assert_eq!(p.store_max(83, 7), Some(0));
        assert_eq!(p.store_max(84, 9), Some(0));
        assert_eq!(p.load(83), 7);
        assert_eq!(p.load(84), 9);
        assert_eq!(p.load(82), 0);
        assert_eq!(p.load(85), 0);
        assert!(p.validate().is_ok());
        assert_eq!(SlotStore::memory_bits(&p), 1000);
    }

    #[test]
    fn fused_packed_merge_max() {
        let mut a = FusedPackedArray::new(100, 5);
        let mut b = FusedPackedArray::new(100, 5);
        a.store_max(0, 5);
        b.store_max(0, 9);
        b.store_max(84, 3);
        a.merge_max(&b);
        assert_eq!(a.load(0), 9);
        assert_eq!(a.load(84), 3);
        assert!(a.validate().is_ok());
    }

    #[test]
    fn fused_packed_validate_rejects_bad_count() {
        let mut p = FusedPackedArray::new(100, 5);
        p.store_max(3, 7);
        p.words[7] = 9;
        assert!(p.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fused_bit_out_of_range_panics() {
        let mut b = FusedBitArray::new(10);
        b.set(10);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn fused_packed_overflow_panics() {
        let mut p = FusedPackedArray::new(8, 5);
        p.store_max(0, 32);
    }
}
