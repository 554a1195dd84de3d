//! The storage seam between the paper's two estimators.
//!
//! FreeBS (§IV-A) and FreeRS (§IV-B) run the *same* pipeline — hash the
//! edge to a slot of one shared array, attempt a monotone update, and on
//! success credit the user `1/q(t)` — and differ only in what a slot
//! stores: a **bit** (update = set, `q` = zero fraction) or a **rank
//! register** (update = max, `q = Σ 2^{-R[j]} / M`). [`SlotStore`]
//! captures that seam for the exclusive (`&mut self`) estimators and
//! [`ConcurrentSlotStore`] for the shared (`&self`) ones, which one writer
//! at a time updates while any thread reads, so the estimator core in
//! `freesketch` is written once and instantiated four times:
//!
//! | store | slot holds | update | exclusive | shared |
//! |-------|-----------|--------|-----------|------------|
//! | [`BitArray`]          | 1 bit        | set | ✓ | |
//! | [`PackedArray`]       | w-bit register | max | ✓ | |
//! | [`AtomicBitArray`]    | 1 bit        | relaxed load + store | | ✓ |
//! | [`AtomicPackedArray`] | w-bit register | relaxed load + store of the max | | ✓ |
//!
//! The value handed to an update is a saturated geometric rank for
//! register stores and ignored by bit stores ([`SlotStore::RANKED`] tells
//! the engine whether deriving one is worth the mixer call). Deriving the
//! rank stays the caller's job so this crate keeps zero hashing
//! dependencies.

use crate::{AtomicBitArray, AtomicPackedArray, BitArray, PackedArray};

/// Uniform slot-level access to a shared sketch array, for estimators that
/// own their storage exclusively (`&mut self` updates).
///
/// The contract every implementation upholds:
///
/// * updates are **monotone** — a slot only ever grows (bit: 0→1,
///   register: max), so replaying an edge can never change the array;
/// * [`SlotStore::try_update`] returns `Some(previous)` **iff** the slot
///   changed — the paper's indicator `1(array changed)` that gates the
///   Horvitz–Thompson credit;
/// * [`SlotStore::zero_slots`] is exact at all times (bit stores maintain
///   it incrementally; register stores may scan).
pub trait SlotStore {
    /// True when updates carry a geometric rank (register stores). Bit
    /// stores ignore the update value entirely, so callers can skip the
    /// rank derivation.
    const RANKED: bool;

    /// Number of slots — the paper's `M`.
    fn len(&self) -> usize;

    /// Never true: every store rejects zero-length construction.
    fn is_empty(&self) -> bool {
        false
    }

    /// Bits per slot — the paper's `w` (1 for bit stores).
    fn width(&self) -> u8;

    /// Current value of slot `i` (0 or 1 for bit stores).
    fn load(&self, i: usize) -> u16;

    /// Load-only warm-up of the word holding slot `i` (the crate's software
    /// prefetch — see [`BitArray::warm`]).
    fn warm(&self, i: usize) -> u64;

    /// Monotone update: bit stores set slot `i`, register stores take
    /// `max(R[i], value)`. Returns the previous value iff the slot changed.
    fn try_update(&mut self, i: usize, value: u16) -> Option<u16>;

    /// Block form of [`SlotStore::try_update`]: applies every
    /// `(slots[i], values[i])` update in order, recording in `grew[i]`
    /// whether slot `slots[i]` changed and, where it did, its previous
    /// value in `old[i]` (`old` entries for unchanged slots are
    /// unspecified; bit stores never write `old` — the previous value of a
    /// freshly set bit is always 0).
    ///
    /// # Panics
    /// Panics if the buffer lengths disagree or any slot is out of range.
    fn update_many(&mut self, slots: &[usize], values: &[u16], grew: &mut [bool], old: &mut [u16]);

    /// Number of slots still at zero (the paper's `m₀` for bit stores).
    /// O(1) for bit stores, O(M) scan for register stores.
    fn zero_slots(&self) -> usize;

    /// `Σ_j 2^{-R[j]}` over all slots — FreeRS's `Z`. For a bit store this
    /// is `m₀ + (M − m₀)/2`, which the estimators never use.
    fn sum_pow2_neg(&self) -> f64;

    /// Bits of sketch memory, matching the paper's accounting (`M` for bit
    /// stores, `w·M` for register stores).
    fn memory_bits(&self) -> usize;

    /// Slot-wise union of `other` into `self` (bit: OR, register: max) —
    /// the array half of sketch merge. Both stores must share geometry;
    /// callers (engine merge) check configs first and surface a typed
    /// error, so the panic here is defense in depth.
    ///
    /// # Panics
    /// Panics if geometry (length or width) differs.
    fn merge_from(&mut self, other: &Self);

    /// Checks the structural invariants a freshly deserialized store must
    /// satisfy (word counts, stray bits, maintained counters). See
    /// [`BitArray::validate`]/[`PackedArray::validate`].
    ///
    /// # Errors
    /// A human-readable description of the first violated invariant.
    fn validate(&self) -> Result<(), String>;
}

/// [`SlotStore`]'s shared counterpart: monotone updates through `&self`,
/// with the same change-indicator contract, while any number of threads
/// read.
///
/// **One writer at a time.** An update is a relaxed load and a relaxed
/// store of the slot's word, not a read-modify-write, so two updates at
/// once could lose one of them. Callers must not run two writes
/// ([`ConcurrentSlotStore::try_update`],
/// [`ConcurrentSlotStore::update_block`],
/// [`ConcurrentSlotStore::merge_from`]) on one store at the same time; the
/// concurrent engine in `freesketch` holds its writer lock across each.
/// Slot loads and scans run under that lock or while no writer runs (see
/// [`ConcurrentSlotStore::load`]).
pub trait ConcurrentSlotStore: Send + Sync {
    /// See [`SlotStore::RANKED`].
    const RANKED: bool;

    /// Number of slots.
    fn len(&self) -> usize;

    /// Never true: every store rejects zero-length construction.
    fn is_empty(&self) -> bool {
        false
    }

    /// Bits per slot (1 for bit stores).
    fn width(&self) -> u8;

    /// Current value of slot `i` (relaxed loads), by the one writer or
    /// while no writer runs: a register of [`AtomicPackedArray`] may
    /// straddle two words, which the writer stores one after the other, so
    /// a load beside it could see half an update. The engine loads slots
    /// only under its writer lock (updates, and `merge` with its `resync`,
    /// whose `other` is quiescent) or at quiescence (`q_discrepancy`, and
    /// snapshot capture under `serve`'s ingest gate).
    fn load(&self, i: usize) -> u16;

    /// Load-only warm-up of the word holding slot `i`.
    fn warm(&self, i: usize) -> u64;

    /// Monotone update by the one writer; `Some(previous)` iff this call
    /// changed the slot.
    fn try_update(&self, i: usize, value: u16) -> Option<u16>;

    /// Block form of [`ConcurrentSlotStore::try_update`], by the one
    /// writer: applies every `(slots[i], values[i])` update in order,
    /// recording in `grew[i]` whether slot `slots[i]` changed and, where it
    /// did, its previous value in `old[i]` (`old` entries for unchanged
    /// slots are unspecified; bit stores never write `old`).
    ///
    /// The default is the per-edge loop; a store with block-amortizable
    /// bookkeeping may override it to settle a counter once per block
    /// instead of once per growth. [`AtomicBitArray`] does: its zero count
    /// is stored once at the end of the block, so a reader of
    /// [`ConcurrentSlotStore::zero_slots`] may see it one block behind,
    /// while the writer reads it settled between blocks.
    ///
    /// # Panics
    /// Panics if the buffer lengths disagree or any slot is out of range.
    fn update_block(&self, slots: &[usize], values: &[u16], grew: &mut [bool], old: &mut [u16]) {
        assert!(
            slots.len() == values.len() && slots.len() == grew.len() && slots.len() == old.len(),
            "batch buffer length mismatch"
        );
        for i in 0..slots.len() {
            match self.try_update(slots[i], values[i]) {
                Some(prev) => {
                    grew[i] = true;
                    old[i] = prev;
                }
                None => grew[i] = false,
            }
        }
    }

    /// Zero-slot count: exact for the writer between its updates, and at
    /// most the block in flight behind for a reader (bit stores keep it,
    /// see [`ConcurrentSlotStore::update_block`]; register stores scan).
    fn zero_slots(&self) -> usize;

    /// Zero-slot count recomputed by a full scan of the slot contents
    /// (quiescent state only) — the ground truth [`Self::zero_slots`]'s
    /// maintained counter is checked against.
    fn recount_zero_slots(&self) -> usize;

    /// `Σ_j 2^{-R[j]}` (quiescent-state scan).
    fn sum_pow2_neg(&self) -> f64;

    /// Bits of sketch memory.
    fn memory_bits(&self) -> usize;

    /// Slot-wise union of `other` into `self` (bit: OR, register: max),
    /// by `self`'s one writer.
    ///
    /// # Panics
    /// Panics if geometry differs (callers check configs first).
    fn merge_from(&self, other: &Self);
}

/// Raw-word persistence for the four stores: the backing
/// `u64` words out, one at a time, and a validated store back in.
/// Engine snapshots write each store as its raw words and rebuild it
/// through [`WordStore::from_words`], so a restore never trusts the bytes
/// it reads.
pub trait WordStore: Sized {
    /// Number of backing words.
    fn word_count(&self) -> usize;

    /// Backing word `i` in storage order (a relaxed load for the atomic
    /// stores, exact once writers quiesce).
    fn word(&self, i: usize) -> u64;

    /// Rebuilds a store of `len` slots, `width` bits each, from its
    /// backing words.
    ///
    /// # Errors
    /// The first violated invariant: zero length, a width the store does
    /// not support, a word count that does not match the geometry, or
    /// bits set outside the slots.
    fn from_words(len: usize, width: u8, words: Vec<u64>) -> Result<Self, String>;
}

impl SlotStore for BitArray {
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

impl SlotStore for PackedArray {
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

impl ConcurrentSlotStore for AtomicBitArray {
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

    #[inline]
    fn update_block(&self, slots: &[usize], _values: &[u16], grew: &mut [bool], _old: &mut [u16]) {
        self.set_many(slots, grew);
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

impl ConcurrentSlotStore for AtomicPackedArray {
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
    fn try_update(&self, i: usize, value: u16) -> Option<u16> {
        self.store_max(i, value)
    }

    fn zero_slots(&self) -> usize {
        (0..self.len()).filter(|&i| self.load(i) == 0).count()
    }

    fn recount_zero_slots(&self) -> usize {
        ConcurrentSlotStore::zero_slots(self)
    }

    fn sum_pow2_neg(&self) -> f64 {
        self.sum_pow2_neg()
    }

    #[inline]
    fn memory_bits(&self) -> usize {
        self.len() * usize::from(self.width())
    }

    fn merge_from(&self, other: &Self) {
        self.merge_max(other);
    }
}

impl WordStore for BitArray {
    fn word_count(&self) -> usize {
        self.words().len()
    }

    fn word(&self, i: usize) -> u64 {
        self.words()[i]
    }

    fn from_words(len: usize, width: u8, words: Vec<u64>) -> Result<Self, String> {
        if width != 1 {
            return Err(format!("bit array width {width}, expected 1"));
        }
        Self::from_words(len, words)
    }
}

impl WordStore for PackedArray {
    fn word_count(&self) -> usize {
        self.words().len()
    }

    fn word(&self, i: usize) -> u64 {
        self.words()[i]
    }

    fn from_words(len: usize, width: u8, words: Vec<u64>) -> Result<Self, String> {
        Self::from_words(len, width, words)
    }
}

impl WordStore for AtomicBitArray {
    fn word_count(&self) -> usize {
        self.word_count()
    }

    fn word(&self, i: usize) -> u64 {
        self.word(i)
    }

    fn from_words(len: usize, width: u8, words: Vec<u64>) -> Result<Self, String> {
        if width != 1 {
            return Err(format!("bit array width {width}, expected 1"));
        }
        Self::from_words(len, words)
    }
}

impl WordStore for AtomicPackedArray {
    fn word_count(&self) -> usize {
        self.word_count()
    }

    fn word(&self, i: usize) -> u64 {
        self.word(i)
    }

    fn from_words(len: usize, width: u8, words: Vec<u64>) -> Result<Self, String> {
        Self::from_words(len, width, words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise_scalar<S: SlotStore>(mut store: S, value: u16) {
        let m = SlotStore::len(&store);
        assert!(!SlotStore::is_empty(&store));
        assert_eq!(store.zero_slots(), m);
        // First update changes the slot, second is absorbed.
        assert_eq!(store.try_update(3, value), Some(0));
        assert_eq!(store.try_update(3, value), None);
        assert_eq!(
            SlotStore::load(&store, 3),
            if S::RANKED { value } else { 1 }
        );
        assert_eq!(store.zero_slots(), m - 1);
        let _ = SlotStore::warm(&store, 3);
        assert_eq!(
            SlotStore::load(&store, 3),
            if S::RANKED { value } else { 1 }
        );
    }

    #[test]
    fn bitarray_slotstore_semantics() {
        const { assert!(!BitArray::RANKED) };
        exercise_scalar(BitArray::new(64), 1);
        assert_eq!(SlotStore::width(&BitArray::new(8)), 1);
        assert_eq!(SlotStore::memory_bits(&BitArray::new(100)), 100);
    }

    #[test]
    fn packedarray_slotstore_semantics() {
        const { assert!(PackedArray::RANKED) };
        exercise_scalar(PackedArray::new(64, 5), 17);
        assert_eq!(SlotStore::memory_bits(&PackedArray::new(100, 5)), 500);
    }

    #[test]
    fn update_many_matches_scalar_updates() {
        let slots = [3usize, 9, 3, 60, 9];
        let values = [5u16, 2, 7, 1, 4];
        let mut batch = PackedArray::new(64, 5);
        let mut grew = [false; 5];
        let mut old = [0u16; 5];
        batch.update_many(&slots, &values, &mut grew, &mut old);

        let mut scalar = PackedArray::new(64, 5);
        for (i, (&s, &v)) in slots.iter().zip(&values).enumerate() {
            let prev = SlotStore::try_update(&mut scalar, s, v);
            assert_eq!(grew[i], prev.is_some(), "update {i}");
            if let Some(p) = prev {
                assert_eq!(old[i], p, "update {i}");
            }
        }
        assert_eq!(batch, scalar);

        let mut bits = BitArray::new(64);
        let mut grew = [false; 5];
        let mut old = [0u16; 5];
        SlotStore::update_many(&mut bits, &slots, &values, &mut grew, &mut old);
        assert_eq!(grew, [true, true, false, true, false]);
        assert_eq!(SlotStore::zero_slots(&bits), 61);
    }

    #[test]
    fn concurrent_stores_share_the_contract() {
        let bits = AtomicBitArray::new(64);
        assert_eq!(ConcurrentSlotStore::try_update(&bits, 5, 1), Some(0));
        assert_eq!(ConcurrentSlotStore::try_update(&bits, 5, 1), None);
        assert_eq!(ConcurrentSlotStore::zero_slots(&bits), 63);
        assert_eq!(ConcurrentSlotStore::memory_bits(&bits), 64);

        let regs = AtomicPackedArray::new(64, 5);
        assert_eq!(ConcurrentSlotStore::try_update(&regs, 5, 9), Some(0));
        assert_eq!(ConcurrentSlotStore::try_update(&regs, 5, 9), None);
        assert_eq!(ConcurrentSlotStore::try_update(&regs, 5, 11), Some(9));
        assert_eq!(ConcurrentSlotStore::zero_slots(&regs), 63);
        assert_eq!(ConcurrentSlotStore::memory_bits(&regs), 320);
    }

    fn words_of<S: WordStore>(store: &S) -> Vec<u64> {
        (0..store.word_count()).map(|i| store.word(i)).collect()
    }

    #[test]
    fn word_stores_round_trip_through_their_words() {
        let mut bits = BitArray::new(200);
        let abits = AtomicBitArray::new(200);
        for i in [0usize, 63, 64, 150, 199] {
            bits.set(i);
            abits.set(i);
        }
        assert_eq!(words_of(&bits), words_of(&abits), "same bit layout");
        let back = <BitArray as WordStore>::from_words(200, 1, words_of(&bits)).expect("valid");
        assert_eq!(back, bits);
        let back =
            <AtomicBitArray as WordStore>::from_words(200, 1, words_of(&abits)).expect("valid");
        assert_eq!(back.zeros(), abits.zeros());
        assert!(<BitArray as WordStore>::from_words(200, 5, words_of(&bits)).is_err());

        let mut regs = PackedArray::new(100, 5);
        let aregs = AtomicPackedArray::new(100, 5);
        for i in 0..100 {
            regs.store(i, (i % 31) as u16);
            aregs.store_max(i, (i % 31) as u16);
        }
        let back = <PackedArray as WordStore>::from_words(100, 5, words_of(&regs)).expect("valid");
        assert_eq!(back, regs);
        assert_eq!(words_of(&regs), words_of(&aregs), "same register layout");
        let back =
            <AtomicPackedArray as WordStore>::from_words(100, 5, words_of(&aregs)).expect("valid");
        assert_eq!(words_of(&back), words_of(&aregs));
    }

    #[test]
    fn merge_from_is_union() {
        let mut a = BitArray::new(128);
        let mut b = BitArray::new(128);
        a.set(1);
        b.set(2);
        SlotStore::merge_from(&mut a, &b);
        assert!(a.get(1) && a.get(2));
        assert_eq!(a.zeros(), a.recount_zeros());

        let ca = AtomicBitArray::new(128);
        let cb = AtomicBitArray::new(128);
        ca.set(1);
        cb.set(2);
        cb.set(1);
        ConcurrentSlotStore::merge_from(&ca, &cb);
        assert!(ca.get(1) && ca.get(2));
        assert_eq!(ca.zeros(), ca.recount_zeros());

        let ra = AtomicPackedArray::new(64, 5);
        let rb = AtomicPackedArray::new(64, 5);
        ra.store_max(3, 7);
        rb.store_max(3, 9);
        rb.store_max(10, 2);
        ConcurrentSlotStore::merge_from(&ra, &rb);
        assert_eq!(ra.load(3), 9);
        assert_eq!(ra.load(10), 2);
    }

    #[test]
    fn validate_accepts_live_stores() {
        let mut b = BitArray::new(100);
        b.set(99);
        assert!(SlotStore::validate(&b).is_ok());
        let mut p = PackedArray::new(100, 5);
        p.store(99, 31);
        assert!(SlotStore::validate(&p).is_ok());
    }

    #[test]
    fn sum_pow2_neg_agrees_between_bit_and_register_views() {
        // A bit store's Σ 2^{-B[j]} closed form vs the register formula on
        // an equivalent 1-bit packed array.
        let mut bits = BitArray::new(32);
        let mut regs = PackedArray::new(32, 1);
        for i in [0usize, 7, 20] {
            SlotStore::try_update(&mut bits, i, 1);
            SlotStore::try_update(&mut regs, i, 1);
        }
        assert!((SlotStore::sum_pow2_neg(&bits) - SlotStore::sum_pow2_neg(&regs)).abs() < 1e-12);
    }
}
