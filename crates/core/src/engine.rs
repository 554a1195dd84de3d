//! The storage-generic estimator core.
//!
//! FreeBS (Algorithm 1) and FreeRS (Algorithm 2) share one pipeline —
//! hash the edge into the shared array, attempt a monotone slot update,
//! and on success credit the user `1/q(t)` where `q(t)` is the probability
//! that a brand-new edge changes the array. [`SketchEngine`] implements
//! that pipeline **once**, generic over
//!
//! * the storage ([`bitpack::SlotStore`]): a bit array or a register
//!   array, and
//! * the `q` bookkeeping ([`QTracker`]): the exact zero count `m₀/M`
//!   (FreeBS) or the incrementally maintained `Z/M` (FreeRS),
//!
//! so `FreeBS` and `FreeRS` are type aliases instantiating it, and the
//! batched block pipeline (block hashing, load-only warm passes,
//! word-level multi-update, per-growth credits) is written and maintained
//! in exactly one place.
//!
//! The block pipeline has two halves. The pure half, [`BlockHasher`], maps
//! pairs to slots (and ranks for register stores) and reads no sketch
//! state, so it can run on another thread ahead of the apply. The stateful
//! half, [`CardinalityEstimator::apply_hashed`], touches the block's store
//! words, updates the store, accounts `q` and credits counters.
//! `process_batch` runs both halves block by block on one thread.
//!
//! A block credits each of its growths at the numerator of `q` just before
//! that growth, exactly as per-edge [`CardinalityEstimator::process`] does,
//! so the batch path leaves the same store, counters and total as `process`
//! wherever the stream is cut into blocks, slices or chunks.

use crate::CardinalityEstimator;
use bitpack::SlotStore;
use hashkit::{geometric_rank, reduce64, splitmix64, CounterMap, EdgeHasher};

/// The `q(t)` bookkeeping seam of the [`SketchEngine`].
///
/// `q(t) = numerator(t) / M`; the numerator is the store's zero count for
/// bit sharing (maintained exactly by the array itself) and
/// `Z = Σ_j 2^{-R[j]}` for register sharing, maintained incrementally here
/// as Algorithm 2 keeps it: one addition per growth, never rebuilt.
pub trait QTracker<S: SlotStore> {
    /// The paper's name for the estimator this tracker realizes — used as
    /// [`CardinalityEstimator::name`].
    const NAME: &'static str;

    /// Tracker for a fresh (all-zero) store.
    fn fresh(store: &S) -> Self;

    /// The numerator of `q(t)`, read on the state *before* an update (the
    /// definition both theorems rely on: `E[ξ|q] = q` requires `q` to be
    /// measurable at `t−1`).
    fn numerator(&self, store: &S) -> f64;

    /// Accounts one slot growth `old → new`. O(1); a no-op when the store
    /// maintains the numerator itself.
    fn on_growth(&mut self, old: u16, new: u16);

    /// Accounts a block's growths `old[j] → new[j]`, in order, and writes
    /// to `numerators[j]` the numerator just before growth `j`. `start` is
    /// the numerator before the block, read before its store update.
    fn block_numerators(&mut self, start: f64, old: &[u16], new: &[u16], numerators: &mut [f64]);

    /// Exact resynchronisation against the store, called after an
    /// operation rewrote the store wholesale (a snapshot merge). A no-op
    /// when the store maintains the numerator itself.
    fn resync(&mut self, store: &S);
}

/// `q_B = m₀/M` for bit stores: the array maintains `m₀` exactly, so the
/// tracker is stateless.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZeroQ;

impl<S: SlotStore> QTracker<S> for ZeroQ {
    const NAME: &'static str = "FreeBS";

    #[inline]
    fn fresh(_store: &S) -> Self {
        Self
    }

    #[inline]
    fn numerator(&self, store: &S) -> f64 {
        store.zero_slots() as f64
    }

    #[inline]
    fn on_growth(&mut self, _old: u16, _new: u16) {}

    /// Growth `j` of a block finds `m₀ − j` zero bits: exact, as `m₀ < 2⁵³`.
    #[inline]
    fn block_numerators(&mut self, start: f64, _old: &[u16], _new: &[u16], numerators: &mut [f64]) {
        for (j, n) in numerators.iter_mut().enumerate() {
            *n = start - j as f64;
        }
    }

    #[inline]
    fn resync(&mut self, _store: &S) {}
}

/// `q_R = Z/M` for register stores, with `Z` maintained incrementally in
/// O(1) per growth.
///
/// Each growth adds `2^{-new} − 2^{-old}`, so every term of the `f64` sum
/// is a power of two and the sum stays exact until some register's rank
/// exceeds about `52 − log₂ Z`; past that a growth rounds `Z` by at most
/// half an ulp. [`crate::FreeRS::z_drift`] measures the distance to the
/// exact sum.
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalZ {
    /// Incrementally maintained `Z = Σ_j 2^{-R[j]}`.
    pub(crate) z: f64,
}

impl<S: SlotStore> QTracker<S> for IncrementalZ {
    const NAME: &'static str = "FreeRS";

    #[inline]
    fn fresh(store: &S) -> Self {
        Self {
            z: store.len() as f64,
        }
    }

    #[inline]
    fn numerator(&self, _store: &S) -> f64 {
        self.z
    }

    #[inline]
    fn on_growth(&mut self, old: u16, new: u16) {
        self.z = grow_z(self.z, old, new);
    }

    /// The same additions to `Z`, in the same order, as one
    /// [`QTracker::on_growth`] per growth.
    #[inline]
    fn block_numerators(&mut self, _start: f64, old: &[u16], new: &[u16], numerators: &mut [f64]) {
        self.z = z_numerators(self.z, old, new, numerators);
    }

    #[inline]
    fn resync(&mut self, store: &S) {
        self.z = store.sum_pow2_neg();
    }
}

/// The register sum `Z` after one growth `old → new`: the one addition
/// every FreeRS engine, scalar or shard, keeps `Z` by.
#[inline(always)]
pub(crate) fn grow_z(z: f64, old: u16, new: u16) -> f64 {
    z + (pow2_neg(new) - pow2_neg(old))
}

/// Writes to `numerators[j]` the register sum just before growth
/// `old[j] → new[j]`, starting from `z` and applying [`grow_z`] per growth
/// in stream order, and returns the sum after the last one.
#[inline(always)]
pub(crate) fn z_numerators(mut z: f64, old: &[u16], new: &[u16], numerators: &mut [f64]) -> f64 {
    for ((n, &old), &new) in numerators.iter_mut().zip(old).zip(new) {
        *n = z;
        z = grow_z(z, old, new);
    }
    z
}

/// The pure half of a [`SketchEngine`]'s block pipeline: pair → slot, and
/// for register stores the saturated geometric rank each update carries.
/// It holds only the hasher seed, `M` and the register width, so it is
/// `Copy + Send`: a stage thread can hash chunk k+1 while the engine
/// applies chunk k through [`CardinalityEstimator::apply_hashed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHasher {
    hasher: EdgeHasher,
    m: usize,
    /// The register width for register stores; `None` for bit stores,
    /// whose update value is always 1.
    rank_width: Option<u8>,
}

impl BlockHasher {
    /// The block hasher of an engine hashing with `hasher` into `m` slots;
    /// `rank_width` is the register width of a register store, `None` for
    /// a bit store.
    #[inline]
    pub(crate) fn new(hasher: EdgeHasher, m: usize, rank_width: Option<u8>) -> Self {
        Self {
            hasher,
            m,
            rank_width,
        }
    }

    /// Whether [`BlockHasher::hash`] fills ranks (register stores).
    #[must_use]
    pub fn ranked(&self) -> bool {
        self.rank_width.is_some()
    }

    /// Writes the slot of `pairs[i]` to `slots[i]` and, when
    /// [`BlockHasher::ranked`], its rank to `ranks[i]`. For bit stores
    /// `ranks` is neither read nor written and may be empty.
    ///
    /// # Panics
    /// If `slots` (or, when ranked, `ranks`) is shorter than `pairs`.
    #[inline(always)]
    pub fn hash(&self, pairs: &[(u64, u64)], slots: &mut [usize], ranks: &mut [u16]) {
        let slots = &mut slots[..pairs.len()];
        let Some(width) = self.rank_width else {
            // Bit stores never look at the hash again, so the slot
            // derivation fuses into the lane loop and the hashes are never
            // materialized.
            self.hasher.slots_many(pairs, self.m, slots);
            return;
        };
        const BLOCK: usize = crate::INGEST_BLOCK;
        let ranks = &mut ranks[..pairs.len()];
        let mut hashes = [0u64; BLOCK];
        for ((block, s), r) in pairs
            .chunks(BLOCK)
            .zip(slots.chunks_mut(BLOCK))
            .zip(ranks.chunks_mut(BLOCK))
        {
            let hashes = &mut hashes[..block.len()];
            self.hasher.hash_many(block, hashes);
            for (s, &h) in s.iter_mut().zip(hashes.iter()) {
                *s = reduce64(h, self.m);
            }
            for (r, &h) in r.iter_mut().zip(hashes.iter()) {
                *r = rank(h, width);
            }
        }
    }

    /// The slot and update value of one edge, as [`BlockHasher::hash`]
    /// computes them in a block: the saturated rank for register stores,
    /// 1 for bit stores.
    #[inline(always)]
    pub(crate) fn hash_one(&self, user: u64, item: u64) -> (usize, u16) {
        let h = self.hasher.hash_edge(user, item);
        let value = self.rank_width.map_or(1, |width| rank(h, width));
        (reduce64(h, self.m), value)
    }
}

/// The saturated geometric rank a register update carries for edge hash
/// `h`.
#[inline(always)]
fn rank(h: u64, width: u8) -> u16 {
    u16::from(geometric_rank(splitmix64(h)).saturated(width))
}

/// Stack scratch of one block's apply pass: which updates grew the store
/// and the grown slots' previous values, then each growth's user, previous
/// and new value, and numerator of `q`, turned into its credit, in stream
/// order.
pub(crate) struct BlockScratch {
    pub(crate) grew: [bool; crate::INGEST_BLOCK],
    pub(crate) old: [u16; crate::INGEST_BLOCK],
    new: [u16; crate::INGEST_BLOCK],
    users: [u64; crate::INGEST_BLOCK],
    credits: [f64; crate::INGEST_BLOCK],
}

impl BlockScratch {
    pub(crate) fn new() -> Self {
        Self {
            grew: [false; crate::INGEST_BLOCK],
            old: [0; crate::INGEST_BLOCK],
            new: [0; crate::INGEST_BLOCK],
            users: [0; crate::INGEST_BLOCK],
            credits: [0.0; crate::INGEST_BLOCK],
        }
    }

    /// Lists the block's growths in stream order once the store update
    /// has filled `grew` and `old`, and returns how many there are: each
    /// growth's user and, when `ranked`, its previous and new value
    /// (`old` is compacted in place; bit stores need neither). Every edge
    /// stores unconditionally, so the loop has no branch.
    #[inline(always)]
    pub(crate) fn list_growths(
        &mut self,
        chunk: &[(u64, u64)],
        values: &[u16],
        ranked: bool,
    ) -> usize {
        let mut growths = 0usize;
        if ranked {
            for (i, ((&(user, _), &grew), &new)) in
                chunk.iter().zip(&self.grew).zip(values).enumerate()
            {
                self.users[growths] = user;
                self.old[growths] = self.old[i];
                self.new[growths] = new;
                growths += usize::from(grew);
            }
        } else {
            for (&(user, _), &grew) in chunk.iter().zip(&self.grew) {
                self.users[growths] = user;
                growths += usize::from(grew);
            }
        }
        growths
    }

    /// The listed growths' previous and new values, and the slots their
    /// numerators of `q` go to.
    #[inline(always)]
    pub(crate) fn growth_values(&mut self, growths: usize) -> (&[u16], &[u16], &mut [f64]) {
        (
            &self.old[..growths],
            &self.new[..growths],
            &mut self.credits[..growths],
        )
    }

    /// Turns the filled numerators into Horvitz–Thompson credits
    /// `M / numerator`, in a loop of their own so the divisions vectorize,
    /// and returns the growths' users and credits.
    #[inline(always)]
    pub(crate) fn credits(&mut self, m: usize, growths: usize) -> (&[u64], &[f64]) {
        let m = m as f64;
        for c in &mut self.credits[..growths] {
            *c = m / *c;
        }
        (&self.users[..growths], &self.credits[..growths])
    }
}

/// The generic sharing estimator: one shared [`SlotStore`], one
/// Horvitz–Thompson counter per user, `q(t)` maintained by a [`QTracker`].
///
/// Instantiated as [`crate::FreeBS`] (`BitArray` + [`ZeroQ`]) and
/// [`crate::FreeRS`] (`PackedArray` + [`IncrementalZ`]); the concurrent
/// analogue over the atomic stores, each shard of a
/// [`crate::ShardedSketch`], is [`crate::concurrent::ConcurrentEngine`].
#[derive(Debug, Clone)]
pub struct SketchEngine<S, Q> {
    store: S,
    hasher: EdgeHasher,
    q: Q,
    estimates: CounterMap,
    total: f64,
}

impl<S: SlotStore, Q: QTracker<S>> SketchEngine<S, Q> {
    /// Builds an engine over a fresh (all-zero) `store`.
    #[must_use]
    pub fn from_store(store: S, seed: u64) -> Self {
        let q = Q::fresh(&store);
        Self {
            store,
            hasher: EdgeHasher::new(seed),
            q,
            estimates: CounterMap::new(),
            total: 0.0,
        }
    }

    /// The shared array size `M`.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.store.len()
    }

    /// The current sampling probability `q(t)` — `m₀/M` for bit sharing,
    /// `Z/M` for register sharing.
    #[must_use]
    pub fn q(&self) -> f64 {
        self.q.numerator(&self.store) / self.store.len() as f64
    }

    /// Number of users currently tracked.
    #[must_use]
    pub fn user_count(&self) -> usize {
        self.estimates.len()
    }

    /// Read-only view of the shared store (for tests and diagnostics).
    #[must_use]
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Everything a snapshot records: store, hasher, tracker, counters and
    /// the running total.
    pub(crate) fn parts(&self) -> (&S, &EdgeHasher, &Q, &CounterMap, f64) {
        (
            &self.store,
            &self.hasher,
            &self.q,
            &self.estimates,
            self.total,
        )
    }

    /// Reassembles an engine from restored [`SketchEngine::parts`].
    pub(crate) fn from_parts(
        store: S,
        hasher: EdgeHasher,
        q: Q,
        estimates: CounterMap,
        total: f64,
    ) -> Self {
        Self {
            store,
            hasher,
            q,
            estimates,
            total,
        }
    }

    /// Unions another engine's state into this one: bitwise OR for bit
    /// stores, element-wise max for registers, per-user counters and the
    /// running total added. After the store union the `q` tracker is
    /// resynchronised exactly, so subsequent updates use the merged state.
    ///
    /// The union of HT-credited counters is the estimator for the union
    /// stream only when the two engines ingested *disjoint* partitions of
    /// it (split-by-edge sharding); merging overlapping streams
    /// double-counts shared edges, exactly as in the paper's distributed
    /// sketch union.
    ///
    /// # Errors
    /// [`graphstream::SnapshotError::ConfigMismatch`] when the hasher
    /// seeds or store geometries (length, register width) differ — such
    /// sketches place edges in unrelated slots and their union is
    /// meaningless.
    pub fn merge(&mut self, other: &Self) -> Result<(), graphstream::SnapshotError> {
        check_mergeable(
            (&self.hasher, self.store.len(), self.store.width()),
            (&other.hasher, other.store.len(), other.store.width()),
        )?;
        self.store.merge_from(&other.store);
        other
            .estimates
            .for_each(&mut |user, est| self.estimates.add(user, est));
        self.total += other.total;
        self.q.resync(&self.store);
        Ok(())
    }

    /// The pure half of this engine's block pipeline.
    #[inline]
    fn split_hasher(&self) -> BlockHasher {
        BlockHasher::new(
            self.hasher,
            self.store.len(),
            S::RANKED.then(|| self.store.width()),
        )
    }

    /// Applies one hashed edge as Algorithms 1 and 2 do: the numerator of
    /// `q(t)` is read on the state at t−1, before the update (for bit
    /// stores it equals the post-update zero count + 1, exactly Algorithm
    /// 1's increment), and only an edge that changes the store is credited.
    #[inline(always)]
    fn apply_edge(&mut self, user: u64, slot: usize, value: u16) {
        let qn = self.q.numerator(&self.store);
        if let Some(old) = self.store.try_update(slot, value) {
            let inc = self.store.len() as f64 / qn;
            self.estimates.add(user, inc);
            self.total += inc;
            self.q.on_growth(old, value);
        }
        // Non-changing edges (duplicates, or collisions — indistinguishable,
        // and exactly the event q accounts for) are discarded for free, as
        // in Algorithms 1 and 2: no counter write, no map lookup.
    }

    /// The stateful half for one block whose slots and values are already
    /// hashed. A load-only **warm** pass first touches every store word the
    /// block needs; all loads fold into one accumulator kept alive by a
    /// single `black_box`, so the compiler cannot drop them while the
    /// hardware overlaps their misses. The **write** pass multi-updates the
    /// store, lists each growth with its credit at the numerator just
    /// before it, demand-warms the grown users' counter homes, and adds the
    /// credits in stream order, so the result is the per-edge one. Counter
    /// homes are not warmed up front: which users get credited is unknown
    /// until the store update, and speculatively touching every user's
    /// counter measured slower than demand-warming the grown ones (it
    /// roughly doubles the map traffic).
    #[inline(always)]
    fn apply_block(
        &mut self,
        chunk: &[(u64, u64)],
        slots: &[usize],
        values: &[u16],
        s: &mut BlockScratch,
    ) {
        let k = chunk.len();
        let mut acc = 0u64;
        for &slot in slots {
            acc ^= self.store.warm(slot);
        }
        std::hint::black_box(acc);
        let start = self.q.numerator(&self.store);
        self.store
            .update_many(slots, values, &mut s.grew[..k], &mut s.old[..k]);
        let growths = s.list_growths(chunk, values, S::RANKED);
        let (old, new, numerators) = s.growth_values(growths);
        self.q.block_numerators(start, old, new, numerators);
        let (users, credits) = s.credits(self.store.len(), growths);
        let mut acc = 0u64;
        for &user in users {
            acc ^= self.estimates.warm(user);
        }
        std::hint::black_box(acc);
        for (&user, &credit) in users.iter().zip(credits) {
            self.estimates.add(user, credit);
            self.total += credit;
        }
    }
}

impl<S: SlotStore, Q: QTracker<S>> CardinalityEstimator for SketchEngine<S, Q> {
    #[inline]
    // HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
    fn process(&mut self, user: u64, item: u64) {
        let (slot, value) = self.split_hasher().hash_one(user, item);
        self.apply_edge(user, slot, value);
    }

    /// Phased batch ingest. The batch is cut into blocks of
    /// [`crate::INGEST_BLOCK`] edges; each block runs the pure half
    /// ([`BlockHasher::hash`]) and then the stateful half (warm pass,
    /// multi-update, per-growth credits). The scratch is compile-time sized
    /// stack arrays, so the compiler sees every pass's trip count and drops
    /// the bounds checks.
    // HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
    fn process_batch(&mut self, edges: &[(u64, u64)]) {
        const BLOCK: usize = crate::INGEST_BLOCK;
        let hasher = self.split_hasher();
        let mut slots = [0usize; BLOCK];
        let mut values = [1u16; BLOCK];
        let mut scratch = BlockScratch::new();
        for chunk in edges.chunks(BLOCK) {
            let k = chunk.len();
            hasher.hash(chunk, &mut slots[..k], &mut values[..k]);
            self.apply_block(chunk, &slots[..k], &values[..k], &mut scratch);
        }
    }

    fn block_hasher(&self) -> Option<BlockHasher> {
        Some(self.split_hasher())
    }

    /// The stateful half of [`SketchEngine::process_batch`] over slots (and
    /// ranks) that [`BlockHasher::hash`] computed, so the result is
    /// bit-identical to `process_batch(edges)`.
    // HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
    fn apply_hashed(&mut self, edges: &[(u64, u64)], slots: &[usize], ranks: &[u16]) {
        const BLOCK: usize = crate::INGEST_BLOCK;
        let ones = [1u16; BLOCK];
        let mut scratch = BlockScratch::new();
        for (b, chunk) in edges.chunks(BLOCK).enumerate() {
            let (lo, hi) = (b * BLOCK, b * BLOCK + chunk.len());
            let values = if S::RANKED {
                &ranks[lo..hi]
            } else {
                &ones[..chunk.len()]
            };
            self.apply_block(chunk, &slots[lo..hi], values, &mut scratch);
        }
    }

    #[inline]
    fn estimate(&self, user: u64) -> f64 {
        self.estimates.get(user).unwrap_or(0.0)
    }

    fn total_estimate(&self) -> f64 {
        self.total
    }

    fn memory_bits(&self) -> usize {
        self.store.memory_bits()
    }

    fn for_each_estimate(&self, f: &mut dyn FnMut(u64, f64)) {
        self.estimates.for_each(f);
    }

    fn name(&self) -> &'static str {
        Q::NAME
    }
}

/// Checks that two engines, each given as its hasher, `M` and slot width,
/// may be merged: the same hasher seed and store geometry, or
/// [`graphstream::SnapshotError::ConfigMismatch`] naming the difference.
pub(crate) fn check_mergeable(
    (hasher, len, width): (&EdgeHasher, usize, u8),
    (other, other_len, other_width): (&EdgeHasher, usize, u8),
) -> Result<(), graphstream::SnapshotError> {
    if hasher != other {
        return Err(graphstream::SnapshotError::ConfigMismatch {
            detail: format!("hasher seed {:#x} vs {:#x}", hasher.seed(), other.seed()),
        });
    }
    if (len, width) != (other_len, other_width) {
        return Err(graphstream::SnapshotError::ConfigMismatch {
            detail: format!("store geometry {len}x{width} vs {other_len}x{other_width}"),
        });
    }
    Ok(())
}

/// `2^{-v}` by exponent manipulation (exact for all register values).
#[inline]
fn pow2_neg(v: u16) -> f64 {
    f64::from_bits((1023u64.saturating_sub(u64::from(v))) << 52)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitpack::{BitArray, PackedArray};

    #[test]
    fn engine_matches_direct_algorithm1_transcription() {
        // The generic pipeline must reproduce a straight transcription of
        // Algorithm 1 (bit array + exact m₀ + HT counters) edge for edge.
        let m = 1 << 12;
        let seed = 77;
        let mut engine: SketchEngine<BitArray, ZeroQ> =
            SketchEngine::from_store(BitArray::new(m), seed);
        let mut bits = BitArray::new(m);
        let hasher = EdgeHasher::new(seed);
        let mut reference: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
        for i in 0..3_000u64 {
            let (user, item) = (i % 13, splitmix64(i) >> 40);
            engine.process(user, item);
            let slot = hasher.slot(user, item, m);
            let m0 = bits.zeros();
            if bits.set(slot) {
                *reference.entry(user).or_insert(0.0) += m as f64 / m0 as f64;
            }
        }
        assert_eq!(engine.store(), &bits);
        for u in 0..13u64 {
            assert_eq!(
                engine.estimate(u),
                reference.get(&u).copied().unwrap_or(0.0),
                "user {u}"
            );
        }
    }

    #[test]
    fn engine_matches_direct_algorithm2_transcription() {
        // Same for Algorithm 2: register max + incremental Z, credit read
        // on the pre-update Z.
        let m = 1 << 10;
        let seed = 99;
        let width = 5u8;
        let mut engine: SketchEngine<PackedArray, IncrementalZ> =
            SketchEngine::from_store(PackedArray::new(m, width), seed);
        let mut regs = PackedArray::new(m, width);
        let hasher = EdgeHasher::new(seed);
        let mut z = m as f64;
        let mut reference: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
        for i in 0..4_000u64 {
            let (user, item) = (i % 7, splitmix64(i) >> 32);
            engine.process(user, item);
            let h = hasher.hash_edge(user, item);
            let slot = reduce64(h, m);
            let new = u16::from(geometric_rank(splitmix64(h)).saturated(width));
            if let Some(old) = regs.store_max(slot, new) {
                *reference.entry(user).or_insert(0.0) += m as f64 / z;
                z += pow2_neg(new) - pow2_neg(old);
            }
        }
        assert_eq!(engine.store(), &regs);
        for u in 0..7u64 {
            assert_eq!(
                engine.estimate(u),
                reference.get(&u).copied().unwrap_or(0.0),
                "user {u}"
            );
        }
    }

    #[test]
    fn pow2_neg_matches_powi() {
        for v in 0..=64u16 {
            assert_eq!(pow2_neg(v), 2f64.powi(-i32::from(v)), "v={v}");
        }
    }
}
