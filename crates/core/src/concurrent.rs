//! Lock-free concurrent engines — the "SDN routers / line-rate
//! monitoring" extension the paper's conclusion points at.
//!
//! [`ConcurrentEngine`] is the shared-access (`&self`) analogue of the
//! scalar [`crate::engine::SketchEngine`]: the same hash → slot → HT-credit
//! pipeline, written once over [`bitpack::ConcurrentSlotStore`] (atomic
//! monotone slot updates) and [`SharedQTracker`] (atomic `q` bookkeeping),
//! with per-user counters in a mutex-sharded
//! [`hashkit::ShardedCounterMap`]. Every engine is a shard of a
//! [`crate::ShardedSketch`], the one `&self` estimator.
//!
//! Concurrency semantics: slot updates are idempotent monotone atomics
//! (exactly one winner per change), so dedup holds under any interleaving.
//! A writer credits each growth at the `q` it read at its block start,
//! advanced past its own earlier growths in the block. Another writer's
//! changes can lag: the bit store's zero count is settled once per block,
//! so a writer can miss up to one block of flips per other writer; the
//! perturbation is bounded by `k/M` for `k` unsettled flips, and
//! `tests/concurrent_equivalence.rs` and the core proptests bound the
//! end-to-end estimate skew against the sequential estimators
//! empirically. A lone writer credits every growth at the `q` per-edge
//! ingest reads. `Z` (register sharing) is CAS-accumulated with each
//! winner's exact delta, so it is exact once writers quiesce.
//!
//! Each engine keeps its running total `n̂(t) = Σ_s n̂_s(t)` beside the
//! counters, as the scalar engine does, so reading it is O(1). A block
//! adds its credits to the total it loaded, in stream order, and publishes
//! the sum with one compare-exchange; if another writer published in
//! between, it adds its own credit sum instead. A lone writer's total is
//! therefore the per-growth sum in stream order wherever the stream is cut
//! into blocks, slices or chunks; under contention it equals the sum of
//! the counters up to rounding.

use crate::engine::{pow2_neg, BlockScratch};
use crate::CardinalityEstimator;
use bitpack::ConcurrentSlotStore;
use hashkit::{geometric_rank, reduce64, splitmix64, EdgeHasher, ShardedCounterMap};
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared ingest: a cardinality estimator whose update path takes `&self`,
/// so many threads can feed one instance concurrently. Queries come from
/// the [`CardinalityEstimator`] supertrait — those are `&self` already.
/// [`crate::ShardedSketch`] is its one implementor.
pub trait ConcurrentEstimator: CardinalityEstimator + Send + Sync {
    /// Observes edge `(user, item)`; callable concurrently.
    fn ingest(&self, user: u64, item: u64);

    /// Observes a slice of edges — the batched fast path; callable
    /// concurrently. Same contract as
    /// [`CardinalityEstimator::process_batch`].
    fn ingest_batch(&self, edges: &[(u64, u64)]);
}

/// The `q(t)` bookkeeping seam of the [`ConcurrentEngine`] — the shared
/// (`&self`) counterpart of [`crate::engine::QTracker`].
///
/// Growth accounting is split into a per-thread fold
/// ([`SharedQTracker::fold_growth`], plain arithmetic on a local
/// accumulator) and one [`SharedQTracker::commit`] per edge or block, so a
/// block's worth of register deltas costs a single CAS.
pub trait SharedQTracker<S: ConcurrentSlotStore>: Send + Sync {
    /// Name of the sharded estimator over this tracker (see
    /// [`crate::ShardedSketch`]).
    const SHARDED_NAME: &'static str;

    /// Tracker for a fresh (all-zero) store.
    fn fresh(store: &S) -> Self;

    /// The numerator of `q(t)`, read before an update and guarded away
    /// from zero (stale reads under contention may otherwise divide by 0).
    fn numerator(&self, store: &S) -> f64;

    /// Folds one slot growth `old → new` into a thread-local accumulator.
    fn fold_growth(acc: &mut f64, old: u16, new: u16);

    /// Writes to `numerators[j]` the numerator just before a block's growth
    /// `j`, `old[j] → new[j]`, counting this writer's earlier growths from
    /// `start`, the numerator read before the block's store update.
    /// Returns the block's folded accumulator for
    /// [`SharedQTracker::commit`].
    fn block_numerators(start: f64, old: &[u16], new: &[u16], numerators: &mut [f64]) -> f64;

    /// Publishes a folded accumulator (no-op when the store maintains the
    /// numerator itself).
    fn commit(&self, acc: f64);

    /// Unconditional exact resynchronisation against the store, called at
    /// quiescence after an operation rewrote the store wholesale (a
    /// snapshot merge). A no-op when the store maintains the numerator
    /// itself.
    fn resync(&self, store: &S);
}

/// `q_B = m₀/M` for atomic bit stores: the array maintains `m₀` with a
/// relaxed counter, so the tracker is stateless.
#[derive(Debug, Default)]
pub struct SharedZeroQ;

impl<S: ConcurrentSlotStore> SharedQTracker<S> for SharedZeroQ {
    const SHARDED_NAME: &'static str = "ShardedFreeBS";

    #[inline]
    fn fresh(_store: &S) -> Self {
        Self
    }

    #[inline]
    fn numerator(&self, store: &S) -> f64 {
        // Read just before the update; under contention it can lag by up to
        // one block of flips per other writer, perturbing q by ≤ k/M.
        store.zero_slots().max(1) as f64
    }

    #[inline]
    fn fold_growth(_acc: &mut f64, _old: u16, _new: u16) {}

    /// Growth `j` of a block finds `m₀ − j` zero bits.
    #[inline]
    fn block_numerators(start: f64, _old: &[u16], _new: &[u16], numerators: &mut [f64]) -> f64 {
        for (j, n) in numerators.iter_mut().enumerate() {
            *n = start - j as f64;
        }
        0.0
    }

    #[inline]
    fn commit(&self, _acc: f64) {}

    #[inline]
    fn resync(&self, _store: &S) {}
}

/// An `f64` that many writers add to, kept as its bits in an
/// [`AtomicU64`]: `SharedZ`'s `Z` and each engine's running total.
///
/// Both are pure accumulators: no other memory is published through
/// them, and the RMW total order makes every added delta land exactly
/// once, so every access is `Relaxed`. Exact reads happen at quiescence,
/// where a thread join or the ingest gate's lock hand-off orders them
/// after the writes.
#[derive(Debug)]
pub(crate) struct SharedF64 {
    bits: AtomicU64,
}

impl SharedF64 {
    pub(crate) fn new(value: f64) -> Self {
        Self {
            bits: AtomicU64::new(value.to_bits()),
        }
    }

    /// The current value.
    #[inline]
    pub(crate) fn get(&self) -> f64 {
        // ORDERING: relaxed-ok — a pure accumulator (see the type doc); a
        // live read may lag, a quiescent one is ordered by join or lock.
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Overwrites the value (quiescent use only: a merge's resync).
    pub(crate) fn set(&self, value: f64) {
        // ORDERING: relaxed-ok — quiescent-only; the caller's
        // synchronisation provides the happens-before edge.
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta`.
    #[inline]
    pub(crate) fn add(&self, delta: f64) {
        // ORDERING: relaxed-ok — optimistic first read; the CAS below
        // revalidates it, so staleness costs one retry, never a lost delta.
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let updated = (f64::from_bits(current) + delta).to_bits();
            match self.bits.compare_exchange_weak(
                current,
                updated,
                // ORDERING: relaxed-ok (Relaxed/Relaxed) — a pure
                // accumulator: the RMW total order makes every delta land
                // exactly once, and no other memory is published through it.
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// Stores `sum`, which the caller built by adding `delta`'s terms one
    /// by one to `seen` (a value [`SharedF64::get`] returned), if the cell
    /// still holds `seen`. Otherwise another writer added in between, and
    /// `delta()` is added to what the cell holds now.
    #[inline]
    pub(crate) fn exchange_or_add(&self, seen: f64, sum: f64, delta: impl FnOnce() -> f64) {
        let exchanged = self.bits.compare_exchange(
            seen.to_bits(),
            sum.to_bits(),
            // ORDERING: relaxed-ok (Relaxed/Relaxed) — a pure accumulator; a
            // failed exchange falls back to `add`, so no delta is lost.
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        if exchanged.is_err() {
            self.add(delta());
        }
    }
}

/// `q_R = Z/M` for atomic register stores: `Z = Σ 2^{-R[j]}` in a shared
/// f64 cell, CAS-added with each winner's exact delta.
#[derive(Debug)]
pub struct SharedZ {
    /// `Z`.
    pub(crate) z: SharedF64,
}

impl<S: ConcurrentSlotStore> SharedQTracker<S> for SharedZ {
    const SHARDED_NAME: &'static str = "ShardedFreeRS";

    #[inline]
    fn fresh(store: &S) -> Self {
        Self {
            z: SharedF64::new(store.len() as f64),
        }
    }

    #[inline]
    fn numerator(&self, _store: &S) -> f64 {
        // A slightly stale Z is still a valid sketch state.
        self.z.get().max(f64::MIN_POSITIVE)
    }

    #[inline]
    fn fold_growth(acc: &mut f64, old: u16, new: u16) {
        *acc += pow2_neg(new) - pow2_neg(old);
    }

    #[inline]
    fn block_numerators(start: f64, old: &[u16], new: &[u16], numerators: &mut [f64]) -> f64 {
        let mut acc = 0.0;
        for ((n, &old), &new) in numerators.iter_mut().zip(old).zip(new) {
            *n = start + acc;
            <Self as SharedQTracker<S>>::fold_growth(&mut acc, old, new);
        }
        acc
    }

    #[inline]
    fn commit(&self, acc: f64) {
        if acc != 0.0 {
            // Each winner's deltas are applied exactly once, so Z is exact
            // at quiescence.
            self.z.add(acc);
        }
    }

    fn resync(&self, store: &S) {
        self.z.set(store.sum_pow2_neg());
    }
}

/// One shard of a [`crate::ShardedSketch`]: `&self` processing from many
/// threads. One shared atomic [`ConcurrentSlotStore`], per-user counters
/// in a mutex-sharded [`ShardedCounterMap`], `q` maintained by a
/// [`SharedQTracker`], and the running total of every credit.
#[derive(Debug)]
pub struct ConcurrentEngine<S, Q> {
    store: S,
    hasher: EdgeHasher,
    q: Q,
    counters: ShardedCounterMap,
    total: SharedF64,
}

impl<S: ConcurrentSlotStore, Q: SharedQTracker<S>> ConcurrentEngine<S, Q> {
    /// Builds an engine over a fresh (all-zero) `store`.
    #[must_use]
    pub fn from_store(store: S, seed: u64) -> Self {
        let q = Q::fresh(&store);
        Self {
            store,
            hasher: EdgeHasher::new(seed),
            q,
            counters: ShardedCounterMap::default(),
            total: SharedF64::new(0.0),
        }
    }

    /// The shared array size `M`.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.store.len()
    }

    /// The current sampling probability `q(t)`.
    #[must_use]
    pub fn q(&self) -> f64 {
        self.q.numerator(&self.store) / self.store.len() as f64
    }

    /// Everything a snapshot records: store, hasher, tracker, counters and
    /// the running total.
    pub(crate) fn parts(&self) -> (&S, &EdgeHasher, &Q, &ShardedCounterMap, f64) {
        (
            &self.store,
            &self.hasher,
            &self.q,
            &self.counters,
            self.total.get(),
        )
    }

    /// Reassembles an engine from restored [`ConcurrentEngine::parts`].
    pub(crate) fn from_parts(
        store: S,
        hasher: EdgeHasher,
        q: Q,
        counters: ShardedCounterMap,
        total: f64,
    ) -> Self {
        Self {
            store,
            hasher,
            q,
            counters,
            total: SharedF64::new(total),
        }
    }

    /// Read-only view of the shared store (for tests and diagnostics).
    #[must_use]
    pub fn store(&self) -> &S {
        &self.store
    }

    /// The update value an edge hash carries: a saturated geometric rank
    /// for register stores, ignored (1) for bit stores.
    #[inline]
    fn value_of(&self, h: u64) -> u16 {
        if S::RANKED {
            u16::from(geometric_rank(splitmix64(h)).saturated(self.store.width()))
        } else {
            1
        }
    }

    /// Observes edge `(user, item)`; callable concurrently.
    #[inline]
    // HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
    pub fn process(&self, user: u64, item: u64) {
        let h = self.hasher.hash_edge(user, item);
        let slot = reduce64(h, self.store.len());
        let value = self.value_of(h);
        let qn = self.q.numerator(&self.store);
        if let Some(old) = self.store.try_update(slot, value) {
            let inc = self.store.len() as f64 / qn;
            self.counters.add(user, inc);
            self.total.add(inc);
            let mut acc = 0.0;
            Q::fold_growth(&mut acc, old, value);
            self.q.commit(acc);
        }
        // Non-changing edges are discarded for free, matching the scalar
        // engine's Algorithm 1/2 semantics.
    }

    /// Load-only warm pass over one block: hash, map to slots, derive rank
    /// values, and touch every store word the write pass will hit so those
    /// lines are resident when it runs. Unlike the scalar engine there is
    /// no counter warm — [`ShardedCounterMap`] sits behind shard mutexes,
    /// so a speculative read would contend rather than prefetch.
    #[inline(always)]
    fn warm_block(
        &self,
        chunk: &[(u64, u64)],
        hashes: &mut [u64],
        slots: &mut [usize],
        values: &mut [u16],
    ) {
        let m = self.store.len();
        if S::RANKED {
            self.hasher.hash_many(chunk, hashes);
            for (s, &h) in slots.iter_mut().zip(hashes.iter()) {
                *s = reduce64(h, m);
            }
            let width = self.store.width();
            for (v, &h) in values.iter_mut().zip(hashes.iter()) {
                *v = u16::from(geometric_rank(splitmix64(h)).saturated(width));
            }
        } else {
            // Bit stores never look at the hash again (the update value is
            // always 1), so the slot derivation fuses into the lane loop
            // and the `hashes` scratch is never materialized.
            self.hasher.slots_many(chunk, m, slots);
        }
        let mut acc = 0u64;
        for &s in slots.iter() {
            acc ^= self.store.warm(s);
        }
        std::hint::black_box(acc);
    }

    /// Write pass over one warmed block: a word-level
    /// [`ConcurrentSlotStore::update_block`], each growth credited at the
    /// numerator of `q` just before it (this writer's earlier growths
    /// counted) with one counter add and one addition to the total loaded
    /// before the credits, then one [`SharedF64::exchange_or_add`] of that
    /// total (see the module docs) and one `q` commit for the whole block.
    #[inline(always)]
    fn apply_block(
        &self,
        chunk: &[(u64, u64)],
        slots: &[usize],
        values: &[u16],
        s: &mut BlockScratch,
    ) {
        let k = chunk.len();
        let start = self.q.numerator(&self.store);
        self.store
            .update_block(slots, values, &mut s.grew[..k], &mut s.old[..k]);
        let growths = s.list_growths(chunk, values, S::RANKED);
        let (old, new, numerators) = s.growth_values(growths);
        let q_acc = Q::block_numerators(start, old, new, numerators);
        let (users, credits) = s.credits(self.store.len(), growths);
        if !credits.is_empty() {
            let seen = self.total.get();
            let mut total = seen;
            for (&user, &credit) in users.iter().zip(credits) {
                self.counters.add(user, credit);
                total += credit;
            }
            self.total
                .exchange_or_add(seen, total, || credits.iter().sum());
        }
        self.q.commit(q_acc);
    }

    /// Observes a slice of edges — the batched fast path; callable
    /// concurrently. The slice is cut into blocks of
    /// [`crate::INGEST_BLOCK`] edges, each run as a load-only warm pass and
    /// then a write pass over compile-time sized stack scratch. A lone
    /// writer's store and counters end as per-edge ingest leaves them.
    // HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
    pub fn process_batch(&self, edges: &[(u64, u64)]) {
        const BLOCK: usize = crate::INGEST_BLOCK;
        let mut hashes = [0u64; BLOCK];
        let mut slots = [0usize; BLOCK];
        let mut values = [1u16; BLOCK];
        let mut scratch = BlockScratch::new();
        for chunk in edges.chunks(BLOCK) {
            let k = chunk.len();
            self.warm_block(chunk, &mut hashes[..k], &mut slots[..k], &mut values[..k]);
            self.apply_block(chunk, &slots[..k], &values[..k], &mut scratch);
        }
    }

    /// The current estimate for `user`.
    #[must_use]
    pub fn estimate(&self, user: u64) -> f64 {
        self.counters.get(user).unwrap_or(0.0)
    }

    /// Sum of all user estimates (`n̂(t)`): the running total, O(1).
    #[must_use]
    pub fn total_estimate(&self) -> f64 {
        self.total.get()
    }

    /// Number of distinct users tracked.
    #[must_use]
    pub fn user_count(&self) -> usize {
        self.counters.len()
    }

    /// Visits every `(user, estimate)` pair this engine tracks.
    pub fn for_each_estimate(&self, f: &mut dyn FnMut(u64, f64)) {
        self.counters.for_each(f);
    }

    /// Shared-array memory in bits.
    #[must_use]
    pub fn memory_bits(&self) -> usize {
        self.store.memory_bits()
    }

    /// Unions another engine's state into this one (quiescent state only):
    /// bitwise OR for bit stores, element-wise max for registers, per-user
    /// counters and the running totals added, then the `q` tracker
    /// resynchronised exactly against the merged store. See
    /// [`crate::engine::SketchEngine::merge`] for the disjoint-partition
    /// semantics.
    ///
    /// # Errors
    /// [`graphstream::SnapshotError::ConfigMismatch`] when the hasher
    /// seeds or store geometries (length, register width) differ.
    pub fn merge(&self, other: &Self) -> Result<(), graphstream::SnapshotError> {
        if self.hasher != other.hasher {
            return Err(graphstream::SnapshotError::ConfigMismatch {
                detail: format!(
                    "hasher seed {:#x} vs {:#x}",
                    self.hasher.seed(),
                    other.hasher.seed()
                ),
            });
        }
        if self.store.len() != other.store.len() || self.store.width() != other.store.width() {
            return Err(graphstream::SnapshotError::ConfigMismatch {
                detail: format!(
                    "store geometry {}x{} vs {}x{}",
                    self.store.len(),
                    self.store.width(),
                    other.store.len(),
                    other.store.width()
                ),
            });
        }
        self.store.merge_from(&other.store);
        other
            .counters
            .for_each(&mut |user, est| self.counters.add(user, est));
        self.total.add(other.total_estimate());
        self.q.resync(&self.store);
        Ok(())
    }

    /// Verifies the maintained `q` numerator against an exact store scan
    /// (quiescent state only); returns the absolute discrepancy. For bit
    /// stores this checks the relaxed zero counter against a popcount
    /// recount, for register stores the CAS-maintained `Z` against
    /// `Σ 2^{-R[j]}`.
    #[must_use]
    pub fn q_discrepancy(&self) -> f64 {
        let exact = if S::RANKED {
            self.store.sum_pow2_neg()
        } else {
            self.store.recount_zero_slots().max(1) as f64
        };
        (self.q.numerator(&self.store) - exact).abs()
    }
}
