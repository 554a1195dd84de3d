//! Concurrent engines — the "SDN routers / line-rate monitoring"
//! extension the paper's conclusion points at.
//!
//! [`ConcurrentEngine`] is the shared-access (`&self`) analogue of the
//! scalar [`crate::engine::SketchEngine`]: the same hash → slot → HT-credit
//! pipeline over [`bitpack::ConcurrentSlotStore`] (atomic words that one
//! writer at a time stores) and [`SharedQTracker`] (`q` bookkeeping), with
//! per-user counters in a mutex-sharded [`hashkit::ShardedCounterMap`]. It
//! hashes through the scalar engine's [`crate::BlockHasher`], keeps `Z`
//! by the scalar engine's additions, and its store keeps the scalar
//! store's word layout, so only the storage and counter types differ, not
//! their contents. Every engine is a shard of a [`crate::ShardedSketch`],
//! the one `&self` estimator.
//!
//! **Concurrency semantics.** An engine applies one writer's call at a
//! time: [`ConcurrentEngine::process`], [`ConcurrentEngine::process_batch`]
//! and [`ConcurrentEngine::merge`] each hold the engine's writer lock from
//! start to end. So concurrent calls apply whole, one after another, and
//! the result is that of some serial order of the calls. Under the lock the
//! store writes each word with a relaxed load and store, and `q`'s
//! numerator (the bit store's zero count, or `Z`) and the running total are
//! plain sums the writer stores; `q` is read under the lock, so every
//! growth is credited at the exact `q` just before it, as per-edge scalar
//! ingest credits it, whatever the other threads do. A lone writer's engine
//! is therefore bit-identical to the scalar engine at its seed, store words
//! included, wherever the stream is cut into blocks, slices or chunks.
//!
//! Readers take no writer lock. `ESTIMATE` locks the one counter shard
//! that holds the user; `q`, the zero count, `Z` and the total are relaxed
//! loads, at most the call in flight behind. No reader loads a store slot
//! beside the writer (a register may straddle two words, which the writer
//! stores one after the other): every slot read is the writer's own, under
//! the lock (`merge` and its `resync`), or runs with ingest quiesced, as
//! every read that must be exact does (`q_discrepancy`, a snapshot, a
//! final report): after a join, or under `serve`'s ingest gate.
//!
//! Each engine keeps its running total `n̂(t) = Σ_s n̂_s(t)` beside the
//! counters, as the scalar engine does, so reading it is O(1). A block adds
//! its credits to the total in stream order and stores the sum once.

use crate::engine::{check_mergeable, grow_z, z_numerators, BlockScratch};
use crate::{BlockHasher, CardinalityEstimator};
use bitpack::ConcurrentSlotStore;
use hashkit::{EdgeHasher, ShardedCounterMap};
use parking_lot::Mutex;
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
/// (`&self`) counterpart of [`crate::engine::QTracker`], with the same
/// methods. Only the engine's one writer accounts growths (see the module
/// docs); readers call [`SharedQTracker::numerator`] alone.
pub trait SharedQTracker<S: ConcurrentSlotStore>: Send + Sync {
    /// Name of the sharded estimator over this tracker (see
    /// [`crate::ShardedSketch`]).
    const SHARDED_NAME: &'static str;

    /// Tracker for a fresh (all-zero) store.
    fn fresh(store: &S) -> Self;

    /// The numerator of `q(t)`. The writer reads it before an update; a
    /// reader's value is at most the call in flight behind.
    fn numerator(&self, store: &S) -> f64;

    /// Accounts one slot growth `old → new`, as the one writer (a no-op
    /// when the store maintains the numerator itself).
    fn on_growth(&self, old: u16, new: u16);

    /// Accounts a block's growths `old[j] → new[j]` in order, as the one
    /// writer, and writes to `numerators[j]` the numerator just before
    /// growth `j`. `start` is the numerator before the block, read before
    /// its store update.
    fn block_numerators(&self, start: f64, old: &[u16], new: &[u16], numerators: &mut [f64]);

    /// Exact resynchronisation against the store, called by the one
    /// writer after an operation rewrote the store wholesale (a snapshot
    /// merge). A no-op when the store maintains the numerator itself.
    fn resync(&self, store: &S);
}

/// `q_B = m₀/M` for atomic bit stores: the array keeps `m₀` in a counter
/// its one writer stores, so the tracker is stateless.
#[derive(Debug, Default)]
pub struct SharedZeroQ;

impl<S: ConcurrentSlotStore> SharedQTracker<S> for SharedZeroQ {
    const SHARDED_NAME: &'static str = "ShardedFreeBS";

    #[inline]
    fn fresh(_store: &S) -> Self {
        Self
    }

    /// Guarded away from zero, so a full array reports `q = 1/M`.
    #[inline]
    fn numerator(&self, store: &S) -> f64 {
        store.zero_slots().max(1) as f64
    }

    #[inline]
    fn on_growth(&self, _old: u16, _new: u16) {}

    /// Growth `j` of a block finds `m₀ − j` zero bits.
    #[inline]
    fn block_numerators(&self, start: f64, _old: &[u16], _new: &[u16], numerators: &mut [f64]) {
        for (j, n) in numerators.iter_mut().enumerate() {
            *n = start - j as f64;
        }
    }

    #[inline]
    fn resync(&self, _store: &S) {}
}

/// An `f64` that the engine's one writer stores and any thread loads, kept
/// as its bits in an [`AtomicU64`]: `SharedZ`'s `Z` and each engine's
/// running total.
///
/// Both are plain sums: the writer loads, adds and stores under the
/// engine's writer lock, which orders one writer's stores before the next
/// writer's loads, and no other memory is published through them, so
/// every access is `Relaxed`. Exact reads by other threads happen at
/// quiescence, where a thread join or the ingest gate's lock hand-off
/// orders them after the writes.
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
        // ORDERING: relaxed-ok — a plain sum (see the type doc); the writer
        // reads its own stores, a live read may lag, and a quiescent one is
        // ordered by a join or a lock hand-off.
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Stores `value` (the one writer only).
    #[inline]
    pub(crate) fn set(&self, value: f64) {
        // ORDERING: relaxed-ok — the writer lock orders writers (see the
        // type doc), and no other memory is published through the value.
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }
}

/// `q_R = Z/M` for atomic register stores: `Z = Σ 2^{-R[j]}` in a shared
/// f64 cell, which the one writer keeps as [`crate::engine::IncrementalZ`]
/// keeps its `Z`: the same additions in the same order.
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
        self.z.get()
    }

    #[inline]
    fn on_growth(&self, old: u16, new: u16) {
        self.z.set(grow_z(self.z.get(), old, new));
    }

    /// Adds each growth to `Z` in stream order and stores the sum once.
    #[inline]
    fn block_numerators(&self, _start: f64, old: &[u16], new: &[u16], numerators: &mut [f64]) {
        self.z.set(z_numerators(self.z.get(), old, new, numerators));
    }

    fn resync(&self, store: &S) {
        self.z.set(store.sum_pow2_neg());
    }
}

/// One shard of a [`crate::ShardedSketch`]: `&self` processing from many
/// threads, one writer's call at a time (see the module docs). One shared
/// atomic [`ConcurrentSlotStore`], per-user counters in a mutex-sharded
/// [`ShardedCounterMap`], `q` maintained by a [`SharedQTracker`], the
/// running total of every credit, and the writer lock.
#[derive(Debug)]
pub struct ConcurrentEngine<S, Q> {
    store: S,
    hasher: EdgeHasher,
    q: Q,
    counters: ShardedCounterMap,
    total: SharedF64,
    /// Held across each call that writes, so the store, `q` and the total
    /// have one writer at a time.
    writer: Mutex<()>,
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
            writer: Mutex::new(()),
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
            writer: Mutex::new(()),
        }
    }

    /// Read-only view of the shared store (for tests and diagnostics).
    #[must_use]
    pub fn store(&self) -> &S {
        &self.store
    }

    /// The pure half of this engine's block pipeline: the scalar
    /// engine's hasher over this store's geometry.
    #[inline]
    fn split_hasher(&self) -> BlockHasher {
        BlockHasher::new(
            self.hasher,
            self.store.len(),
            S::RANKED.then(|| self.store.width()),
        )
    }

    /// Observes edge `(user, item)`; callable concurrently (the edge is
    /// applied under the writer lock).
    #[inline]
    // HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
    pub fn process(&self, user: u64, item: u64) {
        let (slot, value) = self.split_hasher().hash_one(user, item);
        let _writer = self.writer.lock();
        let qn = self.q.numerator(&self.store);
        if let Some(old) = self.store.try_update(slot, value) {
            let inc = self.store.len() as f64 / qn;
            self.counters.add(user, inc);
            self.total.set(self.total.get() + inc);
            self.q.on_growth(old, value);
        }
        // Non-changing edges are discarded for free, matching the scalar
        // engine's Algorithm 1/2 semantics.
    }

    /// One hashed block, under the writer lock: a load-only warm pass over
    /// every store word the block needs, then a word-level
    /// [`ConcurrentSlotStore::update_block`], each growth credited at the
    /// numerator of `q` just before it with one counter add and one
    /// addition to the total, in stream order, then one store of the
    /// total. Unlike the scalar engine there is no counter warm —
    /// [`ShardedCounterMap`] sits behind shard mutexes, so a speculative
    /// read would contend rather than prefetch.
    #[inline(always)]
    fn apply_block(
        &self,
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
            .update_block(slots, values, &mut s.grew[..k], &mut s.old[..k]);
        let growths = s.list_growths(chunk, values, S::RANKED);
        let (old, new, numerators) = s.growth_values(growths);
        self.q.block_numerators(start, old, new, numerators);
        let (users, credits) = s.credits(self.store.len(), growths);
        let mut total = self.total.get();
        for (&user, &credit) in users.iter().zip(credits) {
            self.counters.add(user, credit);
            total += credit;
        }
        self.total.set(total);
    }

    /// Observes a slice of edges — the batched fast path; callable
    /// concurrently, and applied whole under the writer lock. The slice is
    /// cut into blocks of [`crate::INGEST_BLOCK`] edges, each hashed by
    /// [`BlockHasher::hash`] and applied over compile-time sized stack
    /// scratch. The store and counters end as per-edge ingest of the slice
    /// leaves them.
    // HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
    pub fn process_batch(&self, edges: &[(u64, u64)]) {
        const BLOCK: usize = crate::INGEST_BLOCK;
        let hasher = self.split_hasher();
        let mut slots = [0usize; BLOCK];
        let mut values = [1u16; BLOCK];
        let mut scratch = BlockScratch::new();
        let _writer = self.writer.lock();
        for chunk in edges.chunks(BLOCK) {
            let k = chunk.len();
            hasher.hash(chunk, &mut slots[..k], &mut values[..k]);
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

    /// Unions another engine's state into this one, under this engine's
    /// writer lock (`other` must be quiescent): bitwise OR for bit stores,
    /// element-wise max for registers, per-user counters and the running
    /// totals added, then the `q` tracker resynchronised exactly against
    /// the merged store. See
    /// [`crate::engine::SketchEngine::merge`] for the disjoint-partition
    /// semantics.
    ///
    /// # Errors
    /// [`graphstream::SnapshotError::ConfigMismatch`] when the hasher
    /// seeds or store geometries (length, register width) differ.
    pub fn merge(&self, other: &Self) -> Result<(), graphstream::SnapshotError> {
        check_mergeable(
            (&self.hasher, self.store.len(), self.store.width()),
            (&other.hasher, other.store.len(), other.store.width()),
        )?;
        let _writer = self.writer.lock();
        self.store.merge_from(&other.store);
        other
            .counters
            .for_each(&mut |user, est| self.counters.add(user, est));
        self.total.set(self.total.get() + other.total_estimate());
        self.q.resync(&self.store);
        Ok(())
    }

    /// Verifies the maintained `q` numerator against an exact store scan
    /// (quiescent state only); returns the absolute discrepancy. For bit
    /// stores this checks the stored zero count against a popcount
    /// recount, for register stores the summed `Z` against
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
