//! Sharded concurrent estimation — the one `&self` estimator, and the
//! parallel scale-out of the shared array.
//!
//! A [`ConcurrentEngine`] applies one writer's call at a time, so threads
//! that feed one engine queue on its writer lock. [`ShardedSketch`] splits
//! the memory budget into `P` independent sub-engines and routes each
//! edge — by a dedicated hash of the *pair*, so duplicates land on the
//! same shard and global dedup is preserved — to exactly one of them. Each
//! shard tracks its own `q` over its own sub-array, and writers whose
//! sub-batches go to different shards apply them at the same time.
//!
//! **One shard is the scalar sketch.** At `P = 1` the router has one
//! choice and the shard hashes with the sketch's own seed (shards of a
//! larger `P` hash with `mix64(seed, i)`). Its store keeps the scalar
//! store's word layout, and it hashes, updates and credits as the scalar
//! engine does, so a lone writer's one-shard [`ShardedFreeBS`] or
//! [`ShardedFreeRS`] holds the words, counters and running total of the
//! scalar [`crate::FreeBS`] or [`FreeRS`] at that seed, and writes the
//! same `ARRY`, `CNTR` and engine record to a snapshot
//! (`tests/concurrent_equivalence.rs`). So `serve --threads 1` answers as
//! `estimate` does at the same `--seed`.
//!
//! **Estimator composition.** Routing is uniform over shards, so shard `p`
//! observes an i.i.d. thinned substream of each user's edges. Every shard
//! is an unbiased estimator (Theorems 1/2) of its substream's
//! cardinality, and the counts partition: `n_s = Σ_p n_s^{(p)}`, so the
//! merged estimate `n̂_s = Σ_p n̂_s^{(p)}` is unbiased for `n_s`.
//!
//! **Variance.** The shards are independent, so the merged variance is
//! the sum of the per-shard Theorem 1 bounds. With `N` distinct pairs in
//! the stream, shard `p` absorbs about `N/P` of them, `n_s/P` of them
//! user `s`'s, into `M/P` bits:
//!
//! `Var(n̂_s) ≤ Σ_p (n_s/P)·(E[1/q_B] − 1)` with
//! `E[1/q_B] ≈ e^{t}(1 + P(e^{t} − t − 1)/M)`, `t = N/M`,
//!
//! i.e. `P ·` [`crate::theory::freebs_variance_bound`]`(n_s/P, N/P, M/P)`.
//! Because `n_s`, `N` and `M` all scale by `1/P`, `t` is unchanged and to
//! first order this is the unsharded bound; only the `O(P/M)` correction
//! grows. FreeRS composes the same way with Theorem 2.
//! `tests/sharded_moments.rs` checks mean and variance against it over
//! many seeds: FreeBS and FreeRS per edge, and FreeBS in batches on one
//! ingest thread and on two (`stream_into_parallel`).
//!
//! **Reads.** The total `n̂(t)` is the sum of the shards' running totals,
//! O(P). The user count is the shard's counter-map length at `P = 1`; at
//! `P > 1` it merges the shards' users into one map, as every per-user
//! scan does ([`ShardedSketch::merged_estimates`]), because a user's
//! pairs route to several shards.

use crate::concurrent::{
    ConcurrentEngine, ConcurrentEstimator, SharedQTracker, SharedZ, SharedZeroQ,
};
use crate::{CardinalityEstimator, FreeRS};
use bitpack::{AtomicBitArray, AtomicPackedArray, ConcurrentSlotStore};
use hashkit::{mix64, CounterMap, EdgeHasher};

/// Salt mixed into the routing hasher's seed so shard choice is
/// independent of every in-shard hash (slot, rank), which reuse the same
/// user seed lineage.
const ROUTER_SALT: u64 = 0x005A_A5D0_5EED;

/// `P` independent [`ConcurrentEngine`] shards behind one estimator API.
///
/// `P` is rounded up to a power of two. Ingest (`&self`) may be called
/// from any number of threads; a batch is partitioned by shard once and
/// each sub-batch runs the engine's phased block pipeline under that
/// shard's writer lock.
#[derive(Debug)]
pub struct ShardedSketch<S, Q> {
    shards: Box<[ConcurrentEngine<S, Q>]>,
    router: EdgeHasher,
}

impl<S: ConcurrentSlotStore, Q: SharedQTracker<S>> ShardedSketch<S, Q> {
    /// Splits a budget of `slots` over `shards` fresh engines (rounded up
    /// to a power of two), each store built by `store(slots / P)`. At
    /// `P = 1` the one shard hashes with `seed`, as the scalar sketch does
    /// (see the module docs); at `P > 1` shard `i` hashes with
    /// `mix64(seed, i)`. The router hashes with a salted seed.
    ///
    /// # Panics
    /// Panics if `slots < P` would leave a shard empty.
    fn with_budget(slots: usize, shards: usize, seed: u64, store: impl Fn(usize) -> S) -> Self {
        let p = shards.max(1).next_power_of_two();
        let per_shard = slots / p;
        assert!(per_shard > 0, "budget {slots} too small for {p} shards");
        let shard_seed = |i: usize| if p == 1 { seed } else { mix64(seed, i as u64) };
        let engines = (0..p)
            .map(|i| ConcurrentEngine::from_store(store(per_shard), shard_seed(i)))
            .collect();
        Self::from_parts(engines, EdgeHasher::new(mix64(seed, ROUTER_SALT)))
    }

    /// Assembles a sketch from its shards and router: a fresh split
    /// (`with_budget`) or a snapshot load, which has already checked that
    /// the shard count is a non-zero power of two.
    pub(crate) fn from_parts(engines: Vec<ConcurrentEngine<S, Q>>, router: EdgeHasher) -> Self {
        Self {
            shards: engines.into_boxed_slice(),
            router,
        }
    }

    /// The edge → shard router (recorded by snapshots).
    pub(crate) fn router(&self) -> &EdgeHasher {
        &self.router
    }

    /// Number of shards `P`.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total slots across all shards.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(ConcurrentEngine::capacity).sum()
    }

    /// Capacity-weighted mean sampling probability across shards.
    #[must_use]
    pub fn q(&self) -> f64 {
        let weighted: f64 = self
            .shards
            .iter()
            .map(|s| s.q() * s.capacity() as f64)
            .sum();
        weighted / self.capacity() as f64
    }

    /// The shard an edge routes to (exposed for tests: duplicates must
    /// always agree).
    #[inline]
    #[must_use]
    pub fn route(&self, user: u64, item: u64) -> usize {
        self.router.slot(user, item, self.shards.len())
    }

    /// Observes edge `(user, item)`; callable concurrently.
    #[inline]
    // HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
    pub fn process(&self, user: u64, item: u64) {
        self.shards[self.route(user, item)].process(user, item);
    }

    /// Observes a slice of edges — the batched fast path; callable
    /// concurrently. The slice is partitioned by shard in one routing
    /// pass (stable, so each shard sees its edges in stream order), then
    /// each shard applies its sub-batch whole, through the phased block
    /// pipeline under its writer lock.
    // HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
    pub fn process_batch(&self, edges: &[(u64, u64)]) {
        let p = self.shards.len();
        if p == 1 || edges.is_empty() {
            if let Some(shard) = self.shards.first() {
                shard.process_batch(edges);
            }
            return;
        }
        let mut routes = vec![0usize; edges.len()];
        self.router.slots_many(edges, p, &mut routes);
        let mut parts: Vec<Vec<(u64, u64)>> = Vec::with_capacity(p);
        parts.resize_with(p, || Vec::with_capacity(edges.len() / p + 8));
        for (&e, &r) in edges.iter().zip(&routes) {
            parts[r].push(e);
        }
        for (shard, part) in self.shards.iter().zip(&parts) {
            if !part.is_empty() {
                shard.process_batch(part);
            }
        }
    }

    /// The current estimate for `user`: HT sums compose across shards.
    #[must_use]
    pub fn estimate(&self, user: u64) -> f64 {
        self.shards.iter().map(|s| s.estimate(user)).sum()
    }

    /// Sum of all user estimates: the shards' running totals, O(P).
    #[must_use]
    pub fn total_estimate(&self) -> f64 {
        self.shards
            .iter()
            .map(ConcurrentEngine::total_estimate)
            .sum()
    }

    /// Merged `(user, estimate)` snapshot across shards.
    #[must_use]
    pub fn merged_estimates(&self) -> CounterMap {
        // Each shard's counters are copied out before they are merged, so
        // its counter-map locks are held for the copy only, never while
        // the merged map grows: a query scan must not stall ingest.
        let mut pairs = Vec::new();
        let mut merged = CounterMap::new();
        for s in &self.shards {
            pairs.clear();
            pairs.reserve(s.user_count());
            s.for_each_estimate(&mut |u, e| pairs.push((u, e)));
            for &(u, e) in &pairs {
                merged.add(u, e);
            }
        }
        merged
    }

    /// Number of distinct users tracked: read off the shard when `P = 1`,
    /// merged across shards otherwise (a user's pairs route to several
    /// shards, so per-shard counts would count it more than once).
    #[must_use]
    pub fn user_count(&self) -> usize {
        match &*self.shards {
            [only] => only.user_count(),
            _ => self.merged_estimates().len(),
        }
    }

    /// Total shared-array memory in bits.
    #[must_use]
    pub fn memory_bits(&self) -> usize {
        self.shards.iter().map(ConcurrentEngine::memory_bits).sum()
    }

    /// Read-only view of the shards (for snapshot validation and tests).
    #[must_use]
    pub fn shards(&self) -> &[ConcurrentEngine<S, Q>] {
        &self.shards
    }

    /// Unions another sharded sketch into this one, shard by shard
    /// (quiescent state only). See
    /// [`crate::engine::SketchEngine::merge`] for the disjoint-partition
    /// semantics.
    ///
    /// # Errors
    /// [`graphstream::SnapshotError::ConfigMismatch`] when the shard
    /// counts or router seeds differ, or any shard pair's config differs.
    pub fn merge(&self, other: &Self) -> Result<(), graphstream::SnapshotError> {
        if self.shards.len() != other.shards.len() {
            return Err(graphstream::SnapshotError::ConfigMismatch {
                detail: format!(
                    "shard count {} vs {}",
                    self.shards.len(),
                    other.shards.len()
                ),
            });
        }
        if self.router != other.router {
            return Err(graphstream::SnapshotError::ConfigMismatch {
                detail: format!(
                    "router seed {:#x} vs {:#x}",
                    self.router.seed(),
                    other.router.seed()
                ),
            });
        }
        for (a, b) in self.shards.iter().zip(other.shards.iter()) {
            a.merge(b)?;
        }
        Ok(())
    }
}

impl<S: ConcurrentSlotStore, Q: SharedQTracker<S>> CardinalityEstimator for ShardedSketch<S, Q> {
    #[inline]
    fn process(&mut self, user: u64, item: u64) {
        ShardedSketch::process(self, user, item);
    }

    // HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
    fn process_batch(&mut self, edges: &[(u64, u64)]) {
        ShardedSketch::process_batch(self, edges);
    }

    #[inline]
    fn estimate(&self, user: u64) -> f64 {
        ShardedSketch::estimate(self, user)
    }

    fn total_estimate(&self) -> f64 {
        ShardedSketch::total_estimate(self)
    }

    fn memory_bits(&self) -> usize {
        ShardedSketch::memory_bits(self)
    }

    fn for_each_estimate(&self, f: &mut dyn FnMut(u64, f64)) {
        self.merged_estimates().for_each(f);
    }

    fn name(&self) -> &'static str {
        Q::SHARDED_NAME
    }
}

impl<S: ConcurrentSlotStore, Q: SharedQTracker<S>> ConcurrentEstimator for ShardedSketch<S, Q> {
    #[inline]
    fn ingest(&self, user: u64, item: u64) {
        ShardedSketch::process(self, user, item);
    }

    // HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
    fn ingest_batch(&self, edges: &[(u64, u64)]) {
        ShardedSketch::process_batch(self, edges);
    }
}

/// Sharded concurrent FreeBS: `P` atomic bit arrays with per-shard `m₀`.
pub type ShardedFreeBS = ShardedSketch<AtomicBitArray, SharedZeroQ>;

impl ShardedFreeBS {
    /// Creates a sharded FreeBS with `m_bits` total bits split over
    /// `shards` shards (rounded up to a power of two).
    ///
    /// # Panics
    /// Panics if `m_bits < shards` would leave a shard empty.
    #[must_use]
    pub fn new(m_bits: usize, shards: usize, seed: u64) -> Self {
        Self::with_budget(m_bits, shards, seed, AtomicBitArray::new)
    }
}

/// Sharded concurrent FreeRS: `P` atomic register arrays with per-shard
/// `Z`.
pub type ShardedFreeRS = ShardedSketch<AtomicPackedArray, SharedZ>;

impl ShardedFreeRS {
    /// Creates a sharded FreeRS with `m_registers` total five-bit
    /// registers split over `shards` shards (rounded up to a power of
    /// two).
    ///
    /// # Panics
    /// Panics if `m_registers < shards` would leave a shard empty.
    #[must_use]
    pub fn new(m_registers: usize, shards: usize, seed: u64) -> Self {
        Self::with_budget(m_registers, shards, seed, |m| {
            AtomicPackedArray::new(m, FreeRS::DEFAULT_WIDTH)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn duplicates_route_to_the_same_shard() {
        let s = ShardedFreeBS::new(1 << 16, 4, 9);
        for i in 0..500u64 {
            let (u, d) = (i % 7, i * 31);
            assert_eq!(s.route(u, d), s.route(u, d));
        }
        // And routing actually spreads: all shards see traffic.
        let mut hit = [false; 4];
        for i in 0..200u64 {
            hit[s.route(i, i ^ 0xABCD)] = true;
        }
        assert!(hit.iter().all(|&h| h), "all 4 shards should be hit");
    }

    #[test]
    fn geometry_splits_the_budget() {
        let s = ShardedFreeBS::new(1 << 16, 4, 1);
        assert_eq!(s.shard_count(), 4);
        assert_eq!(s.capacity(), 1 << 16);
        assert_eq!(s.memory_bits(), 1 << 16);
        assert!((s.q() - 1.0).abs() < 1e-15);

        let r = ShardedFreeRS::new(1 << 12, 3, 1); // rounds up to 4 shards
        assert_eq!(r.shard_count(), 4);
        assert_eq!(r.memory_bits(), (1 << 12) * 5);
        assert!((r.q() - 1.0).abs() < 1e-15);
        r.process(1, 1);
        assert!(r.q() < 1.0);
        assert_eq!(CardinalityEstimator::name(&r), "ShardedFreeRS");
        assert_eq!(
            CardinalityEstimator::name(&ShardedFreeBS::new(64, 1, 1)),
            "ShardedFreeBS"
        );
    }

    #[test]
    fn single_thread_accuracy_matches_unsharded_class() {
        let sharded = ShardedFreeBS::new(1 << 18, 8, 3);
        let n = 20_000u64;
        for d in 0..n {
            sharded.process(1, d);
        }
        let rel = (sharded.estimate(1) / n as f64 - 1.0).abs();
        assert!(rel < 0.05, "relative error {rel}");
    }

    #[test]
    fn sharded_freers_accuracy() {
        let sharded = ShardedFreeRS::new(1 << 14, 4, 5);
        let n = 30_000u64;
        for d in 0..n {
            sharded.process(2, d);
        }
        let rel = (sharded.estimate(2) / n as f64 - 1.0).abs();
        assert!(rel < 0.1, "relative error {rel}");
    }

    #[test]
    fn batch_and_scalar_paths_agree_on_one_writer() {
        let batch = ShardedFreeBS::new(1 << 16, 4, 7);
        let scalar = ShardedFreeBS::new(1 << 16, 4, 7);
        let edges: Vec<(u64, u64)> = (0..10_000u64)
            .map(|i| (i % 9, hashkit::splitmix64(i) >> 20))
            .collect();
        batch.process_batch(&edges);
        for &(u, d) in &edges {
            scalar.process(u, d);
        }
        for u in 0..9u64 {
            assert_eq!(batch.estimate(u), scalar.estimate(u), "user {u}");
        }
    }

    #[test]
    fn parallel_ingest_close_to_truth_and_deduplicated() {
        // 4 threads each replay the SAME stream: dedup must hold globally
        // (same edge → same shard → same slot) and per-user estimates must
        // stay close to the sequential truth.
        let sharded = Arc::new(ShardedFreeBS::new(1 << 18, 4, 11));
        let edges: Vec<(u64, u64)> = (0..40_000u64)
            .map(|i| (i % 8, hashkit::splitmix64(i) >> 14))
            .collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let sharded = Arc::clone(&sharded);
                let edges = &edges;
                s.spawn(move || sharded.process_batch(edges));
            }
        });
        let per_user = 5_000.0; // 40k edges over 8 users, items all distinct
        for u in 0..8u64 {
            let rel = (sharded.estimate(u) / per_user - 1.0).abs();
            assert!(rel < 0.1, "user {u}: relative error {rel}");
        }
        assert_eq!(sharded.user_count(), 8);
    }

    #[test]
    fn merged_snapshot_sums_to_total() {
        let s = ShardedFreeRS::new(1 << 12, 4, 13);
        for u in 0..30u64 {
            for d in 0..40u64 {
                s.process(u, d.wrapping_mul(u + 1));
            }
        }
        let merged = s.merged_estimates();
        let mut sum = 0.0;
        merged.for_each(&mut |_, e| sum += e);
        assert!((sum - s.total_estimate()).abs() < 1e-6);
        assert_eq!(merged.len(), s.user_count());
    }

    #[test]
    fn user_count_agrees_with_merged_estimates_at_one_and_four_shards() {
        for p in [1usize, 4] {
            let s = ShardedFreeRS::new(1 << 12, p, 17);
            for u in 0..40u64 {
                for d in 0..25u64 {
                    s.process(u, d.wrapping_mul(u + 3));
                }
            }
            assert_eq!(s.user_count(), s.merged_estimates().len(), "P = {p}");
            assert_eq!(s.user_count(), 40, "P = {p}");
        }
    }

    /// A fresh sharded FreeBS or FreeRS sketch at `p` shards.
    fn fresh(rs: bool, p: usize) -> crate::AnySketch {
        if rs {
            ShardedFreeRS::new(1 << 12, p, 21).into()
        } else {
            ShardedFreeBS::new(1 << 15, p, 21).into()
        }
    }

    fn stream() -> Vec<(u64, u64)> {
        (0..30_000u64)
            .map(|i| (i % 101, hashkit::splitmix64(i) >> 24))
            .collect()
    }

    #[test]
    fn one_writer_totals_do_not_depend_on_the_cut() {
        // A lone writer adds every credit to the running total in stream
        // order, so per-edge ingest, batches of any size and
        // `stream_into_parallel` all end on the same bits.
        let pairs = stream();
        let edges: Vec<graphstream::Edge> = pairs
            .iter()
            .map(|&(u, i)| graphstream::Edge::new(u, i))
            .collect();
        for rs in [false, true] {
            for p in [1usize, 4] {
                let per_edge = fresh(rs, p);
                let est = per_edge.as_concurrent().expect("sharded");
                for &(u, i) in &pairs {
                    est.ingest(u, i);
                }
                let want = per_edge.total_estimate().to_bits();
                let what = format!("{} P = {p}", per_edge.kind());
                for slice in [1usize, 100, 512, 8192] {
                    let batched = fresh(rs, p);
                    let est = batched.as_concurrent().expect("sharded");
                    for part in pairs.chunks(slice) {
                        est.ingest_batch(part);
                    }
                    assert_eq!(batched.total_estimate().to_bits(), want, "{what}, {slice}");
                }
                let streamed = fresh(rs, p);
                let mut src = graphstream::SliceSource::new(&edges);
                let est = streamed.as_concurrent().expect("sharded");
                crate::ingest::stream_into_parallel(
                    est,
                    &mut src,
                    777,
                    crate::ingest::DEFAULT_BATCH,
                    1,
                )
                .expect("clean source");
                assert_eq!(streamed.total_estimate().to_bits(), want, "{what}, stream");
            }
        }
    }

    #[test]
    fn two_writer_totals_match_the_counters() {
        // One writer ingests its half in blocks (one store of the total per
        // block), the other edge by edge (one per growth); they start
        // together, so their calls interleave on the shards' writer locks.
        let pairs = stream();
        let (left, right) = pairs.split_at(pairs.len() / 2);
        for rs in [false, true] {
            for p in [1usize, 4] {
                let sketch = fresh(rs, p);
                let est = sketch.as_concurrent().expect("sharded");
                let start = std::sync::Barrier::new(2);
                std::thread::scope(|s| {
                    s.spawn(|| {
                        start.wait();
                        for part in left.chunks(64) {
                            est.ingest_batch(part);
                        }
                    });
                    s.spawn(|| {
                        start.wait();
                        for &(u, i) in right {
                            est.ingest(u, i);
                        }
                    });
                });
                let mut sum = 0.0;
                sketch.for_each_estimate(&mut |_, e| sum += e);
                let total = sketch.total_estimate();
                assert!(
                    (total - sum).abs() <= 1e-9 * sum,
                    "{} P = {p}: total {total} vs counters {sum}",
                    sketch.kind()
                );
            }
        }
    }
}
