//! # freesketch — streaming estimation of all user cardinalities over time
//!
//! Rust reproduction of *"Utilizing Dynamic Properties of Sharing Bits and
//! Registers to Estimate User Cardinalities over Time"* (Wang, Jia, Zhang,
//! Tao, Guan, Towsley — ICDE 2019).
//!
//! Given a bipartite graph stream of `(user, item)` pairs with duplicates,
//! every estimator here maintains, in one shared fixed-size array, enough
//! state to report **every user's distinct-item count at any time**:
//!
//! | estimator | shared state | access | paper role |
//! |-----------|--------------|--------|------------|
//! | [`FreeBS`]  | bit array `B[1..M]`       | `&mut` | contribution (§IV-A) |
//! | [`FreeRS`]  | registers `R[1..M]`       | `&mut` | contribution (§IV-B) |
//! | [`ShardedFreeBS`] / [`ShardedFreeRS`] | `P` atomic sub-arrays, per-shard `q` | `&self`, one writer per shard at a time, parallel scale-out | extension |
//! | [`Cse`]     | bit array + virtual LPC   | `&mut`, O(m) | baseline (Yoon et al.) |
//! | [`VHll`]    | registers + virtual HLL   | `&mut`, O(m) | baseline (Xiao et al.) |
//! | [`PerUserLpc`] / [`PerUserHllpp`] | one sketch per user | `&mut`, O(m) | baselines |
//!
//! The two contributions are *parameter-free* (no per-user sketch size `m`
//! to tune) and exploit the **dynamic properties** of the shared array: the
//! probability `q(t)` that a brand-new edge changes the array is tracked
//! exactly (FreeBS) or incrementally (FreeRS), and each user's estimate is a
//! Horvitz–Thompson sum of `1/q(t)` over the edges that changed the array.
//!
//! ## Architecture
//!
//! FreeBS and FreeRS are written once each way over the
//! [`bitpack::SlotStore`] / [`bitpack::ConcurrentSlotStore`] storage seam:
//!
//! * [`engine::SketchEngine`]`<S, Q>` — the exclusive (`&mut`) pipeline:
//!   [`FreeBS`] = `SketchEngine<BitArray, ZeroQ>`, [`FreeRS`] =
//!   `SketchEngine<PackedArray, IncrementalZ>`;
//! * [`ShardedSketch`]`<S, Q>` — the shared (`&self`) estimator: `P`
//!   [`concurrent::ConcurrentEngine`] shards behind a router (per-shard
//!   `q`, HT sums merged across shards). [`ShardedFreeBS`] =
//!   `ShardedSketch<AtomicBitArray, SharedZeroQ>`, [`ShardedFreeRS`] =
//!   `ShardedSketch<AtomicPackedArray, SharedZ>`; at `P = 1` its one
//!   shard hashes with the sketch's seed and stores the scalar sketch's
//!   words, so one writer leaves it bit for bit the scalar sketch.
//!
//! [`AnySketch`] puts the four configurations the CLI builds behind one
//! surface, and [`AnySketch::confidence`] prices any user's anytime
//! interval ([`anytime_ci`]) at the sketch's smallest `q`.
//!
//! ```
//! use freesketch::{CardinalityEstimator, FreeBS};
//!
//! let mut fbs = FreeBS::new(1 << 20, 42);
//! for item in 0..10_000u64 {
//!     fbs.process(7, item);       // user 7 connects to 10k distinct items
//!     fbs.process(7, item);       // duplicates are absorbed
//! }
//! let est = fbs.estimate(7);      // O(1), available at any time
//! assert!((est / 10_000.0 - 1.0).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod concurrent;
mod confidence;
mod cse;
pub mod engine;
mod freebs;
mod freers;
pub mod ingest;
mod jointlpc;
mod peruser;
mod sharded;
pub mod snapshot;
mod spreader;
pub mod theory;
mod vhll;

/// Block depth of the batched ingest path: `process_batch` hashes, warms
/// and updates one block of edges at a time, so each block's cache misses
/// overlap. The engines size their stack scratch by it.
pub const INGEST_BLOCK: usize = 512;

pub use concurrent::ConcurrentEstimator;
pub use confidence::{anytime_ci, EstimateWithCi};
pub use cse::Cse;
pub use engine::{BlockHasher, IncrementalZ, QTracker, SketchEngine, ZeroQ};
pub use freebs::FreeBS;
pub use freers::FreeRS;
pub use ingest::{skip_edges, stream_into, stream_into_parallel, IngestError};
pub use jointlpc::JointLpc;
pub use peruser::{PerUserHllpp, PerUserLpc};
pub use sharded::{ShardedFreeBS, ShardedFreeRS, ShardedSketch};
pub use snapshot::{
    load_snapshot, load_with_fallback, save_snapshot, AnySketch, Checkpointer, SnapshotImage,
};
pub use spreader::{detect_spreaders, SpreaderReport};
pub use vhll::VHll;

/// A streaming estimator of all user cardinalities over time (§II).
///
/// Implementations observe edges one at a time and can report any user's
/// cardinality estimate *at any time* — the anytime property that motivates
/// the paper. Estimates are read from a per-user running counter, which all
/// six methods maintain (the paper's §V-B evaluation harness does the same
/// and excludes the counters from the memory comparison).
pub trait CardinalityEstimator {
    /// Observes edge `(user, item)` — the paper's `e(t) = (s(t), d(t))`.
    fn process(&mut self, user: u64, item: u64);

    /// Observes a slice of edges at once — the batched ingest fast path.
    ///
    /// The default implementation is a plain per-edge loop, so every
    /// estimator gets the API for free; the FreeBS/FreeRS engines (scalar
    /// and sharded), [`Cse`] and [`VHll`] override it with
    /// hand-optimized block pipelines (block hashing, a load-only warm
    /// pass over each block's array words, and amortized `q`/counter
    /// maintenance).
    ///
    /// **Contract:** the final shared-array state (bits/registers) is
    /// *identical* to processing the same edges one at a time in order, and
    /// every growth is credited at the `q` just before it, so the per-user
    /// estimates are the per-edge ones too. The scalar FreeBS/FreeRS
    /// engines, [`Cse`] and [`VHll`] match `process` exactly, and so do the
    /// sharded engines on one writer, every estimate and the total to the
    /// bit. Proptests in `crates/core/tests/proptests.rs` assert both
    /// properties for every implementation.
    // HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
    fn process_batch(&mut self, edges: &[(u64, u64)]) {
        for &(user, item) in edges {
            self.process(user, item);
        }
    }

    /// The pure half of this estimator's batch pipeline, for a driver that
    /// hashes on another thread ahead of the apply (see
    /// [`ingest::stream_into`]). `None`, the default, when the batch path
    /// has no such split; only the scalar FreeBS/FreeRS engines (and
    /// [`AnySketch`] over them) return one.
    fn block_hasher(&self) -> Option<BlockHasher> {
        None
    }

    /// The stateful half of [`CardinalityEstimator::process_batch`]:
    /// applies `edges` whose slots (and ranks, for register stores) the
    /// estimator's [`CardinalityEstimator::block_hasher`] wrote. The result
    /// is bit-identical to `process_batch(edges)`. The default ignores
    /// `slots` and `ranks` and runs `process_batch`.
    // HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
    fn apply_hashed(&mut self, edges: &[(u64, u64)], slots: &[usize], ranks: &[u16]) {
        let _ = (slots, ranks);
        self.process_batch(edges);
    }

    /// The current cardinality estimate `n̂_s(t)` for `user` (0 for users
    /// never seen). O(1) for every implementation.
    fn estimate(&self, user: u64) -> f64;

    /// An estimate of the total cardinality `n(t) = Σ_s n_s(t)` — needed by
    /// the relative-threshold super-spreader detector (§V-F).
    fn total_estimate(&self) -> f64;

    /// Bits of shared-sketch memory (per-user counters excluded, matching
    /// the paper's accounting).
    fn memory_bits(&self) -> usize;

    /// Visits every `(user, estimate)` pair currently tracked.
    fn for_each_estimate(&self, f: &mut dyn FnMut(u64, f64));

    /// Short method name as used in the paper's figures.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod trait_object_tests {
    use super::*;

    #[test]
    fn estimators_are_object_safe() {
        let mut all: Vec<Box<dyn CardinalityEstimator>> = vec![
            Box::new(FreeBS::new(1 << 14, 1)),
            Box::new(FreeRS::new(1 << 11, 1)),
            Box::new(Cse::new(1 << 14, 128, 1)),
            Box::new(VHll::new(1 << 11, 128, 1)),
            Box::new(PerUserLpc::new(256, 1)),
            Box::new(PerUserHllpp::new(4, 1)),
            Box::new(ShardedFreeBS::new(1 << 14, 4, 1)),
            Box::new(ShardedFreeRS::new(1 << 11, 4, 1)),
        ];
        for est in &mut all {
            for u in 0..10u64 {
                for d in 0..20u64 {
                    est.process(u, d);
                }
            }
            let e = est.estimate(0);
            assert!(e > 0.0, "{}: estimate {e}", est.name());
            assert!(est.total_estimate() > 0.0);
            assert!(est.memory_bits() > 0);
            let mut count = 0;
            est.for_each_estimate(&mut |_, _| count += 1);
            assert_eq!(count, 10, "{}", est.name());
        }
    }

    #[test]
    fn concurrent_estimators_are_object_safe_too() {
        let all: Vec<Box<dyn ConcurrentEstimator>> = vec![
            Box::new(ShardedFreeBS::new(1 << 14, 1, 1)),
            Box::new(ShardedFreeRS::new(1 << 11, 2, 1)),
        ];
        for est in &all {
            for d in 0..50u64 {
                est.ingest(1, d);
            }
            est.ingest_batch(&[(1, 100), (2, 7)]);
            assert!(est.estimate(1) > 0.0, "{}", est.name());
        }
    }
}
