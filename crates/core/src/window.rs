//! Windowed estimation — tracking *recent* user cardinalities.
//!
//! The paper's conclusion points at online anomaly detection in SDN
//! routers; operationally that means "cardinality over the last N packets",
//! not since boot. This extension provides the standard slice-rotation
//! construction on top of any [`CardinalityEstimator`]: the stream is cut
//! into fixed-length slices, each slice gets a fresh estimator, and a query
//! sums the per-user estimates of the `k` most recent slices. Old slices
//! (and their memory) are dropped whole.
//!
//! Semantics: the window estimate counts a user–item pair once *per slice
//! in which it appears as new*. For pairs that recur across slices this
//! over-counts relative to the distinct count over the window — the
//! classic bitmap-rotation trade (an exact sliding distinct count needs
//! per-item timestamps, cf. Chen et al.'s sliding HLL, paper ref. [7]).
//! Within a slice the estimate is exactly as unbiased as the wrapped
//! estimator. Tests pin both properties.

use crate::CardinalityEstimator;
use std::collections::VecDeque;

/// A slice-rotating window over any cardinality estimator.
///
/// ```
/// use freesketch::{FreeBS, Windowed};
///
/// // 4 slices of 1000 edges each: estimates cover the last ~4000 edges.
/// let mut w = Windowed::new(4, 1000, |i| FreeBS::new(1 << 16, 42 + i));
/// for item in 0..500u64 {
///     w.process(1, item);
/// }
/// assert!(w.estimate(1) > 450.0);
/// // 5000 edges of other traffic expire user 1 entirely:
/// for t in 0..5000u64 {
///     w.process(2, t);
/// }
/// assert_eq!(w.estimate(1), 0.0);
/// ```
pub struct Windowed<E> {
    factory: Box<dyn Fn(u64) -> E + Send + Sync>,
    slices: VecDeque<E>,
    max_slices: usize,
    edges_per_slice: u64,
    /// Total edges ever observed; rotation fires when this crosses a
    /// multiple of `edges_per_slice`.
    edges_seen: u64,
    rotations: u64,
}

impl<E> Windowed<E> {
    /// Creates a window of `max_slices` slices of `edges_per_slice` edges
    /// each; `factory(i)` builds the estimator for the `i`-th slice (use
    /// `i` to derive distinct seeds so slices are independent).
    ///
    /// # Panics
    /// Panics if `max_slices == 0` or `edges_per_slice == 0`.
    pub fn new(
        max_slices: usize,
        edges_per_slice: u64,
        factory: impl Fn(u64) -> E + Send + Sync + 'static,
    ) -> Self {
        assert!(max_slices > 0, "window needs at least one slice");
        assert!(edges_per_slice > 0, "slices must hold at least one edge");
        let mut slices = VecDeque::with_capacity(max_slices + 1);
        slices.push_back(factory(0));
        Self {
            factory: Box::new(factory),
            slices,
            max_slices,
            edges_per_slice,
            edges_seen: 0,
            rotations: 0,
        }
    }

    /// Number of live slices.
    #[must_use]
    pub fn live_slices(&self) -> usize {
        self.slices.len()
    }

    /// Total slice rotations so far.
    #[must_use]
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// Window span in edges (slices × slice length).
    #[must_use]
    pub fn span_edges(&self) -> u64 {
        self.max_slices as u64 * self.edges_per_slice
    }

    /// Appends a fresh slice and retires the oldest once over capacity.
    fn rotate(&mut self) {
        self.rotations += 1;
        self.slices.push_back((self.factory)(self.rotations));
        if self.slices.len() > self.max_slices {
            self.slices.pop_front();
        }
    }
}

impl<E: CardinalityEstimator> Windowed<E> {
    /// Observes one edge, opening a fresh slice (and retiring the oldest
    /// once over capacity) at slice boundaries.
    // HOT: steady-state ingest path — keep allocation-free (hot-path-hygiene root).
    pub fn process(&mut self, user: u64, item: u64) {
        if self.edges_seen > 0 && self.edges_seen.is_multiple_of(self.edges_per_slice) {
            self.rotate();
        }
        self.edges_seen += 1;
        let current = self.slices.back_mut().expect("window never empty");
        current.process(user, item);
    }

    /// The user's estimated cardinality over the current window (sum of the
    /// live slices' estimates).
    #[must_use]
    pub fn estimate(&self, user: u64) -> f64 {
        self.slices.iter().map(|s| s.estimate(user)).sum()
    }

    /// Estimated total cardinality over the window.
    #[must_use]
    pub fn total_estimate(&self) -> f64 {
        self.slices.iter().map(|s| s.total_estimate()).sum()
    }

    /// Combined memory of all live slices, in bits.
    #[must_use]
    pub fn memory_bits(&self) -> usize {
        self.slices.iter().map(|s| s.memory_bits()).sum()
    }
}

impl<E> std::fmt::Debug for Windowed<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Windowed")
            .field("max_slices", &self.max_slices)
            .field("edges_per_slice", &self.edges_per_slice)
            .field("live_slices", &self.slices.len())
            .field("rotations", &self.rotations())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FreeBS;

    fn window(slices: usize, per_slice: u64) -> Windowed<FreeBS> {
        Windowed::new(slices, per_slice, |i| FreeBS::new(1 << 14, 1000 + i))
    }

    #[test]
    fn fresh_window_is_empty() {
        let w = window(4, 100);
        assert_eq!(w.estimate(1), 0.0);
        assert_eq!(w.live_slices(), 1);
        assert_eq!(w.span_edges(), 400);
    }

    #[test]
    fn within_one_slice_matches_plain_estimator() {
        let mut w = window(4, 10_000);
        let mut plain = FreeBS::new(1 << 14, 1000);
        for d in 0..500u64 {
            w.process(3, d);
            plain.process(3, d);
        }
        assert_eq!(w.estimate(3), plain.estimate(3));
        assert_eq!(w.rotations(), 0);
    }

    #[test]
    fn rotation_happens_at_slice_boundary() {
        let mut w = window(3, 100);
        for d in 0..250u64 {
            w.process(1, d);
        }
        assert_eq!(w.rotations(), 2);
        assert_eq!(w.live_slices(), 3);
    }

    #[test]
    fn idle_user_expires_after_window_passes() {
        let mut w = window(2, 100);
        // User 1 active in slice 0 only.
        for d in 0..50u64 {
            w.process(1, d);
        }
        assert!(w.estimate(1) > 40.0);
        // 300 further edges from other users → slice 0 evicted.
        for d in 0..300u64 {
            w.process(2, d);
        }
        assert_eq!(w.estimate(1), 0.0, "expired user must read zero");
        assert!(w.estimate(2) > 0.0);
    }

    #[test]
    fn active_user_keeps_recent_mass_only() {
        let mut w = window(2, 100);
        // 100 distinct items in the first slice, then fresh ones per slice
        // afterwards; after several rotations the estimate reflects ~recent
        // activity, not lifetime cardinality.
        let mut item = 0u64;
        for _ in 0..100 {
            w.process(1, item);
            item += 1;
        }
        for _ in 0..6 {
            for _ in 0..100 {
                w.process(1, item);
                item += 1;
            }
        }
        // Lifetime distinct = 700; window spans 200 edges.
        let est = w.estimate(1);
        assert!(
            (150.0..=260.0).contains(&est),
            "window estimate {est} should reflect ~200 recent items, not 700"
        );
    }

    #[test]
    fn recurring_pairs_count_once_per_slice() {
        // The documented over-count: the same pair in two different slices
        // contributes twice.
        let mut w = window(4, 100);
        for d in 0..50u64 {
            w.process(1, d);
        }
        for d in 50..150u64 {
            w.process(9, d); // push into the next slice
        }
        for d in 0..50u64 {
            w.process(1, d); // same 50 pairs again, new slice
        }
        let est = w.estimate(1);
        assert!(
            (90.0..=110.0).contains(&est),
            "recurring pairs should count per slice: {est}"
        );
    }

    #[test]
    fn memory_is_bounded_by_window() {
        let mut w = window(3, 50);
        for d in 0..10_000u64 {
            w.process(d % 7, d);
        }
        assert_eq!(w.live_slices(), 3);
        assert_eq!(w.memory_bits(), 3 * (1 << 14));
    }

    #[test]
    #[should_panic(expected = "at least one slice")]
    fn zero_slices_rejected() {
        let _ = window(0, 10);
    }

    #[test]
    fn works_with_freers_too() {
        let mut w = Windowed::new(2, 200, |i| crate::FreeRS::new(1 << 10, 7 + i));
        for d in 0..150u64 {
            w.process(1, d);
        }
        let est = w.estimate(1);
        assert!((est / 150.0 - 1.0).abs() < 0.15, "estimate {est}");
    }
}
