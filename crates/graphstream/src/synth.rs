//! Seeded synthetic graph-stream generation.
//!
//! Real traces (CAIDA, Twitter, Flickr, Orkut, LiveJournal) are not
//! shippable; what the estimators actually react to is (a) the multiset of
//! user cardinalities, (b) duplicate edges, and (c) arrival interleaving.
//! The generator controls all three:
//!
//! * per-user target cardinalities are drawn from a **bounded Zipf**
//!   (discrete power-law) distribution whose exponent is fitted by binary
//!   search so the *mean* cardinality matches the dataset profile — the same
//!   heavy-tail shape as the CCDFs in Fig. 2 of the paper;
//! * a configurable **duplication factor** re-emits already-seen edges,
//!   reproducing the "an edge may appear more than once" property of §II;
//! * the final edge sequence is **shuffled** with a seeded Fisher–Yates, so
//!   user activity interleaves over time the way concurrent flows do.

use crate::source::{EdgeSource, EdgeStreamError};
use crate::Edge;
use hashkit::{mix64, mix64_pair, SplitMix64};

/// Configuration for one synthetic stream.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SynthConfig {
    /// Number of users in the stream.
    pub users: usize,
    /// Largest allowed user cardinality (bounded Zipf truncation point).
    pub max_cardinality: u64,
    /// Target mean cardinality (fits the Zipf exponent).
    pub mean_cardinality: f64,
    /// Ratio of stream length to distinct-edge count (≥ 1.0). `1.3` means
    /// 30% of stream elements are duplicates of earlier edges.
    pub duplication: f64,
    /// RNG seed; equal seeds give byte-identical streams.
    pub seed: u64,
}

impl SynthConfig {
    /// A small smoke-test configuration.
    #[must_use]
    pub fn tiny(seed: u64) -> Self {
        Self {
            users: 2_000,
            max_cardinality: 500,
            mean_cardinality: 8.0,
            duplication: 1.3,
            seed,
        }
    }

    /// Generates the stream.
    ///
    /// # Panics
    /// Panics if any field is degenerate (zero users, zero max cardinality,
    /// duplication < 1, mean outside `[1, max_cardinality]`).
    #[must_use]
    pub fn generate(&self) -> SynthStream {
        assert!(self.users > 0, "need at least one user");
        assert!(self.max_cardinality >= 1, "max cardinality must be >= 1");
        assert!(
            self.mean_cardinality >= 1.0 && self.mean_cardinality <= self.max_cardinality as f64,
            "mean cardinality {} must lie in [1, {}]",
            self.mean_cardinality,
            self.max_cardinality
        );
        assert!(self.duplication >= 1.0, "duplication factor must be >= 1");

        let mut rng = SplitMix64::new(mix64(self.seed, 0x5717_0001));
        let zipf = BoundedZipf::fit(self.max_cardinality, self.mean_cardinality);

        // Draw each user's target cardinality.
        let cards: Vec<u64> = (0..self.users).map(|_| zipf.sample(&mut rng)).collect();
        let distinct_total: u64 = cards.iter().sum();

        // Emit distinct edges: user u's j-th item is a pseudo-random id
        // deterministic in (seed, u, j) — item universes overlap across
        // users just as websites are shared across hosts.
        let mut edges: Vec<Edge> =
            Vec::with_capacity((distinct_total as f64 * self.duplication) as usize + 1);
        let item_seed = mix64(self.seed, 0x5717_0002);
        for (u, &c) in cards.iter().enumerate() {
            let user = u as u64;
            for j in 0..c {
                edges.push(Edge::new(user, item_id(item_seed, user, j)));
            }
        }

        // Duplicate injection: re-emit random existing edges.
        let dup_count = ((self.duplication - 1.0) * distinct_total as f64).round() as usize;
        let distinct_len = edges.len();
        for _ in 0..dup_count {
            let pick = rng.next_below(distinct_len as u64) as usize;
            edges.push(edges[pick]);
        }

        // Seeded Fisher–Yates interleave.
        for i in (1..edges.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            edges.swap(i, j);
        }

        SynthStream {
            edges,
            distinct_total,
            config: self.clone(),
            cursor: 0,
        }
    }
}

/// Deterministic pseudo-random item id for user `u`'s `j`-th distinct item.
///
/// Items collide across users with probability ~2^-40 per pair (40-bit item
/// space), mimicking a shared item universe without forcing correlation.
#[inline]
fn item_id(seed: u64, user: u64, j: u64) -> u64 {
    mix64_pair(seed, user, j) & 0xFF_FFFF_FFFF
}

/// A generated, replayable stream.
#[derive(Debug, Clone)]
pub struct SynthStream {
    edges: Vec<Edge>,
    distinct_total: u64,
    config: SynthConfig,
    /// Replay position of the [`EdgeSource`] impl (0 = not yet replayed).
    cursor: usize,
}

impl SynthStream {
    /// The full edge sequence, in arrival order.
    #[must_use]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Stream length including duplicates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the stream has no edges.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Number of distinct user–item pairs (the final `n(t)`).
    #[must_use]
    pub fn distinct_edges(&self) -> u64 {
        self.distinct_total
    }

    /// The generating configuration.
    #[must_use]
    pub fn config(&self) -> &SynthConfig {
        &self.config
    }

    /// Resets the [`EdgeSource`] replay cursor to the stream head, so one
    /// generated stream can be replayed through a chunked consumer many
    /// times (benchmark repetitions).
    pub fn rewind(&mut self) {
        self.cursor = 0;
    }
}

/// In-memory replay through the same chunked interface file readers use,
/// so harness code is written once against [`EdgeSource`]. Infallible;
/// [`SynthStream::rewind`] restarts the replay. Delegates to
/// [`SliceSource`](crate::SliceSource) over the unreplayed tail so the
/// cursor semantics live in one place.
impl EdgeSource for SynthStream {
    fn next_chunk(&mut self, buf: &mut Vec<Edge>, max: usize) -> Result<usize, EdgeStreamError> {
        let n = crate::SliceSource::new(&self.edges[self.cursor..]).next_chunk(buf, max)?;
        self.cursor += n;
        Ok(n)
    }

    fn len_hint(&self) -> Option<u64> {
        Some((self.edges.len() - self.cursor) as u64)
    }
}

/// Bounded Zipf distribution over `{1, …, max}` with `P(x) ∝ x^{-s}`,
/// sampled through a precomputed CDF table and fitted to a target mean by
/// binary search on `s`.
#[derive(Debug, Clone)]
pub struct BoundedZipf {
    cdf: Vec<f64>,
    exponent: f64,
}

impl BoundedZipf {
    /// Fits the exponent so that `E[X] ≈ mean`, then builds the CDF.
    ///
    /// # Panics
    /// Panics if `mean ∉ [1, max]` or `max == 0`.
    #[must_use]
    pub fn fit(max: u64, mean: f64) -> Self {
        assert!(max >= 1);
        assert!((1.0..=max as f64).contains(&mean));
        // E[X] is strictly decreasing in s: s→∞ gives 1, s→-∞ gives max.
        let mut lo = -5.0f64;
        let mut hi = 20.0f64;
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if Self::mean_for(max, mid) > mean {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let s = 0.5 * (lo + hi);
        Self::with_exponent(max, s)
    }

    /// Builds the distribution for an explicit exponent.
    #[must_use]
    pub fn with_exponent(max: u64, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(max as usize);
        let mut acc = 0.0f64;
        for x in 1..=max {
            acc += (x as f64).powf(-s);
            cdf.push(acc);
        }
        let norm = acc;
        for v in &mut cdf {
            *v /= norm;
        }
        // Guard against FP slop on the last entry.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Self { cdf, exponent: s }
    }

    fn mean_for(max: u64, s: f64) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for x in 1..=max {
            let p = (x as f64).powf(-s);
            num += p * x as f64;
            den += p;
        }
        num / den
    }

    /// The fitted exponent `s`.
    #[must_use]
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Draws one value in `1..=max`.
    #[must_use]
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.next_f64();
        // First index with cdf >= u.
        let idx = self.cdf.partition_point(|&c| c < u);
        idx as u64 + 1
    }

    /// Exact mean of the fitted distribution.
    #[must_use]
    pub fn mean(&self) -> f64 {
        let mut prev = 0.0;
        let mut m = 0.0;
        for (i, &c) in self.cdf.iter().enumerate() {
            m += (c - prev) * (i as f64 + 1.0);
            prev = c;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GroundTruth;

    #[test]
    fn zipf_fit_hits_target_mean() {
        for &(max, mean) in &[(500u64, 3.0f64), (1000, 15.0), (3000, 70.0), (100, 1.5)] {
            let z = BoundedZipf::fit(max, mean);
            assert!(
                (z.mean() / mean - 1.0).abs() < 0.01,
                "fit({max}, {mean}): got mean {}",
                z.mean()
            );
        }
    }

    #[test]
    fn zipf_samples_in_range_and_heavy_tailed() {
        let z = BoundedZipf::fit(1000, 5.0);
        let mut rng = SplitMix64::new(1);
        let mut max_seen = 0;
        let mut sum = 0u64;
        let n = 50_000;
        for _ in 0..n {
            let v = z.sample(&mut rng);
            assert!((1..=1000).contains(&v));
            max_seen = max_seen.max(v);
            sum += v;
        }
        let emp_mean = sum as f64 / f64::from(n);
        assert!(
            (emp_mean / 5.0 - 1.0).abs() < 0.1,
            "empirical mean {emp_mean}"
        );
        // Heavy tail: some sample should be far above the mean.
        assert!(max_seen > 100, "max sample {max_seen} not heavy-tailed");
    }

    #[test]
    fn generate_is_deterministic() {
        let a = SynthConfig::tiny(42).generate();
        let b = SynthConfig::tiny(42).generate();
        assert_eq!(a.edges(), b.edges());
        let c = SynthConfig::tiny(43).generate();
        assert_ne!(a.edges(), c.edges());
    }

    #[test]
    fn stream_matches_declared_distinct_count() {
        let s = SynthConfig::tiny(7).generate();
        let mut g = GroundTruth::new();
        for &e in s.edges() {
            g.observe(e);
        }
        assert_eq!(g.total_cardinality(), s.distinct_edges());
        assert!(g.user_count() <= s.config().users);
    }

    #[test]
    fn duplication_factor_controls_length() {
        let mut cfg = SynthConfig::tiny(9);
        cfg.duplication = 1.5;
        let s = cfg.generate();
        let ratio = s.len() as f64 / s.distinct_edges() as f64;
        assert!((ratio - 1.5).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn no_duplication_when_factor_one() {
        let mut cfg = SynthConfig::tiny(11);
        cfg.duplication = 1.0;
        let s = cfg.generate();
        assert_eq!(s.len() as u64, s.distinct_edges());
    }

    #[test]
    fn mean_cardinality_is_respected() {
        let mut cfg = SynthConfig::tiny(13);
        cfg.users = 20_000;
        cfg.mean_cardinality = 10.0;
        let s = cfg.generate();
        let emp = s.distinct_edges() as f64 / cfg.users as f64;
        assert!((emp / 10.0 - 1.0).abs() < 0.1, "empirical mean {emp}");
    }

    #[test]
    #[should_panic(expected = "duplication")]
    fn bad_duplication_rejected() {
        let mut cfg = SynthConfig::tiny(1);
        cfg.duplication = 0.5;
        let _ = cfg.generate();
    }

    #[test]
    #[should_panic(expected = "at least one user")]
    fn zero_users_rejected() {
        let mut cfg = SynthConfig::tiny(1);
        cfg.users = 0;
        let _ = cfg.generate();
    }

    #[test]
    fn edge_source_replay_matches_edges_and_rewinds() {
        let mut s = SynthConfig::tiny(21).generate();
        let expected = s.edges().to_vec();
        let mut buf = Vec::new();
        let mut out = Vec::new();
        assert_eq!(s.len_hint(), Some(expected.len() as u64));
        loop {
            let n = s.next_chunk(&mut buf, 777).expect("infallible");
            if n == 0 {
                break;
            }
            out.extend_from_slice(&buf);
        }
        assert_eq!(out, expected);
        assert_eq!(s.len_hint(), Some(0));
        // Exhausted stays exhausted; rewind restarts.
        assert_eq!(s.next_chunk(&mut buf, 8).expect("infallible"), 0);
        s.rewind();
        let n = s.next_chunk(&mut buf, 8).expect("infallible");
        assert_eq!(n, 8);
        assert_eq!(buf[..], expected[..8]);
    }

    #[test]
    fn edges_are_interleaved() {
        // After shuffling, the first occurrence positions of users should be
        // spread through the stream, not blocked by user id.
        let s = SynthConfig::tiny(17).generate();
        let first_user = s.edges()[0].user;
        let any_late_small_user = s.edges().iter().skip(s.len() / 2).any(|e| e.user < 100);
        assert!(any_late_small_user, "small user ids only at stream head");
        // Not all early edges share one user.
        let distinct_early: std::collections::HashSet<u64> =
            s.edges().iter().take(100).map(|e| e.user).collect();
        assert!(
            distinct_early.len() > 10,
            "first user {first_user} dominates"
        );
    }
}
