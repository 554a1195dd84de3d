//! Shared harness for the `exp_*` experiment binaries.
//!
//! Every table and figure of the paper's evaluation section maps to one
//! binary in `src/bin/` (see DESIGN.md §4 for the index). The helpers here
//! keep those binaries small: method construction under a common memory
//! budget, stream execution with timing, and simple CLI flags.

#![forbid(unsafe_code)]

use freesketch::{CardinalityEstimator, Cse, FreeBS, FreeRS, PerUserHllpp, PerUserLpc, VHll};
use graphstream::{DatasetProfile, Edge, GroundTruth, SynthStream};

/// Paper defaults (§V-B/§V-E): 5-bit shared registers, `m = 1024`
/// bits/registers per virtual sketch.
pub const REGISTER_WIDTH: u8 = 5;
/// Default virtual-sketch size for CSE/vHLL.
pub const DEFAULT_M: usize = 1024;

/// The method roster of the evaluation, constructed under one memory
/// budget of `m_bits` shared bits (§V-B's equal-memory rule):
///
/// * FreeBS / CSE: `M = m_bits` bits;
/// * FreeRS / vHLL: `M/5` five-bit registers;
/// * per-user LPC: `m_bits/users` bits each;
/// * per-user HLL++: `m_bits/(6·users)` six-bit registers each (precision
///   rounded down to a power of two, min 16 registers).
pub struct MethodSet;

impl MethodSet {
    /// Builds all six methods. `users` is the expected user count (needed
    /// to divide the per-user baselines' budget, exactly as §V-B does).
    #[must_use]
    pub fn all(
        m_bits: usize,
        m_virtual: usize,
        users: usize,
        seed: u64,
    ) -> Vec<Box<dyn CardinalityEstimator>> {
        let mut v = Self::sharing(m_bits, m_virtual, seed);
        v.extend(Self::per_user(m_bits, users, seed));
        v
    }

    /// The four sharing methods only (FreeBS, FreeRS, CSE, vHLL).
    #[must_use]
    pub fn sharing(
        m_bits: usize,
        m_virtual: usize,
        seed: u64,
    ) -> Vec<Box<dyn CardinalityEstimator>> {
        let m_regs = (m_bits / usize::from(REGISTER_WIDTH)).max(m_virtual + 1);
        vec![
            Box::new(FreeBS::new(m_bits, seed)),
            Box::new(FreeRS::new(m_regs, seed)),
            Box::new(Cse::new(m_bits, m_virtual.min(m_bits), seed)),
            Box::new(VHll::new(m_regs, m_virtual.min(m_regs - 1), seed)),
        ]
    }

    /// The per-user baselines (LPC, HLL++) under the same total budget.
    #[must_use]
    pub fn per_user(m_bits: usize, users: usize, seed: u64) -> Vec<Box<dyn CardinalityEstimator>> {
        let lpc_bits = (m_bits / users.max(1)).max(8);
        let hllpp_regs = (m_bits / (6 * users.max(1))).max(16);
        let precision = (usize::BITS - 1 - hllpp_regs.leading_zeros()) as u8;
        let precision = precision.clamp(4, 14);
        vec![
            Box::new(PerUserLpc::new(lpc_bits, seed)),
            Box::new(PerUserHllpp::new(precision, seed)),
        ]
    }
}

/// Runs a full stream through an estimator, returning elapsed seconds.
pub fn run_stream(est: &mut dyn CardinalityEstimator, edges: &[Edge]) -> f64 {
    let start = std::time::Instant::now();
    for e in edges {
        est.process(e.user, e.item);
    }
    start.elapsed().as_secs_f64()
}

/// Generates a profile's stream and its exact ground truth.
#[must_use]
pub fn stream_with_truth(profile: &DatasetProfile, scale: u64) -> (SynthStream, GroundTruth) {
    let stream = profile.scaled(scale).generate();
    let mut truth = GroundTruth::new();
    for &e in stream.edges() {
        truth.observe(e);
    }
    (stream, truth)
}

/// Parses `--scale-div N` (extra division of each profile's default scale,
/// >1 = smaller/faster) and `--scale-mul N` (multiply toward full size)
/// > from the command line. Returns the effective scale for a profile.
#[must_use]
pub fn effective_scale(profile: &DatasetProfile) -> u64 {
    let args: Vec<String> = std::env::args().collect();
    let mut scale = profile.default_scale;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => scale = scale.saturating_mul(10),
            "--full" => scale = 1,
            "--scale" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
                    scale = v;
                    i += 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    scale.max(1)
}

/// Human-readable memory string (`12.5 Mbit`).
#[must_use]
pub fn fmt_bits(bits: usize) -> String {
    if bits >= 1_000_000 {
        format!("{:.1} Mbit", bits as f64 / 1e6)
    } else if bits >= 1_000 {
        format!("{:.1} kbit", bits as f64 / 1e3)
    } else {
        format!("{bits} bit")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_set_has_six_methods() {
        let set = MethodSet::all(1 << 16, 256, 100, 1);
        assert_eq!(set.len(), 6);
        let names: Vec<&str> = set.iter().map(|m| m.name()).collect();
        assert_eq!(names, ["FreeBS", "FreeRS", "CSE", "vHLL", "LPC", "HLL++"]);
    }

    #[test]
    fn methods_share_memory_budget() {
        let m_bits = 1 << 20;
        let set = MethodSet::sharing(m_bits, 1024, 2);
        for m in &set {
            let bits = m.memory_bits();
            assert!(
                bits <= m_bits && bits >= m_bits / 2,
                "{}: {bits} bits vs budget {m_bits}",
                m.name()
            );
        }
    }

    #[test]
    fn run_stream_processes_everything() {
        let mut est = FreeBS::new(1 << 12, 1);
        let edges: Vec<Edge> = (0..100).map(|i| Edge::new(i % 5, i)).collect();
        let secs = run_stream(&mut est, &edges);
        assert!(secs >= 0.0);
        assert!(est.estimate(0) > 0.0);
    }

    #[test]
    fn stream_with_truth_consistent() {
        let p = &graphstream::PROFILES[5];
        let (stream, truth) = stream_with_truth(p, p.default_scale * 100);
        assert_eq!(truth.total_cardinality(), stream.distinct_edges());
    }

    #[test]
    fn fmt_bits_units() {
        assert_eq!(fmt_bits(500), "500 bit");
        assert_eq!(fmt_bits(12_500), "12.5 kbit");
        assert_eq!(fmt_bits(12_500_000), "12.5 Mbit");
    }
}
