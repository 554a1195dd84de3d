//! Regenerates the HLL++ empirical bias-correction tables by simulation.
//!
//! For each precision `p ∈ 4..=14` the generator runs many independent
//! trials, inserting distinct pseudo-random items into a fresh 6-bit
//! register array and sampling the *raw* HLL estimate
//! `α_m m² / Σ 2^{-R}` at ~58 anchor cardinalities spanning `(0, 6m]`.
//! Each anchor becomes a `(mean_raw, mean_raw − n)` interpolation point —
//! the same construction as Heule et al.'s tables, with our own hashes and
//! our own randomness (substitutions listed in README.md, "Reproduction
//! status").
//!
//! Usage:
//! ```text
//! cargo run -p bench --release --bin gen_bias > crates/cardsketch/src/hllpp/bias_tables.rs
//! ```

use bitpack::PackedArray;
use cardsketch::alpha_m;
use hashkit::{geometric_rank, reduce64, splitmix64, SplitMix64};

const WIDTH: u8 = 6;

fn main() {
    println!("// AUTO-GENERATED by `cargo run -p bench --release --bin gen_bias`.");
    println!("// Do not edit by hand; see crates/bench/src/bin/gen_bias.rs.");
    println!();
    for p in 4u8..=14 {
        let anchors = generate_for_precision(p);
        println!(
            "/// Simulation anchors for precision {p} (m = {}).",
            1usize << p
        );
        println!(
            "pub(super) static P{p}: [(f64, f64); {}] = [",
            anchors.len()
        );
        for (raw, bias) in &anchors {
            println!("    ({raw:.4}, {bias:.4}),");
        }
        println!("];");
    }
}

fn generate_for_precision(p: u8) -> Vec<(f64, f64)> {
    let m = 1usize << p;
    let alpha = alpha_m(m);
    // Anchor cardinalities: 0.3m, 0.4m, …, 6.0m.
    let anchor_ns: Vec<usize> = (0..58)
        .map(|k| ((0.3 + 0.1 * k as f64) * m as f64).round() as usize)
        .collect();
    let trials = (1usize << 22) / m.max(1);
    let trials = trials.clamp(200, 20_000);

    let mut raw_sums = vec![0f64; anchor_ns.len()];
    for trial in 0..trials {
        let mut regs = PackedArray::new(m, WIDTH);
        // Incrementally maintained Σ 2^{-R}.
        let mut z = m as f64;
        let seed = splitmix64(0xB1A5_0000 + trial as u64);
        let mut gen = SplitMix64::new(seed);
        let mut inserted = 0usize;
        for (ai, &n) in anchor_ns.iter().enumerate() {
            while inserted < n {
                let h = gen.next_u64();
                let idx = reduce64(h, m);
                let rank = u16::from(geometric_rank(splitmix64(h)).saturated(WIDTH));
                if let Some(old) = regs.store_max(idx, rank) {
                    z += pow2_neg(rank) - pow2_neg(old);
                }
                inserted += 1;
            }
            raw_sums[ai] += alpha * (m as f64) * (m as f64) / z;
        }
    }
    anchor_ns
        .iter()
        .zip(&raw_sums)
        .map(|(&n, &s)| {
            let mean_raw = s / trials as f64;
            (mean_raw, mean_raw - n as f64)
        })
        .collect()
}

#[inline]
fn pow2_neg(v: u16) -> f64 {
    f64::from_bits((1023u64.saturating_sub(u64::from(v))) << 52)
}
