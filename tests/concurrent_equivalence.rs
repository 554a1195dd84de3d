//! Concurrent-extension integration: the lock-free FreeBS variant must
//! agree with the sequential reference on real workloads.

use freesketch::concurrent::ConcurrentFreeBS;
use freesketch::{CardinalityEstimator, FreeBS};
use graphstream::{GroundTruth, SynthConfig};
use std::sync::Arc;

#[test]
fn sequential_replay_is_bit_identical() {
    let stream = SynthConfig::tiny(21).generate();
    let conc = ConcurrentFreeBS::new(1 << 18, 4);
    let mut seq = FreeBS::new(1 << 18, 4);
    for e in stream.edges() {
        conc.process(e.user, e.item);
        seq.process(e.user, e.item);
    }
    let mut users = Vec::new();
    conc.for_each_estimate(&mut |user, est| {
        users.push(user);
        assert_eq!(est, seq.estimate(user), "user {user}");
    });
    users.sort_unstable();
    let visits = users.len();
    users.dedup();
    assert_eq!(users.len(), visits, "a user was visited twice");
    assert_eq!(users.len(), seq.user_count());
}

#[test]
fn parallel_processing_matches_truth_within_noise() {
    let stream = SynthConfig {
        users: 500,
        max_cardinality: 400,
        mean_cardinality: 20.0,
        duplication: 1.4,
        seed: 33,
    }
    .generate();
    let mut truth = GroundTruth::new();
    for e in stream.edges() {
        truth.observe(*e);
    }

    let conc = Arc::new(ConcurrentFreeBS::new(1 << 19, 6));
    let threads = 8;
    let chunk = stream.len().div_ceil(threads);
    std::thread::scope(|s| {
        for part in stream.edges().chunks(chunk) {
            let conc = Arc::clone(&conc);
            s.spawn(move || {
                for e in part {
                    conc.process(e.user, e.item);
                }
            });
        }
    });

    // Aggregate accuracy: total within 2%, per-user RMS relative error
    // small for the heavier half of users.
    let total = truth.total_cardinality() as f64;
    assert!(
        (conc.total_estimate() / total - 1.0).abs() < 0.02,
        "total {} vs {total}",
        conc.total_estimate()
    );
    let mut sq = 0.0;
    let mut k = 0usize;
    for (user, actual) in truth.iter() {
        if actual >= 20 {
            let rel = conc.estimate(user) / actual as f64 - 1.0;
            sq += rel * rel;
            k += 1;
        }
    }
    let rms = (sq / k as f64).sqrt();
    assert!(rms < 0.25, "per-user RMS relative error {rms}");
}

#[test]
fn contended_duplicates_stay_deduplicated() {
    // All threads process the SAME edges; dedup must hold under contention.
    let stream = SynthConfig::tiny(55).generate();
    let mut truth = GroundTruth::new();
    for e in stream.edges() {
        truth.observe(*e);
    }
    let conc = Arc::new(ConcurrentFreeBS::new(1 << 19, 8));
    std::thread::scope(|s| {
        for _ in 0..4 {
            let conc = Arc::clone(&conc);
            let edges = stream.edges();
            s.spawn(move || {
                for e in edges {
                    conc.process(e.user, e.item);
                }
            });
        }
    });
    let total = truth.total_cardinality() as f64;
    assert!(
        (conc.total_estimate() / total - 1.0).abs() < 0.05,
        "4x-duplicated stream inflated the total: {} vs {total}",
        conc.total_estimate()
    );
}
