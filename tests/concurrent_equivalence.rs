//! The concurrent engine, checked as the one shard of a one-shard sketch:
//! a lone writer's one-shard sketch must be the scalar sketch at the same
//! seed, bit for bit and snapshot record for record; contended writers
//! must apply whole calls one after another, and they must keep `q`
//! exact, dedup global and estimates within noise.

use bitpack::{ConcurrentSlotStore, SlotStore, WordStore};
use freesketch::concurrent::SharedQTracker;
use freesketch::{
    save_snapshot, AnySketch, CardinalityEstimator, ConcurrentEstimator, FreeBS, FreeRS, QTracker,
    ShardedFreeBS, ShardedFreeRS, ShardedSketch, SketchEngine,
};
use graphstream::snapshot::{find_section, read_sections};
use graphstream::{GroundTruth, SynthConfig};
use hashkit::splitmix64;
use std::sync::Barrier;

/// Feeds each of `parts` to `est` on its own scoped thread, edge by edge
/// or as one batch.
fn ingest_from_threads(est: &dyn ConcurrentEstimator, parts: &[&[(u64, u64)]], batched: bool) {
    std::thread::scope(|s| {
        for &part in parts {
            s.spawn(move || {
                if batched {
                    est.ingest_batch(part);
                } else {
                    for &(user, item) in part {
                        est.ingest(user, item);
                    }
                }
            });
        }
    });
}

/// The `CONF`, `ARRY` and `CNTR` sections of `sketch`'s snapshot.
fn sections(sketch: AnySketch) -> [Vec<u8>; 3] {
    let mut bytes = Vec::new();
    save_snapshot(&mut bytes, &sketch, 0).expect("in-memory write");
    let sections = read_sections(&mut bytes.as_slice()).expect("sections");
    [b"CONF", b"ARRY", b"CNTR"].map(|tag| find_section(&sections, tag).expect("section").to_vec())
}

/// Feeds `pairs` to `scalar` per edge, and to one-shard sketches from
/// `fresh` per edge and in 1,000-edge slices: each sketch's shard must be
/// `scalar` bit for bit (every store word, `q`, every user's estimate, the
/// total), and so must its snapshot (the same `ARRY` and `CNTR` bytes and,
/// after the router seed and shard count, the same `CONF` record).
fn assert_lone_writer_is_scalar<S, Q, T, R>(
    mut scalar: SketchEngine<S, Q>,
    fresh: impl Fn() -> ShardedSketch<T, R>,
    pairs: &[(u64, u64)],
) where
    S: SlotStore + WordStore,
    Q: QTracker<S>,
    T: ConcurrentSlotStore + WordStore,
    R: SharedQTracker<T>,
    AnySketch: From<SketchEngine<S, Q>> + From<ShardedSketch<T, R>>,
{
    let per_edge = fresh();
    for &(user, item) in pairs {
        scalar.process(user, item);
        per_edge.process(user, item);
    }
    let blocks = fresh();
    for slice in pairs.chunks(1000) {
        blocks.process_batch(slice);
    }
    let name = CardinalityEstimator::name(&scalar);
    for (how, sketch) in [("per edge", &per_edge), ("blocks", &blocks)] {
        let how = format!("{name} {how}");
        let (shard, store) = (&sketch.shards()[0], scalar.store());
        assert_eq!(shard.store().word_count(), store.word_count(), "{how}");
        for i in 0..store.word_count() {
            assert_eq!(shard.store().word(i), store.word(i), "{how}: word {i}");
        }
        assert_eq!(shard.q().to_bits(), scalar.q().to_bits(), "{how}: q");
        let mut users = Vec::new();
        shard.for_each_estimate(&mut |user, est| {
            users.push(user);
            assert_eq!(
                est.to_bits(),
                scalar.estimate(user).to_bits(),
                "{how}: user {user}"
            );
        });
        users.sort_unstable();
        let visits = users.len();
        users.dedup();
        assert_eq!(users.len(), visits, "{how}: a user was visited twice");
        assert_eq!(users.len(), scalar.user_count(), "{how}");
        assert_eq!(
            sketch.total_estimate().to_bits(),
            scalar.total_estimate().to_bits(),
            "{how}"
        );
    }
    let [conf, arry, cntr] = sections(AnySketch::from(scalar));
    for (how, sketch) in [("per edge", per_edge), ("blocks", blocks)] {
        let [sharded_conf, sharded_arry, sharded_cntr] = sections(AnySketch::from(sketch));
        assert_eq!(sharded_arry, arry, "{name} {how}: ARRY");
        assert_eq!(sharded_cntr, cntr, "{name} {how}: CNTR");
        assert_eq!(
            sharded_conf[16..],
            conf[..],
            "{name} {how}: CONF engine record"
        );
    }
}

#[test]
fn sequential_replay_is_bit_identical() {
    // A one-shard sketch seeded 4 hashes with seed 4, so a lone writer's
    // sketch is the scalar FreeBS or FreeRS seeded 4, per edge and in
    // blocks.
    let stream = SynthConfig::tiny(21).generate();
    let pairs: Vec<(u64, u64)> = stream.edges().iter().map(|e| e.pair()).collect();
    assert_lone_writer_is_scalar(
        FreeBS::new(1 << 18, 4),
        || ShardedFreeBS::new(1 << 18, 1, 4),
        &pairs,
    );
    // In 2¹⁴ registers the stream brings `q` down to about 0.55, so a
    // credit at another `Z` would change its user's bits.
    assert_lone_writer_is_scalar(
        FreeRS::new(1 << 14, 4),
        || ShardedFreeRS::new(1 << 14, 1, 4),
        &pairs,
    );
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
    let pairs: Vec<(u64, u64)> = stream.edges().iter().map(|e| e.pair()).collect();
    let parts: Vec<&[(u64, u64)]> = pairs.chunks(pairs.len().div_ceil(8)).collect();

    for batched in [false, true] {
        let sketch = ShardedFreeBS::new(1 << 19, 1, 6);
        ingest_from_threads(&sketch, &parts, batched);

        // Aggregate accuracy: total within 2%, per-user RMS relative error
        // small for the heavier half of users.
        let total = truth.total_cardinality() as f64;
        assert!(
            (sketch.total_estimate() / total - 1.0).abs() < 0.02,
            "batched {batched}: total {} vs {total}",
            sketch.total_estimate()
        );
        let mut sq = 0.0;
        let mut k = 0usize;
        for (user, actual) in truth.iter() {
            if actual >= 20 {
                let rel = sketch.estimate(user) / actual as f64 - 1.0;
                sq += rel * rel;
                k += 1;
            }
        }
        let rms = (sq / k as f64).sqrt();
        assert!(
            rms < 0.25,
            "batched {batched}: per-user RMS relative error {rms}"
        );
    }
}

#[test]
fn contended_duplicates_stay_deduplicated() {
    // Four threads send the SAME edges, per edge and in blocks: every pair
    // is credited once, so the total stays at the truth, and the array ends
    // as one writer leaves it (slot updates are monotone, so order cannot
    // matter).
    let stream = SynthConfig::tiny(55).generate();
    let mut truth = GroundTruth::new();
    for e in stream.edges() {
        truth.observe(*e);
    }
    let total = truth.total_cardinality() as f64;
    let pairs: Vec<(u64, u64)> = stream.edges().iter().map(|e| e.pair()).collect();
    let parts = [pairs.as_slice(); 4];

    let lone_bits = ShardedFreeBS::new(1 << 19, 1, 8);
    let lone_regs = ShardedFreeRS::new(1 << 17, 1, 8);
    lone_bits.process_batch(&pairs);
    lone_regs.process_batch(&pairs);
    for batched in [false, true] {
        let bits = ShardedFreeBS::new(1 << 19, 1, 8);
        let regs = ShardedFreeRS::new(1 << 17, 1, 8);
        ingest_from_threads(&bits, &parts, batched);
        ingest_from_threads(&regs, &parts, batched);

        let (store, lone) = (bits.shards()[0].store(), lone_bits.shards()[0].store());
        for i in 0..lone.word_count() {
            assert_eq!(store.word(i), lone.word(i), "FreeBS word {i} ({batched})");
        }
        let (store, lone) = (regs.shards()[0].store(), lone_regs.shards()[0].store());
        for i in 0..lone.word_count() {
            assert_eq!(store.word(i), lone.word(i), "FreeRS word {i} ({batched})");
        }
        for sketch in [&bits as &dyn CardinalityEstimator, &regs] {
            assert!(
                (sketch.total_estimate() / total - 1.0).abs() < 0.05,
                "{} (batched {batched}): 4x-duplicated stream inflated the total: {} vs {total}",
                sketch.name(),
                sketch.total_estimate()
            );
        }
    }
}

#[test]
fn contended_ingest_keeps_q_exact() {
    // Four writers, one user each, share one shard, per edge and in
    // blocks: the stored zero count must match a popcount recount and the
    // summed `Z` an exact register scan once they quiesce, and every
    // user's estimate stays near its 5,000 distinct items.
    let pairs: Vec<(u64, u64)> = (0..4u64)
        .flat_map(|user| (0..5_000u64).map(move |item| (user, item)))
        .collect();
    let parts: Vec<&[(u64, u64)]> = pairs.chunks(5_000).collect();
    for batched in [false, true] {
        // 20k edges over 16k bits: the writers collide on slots.
        let bits = ShardedFreeBS::new(1 << 14, 1, 3);
        ingest_from_threads(&bits, &parts, batched);
        let drift = bits.shards()[0].q_discrepancy();
        assert_eq!(drift, 0.0, "zero counter drifted (batched {batched})");

        let regs = ShardedFreeRS::new(1 << 15, 1, 9);
        ingest_from_threads(&regs, &parts, batched);
        let drift = regs.shards()[0].q_discrepancy();
        assert!(drift < 1e-9, "Z drifted by {drift} (batched {batched})");

        assert_eq!(bits.shards()[0].user_count(), 4);
        assert_eq!(regs.shards()[0].user_count(), 4);
        for sketch in [&bits as &dyn CardinalityEstimator, &regs] {
            for user in 0..4u64 {
                let rel = (sketch.estimate(user) / 5_000.0 - 1.0).abs();
                assert!(
                    rel < 0.15,
                    "{} user {user} (batched {batched}): relative error {rel}",
                    sketch.name()
                );
            }
        }
    }
}

/// A one-shard sketch bit for bit: its store words, each user's estimate
/// (by user) and its total.
type Image = (Vec<u64>, Vec<(u64, u64)>, u64);

fn image<S, Q>(sketch: &ShardedSketch<S, Q>) -> Image
where
    S: ConcurrentSlotStore + WordStore,
    Q: SharedQTracker<S>,
{
    let shard = &sketch.shards()[0];
    let words = (0..shard.store().word_count())
        .map(|i| shard.store().word(i))
        .collect();
    let mut users = Vec::new();
    shard.for_each_estimate(&mut |user, est| users.push((user, est.to_bits())));
    users.sort_unstable();
    (words, users, sketch.total_estimate().to_bits())
}

/// Two writers meet at a barrier and each sends one slice into a fresh
/// one-shard sketch, in several rounds; each result must be the image a
/// lone writer leaves after `a` then `b`, or after `b` then `a`.
fn assert_whole_calls<S, Q>(
    fresh: impl Fn() -> ShardedSketch<S, Q>,
    a: &[(u64, u64)],
    b: &[(u64, u64)],
) where
    S: ConcurrentSlotStore + WordStore,
    Q: SharedQTracker<S>,
{
    let serial = |first: &[(u64, u64)], second: &[(u64, u64)]| {
        let sketch = fresh();
        sketch.process_batch(first);
        sketch.process_batch(second);
        image(&sketch)
    };
    let orders = [serial(a, b), serial(b, a)];
    assert_ne!(
        orders[0].1, orders[1].1,
        "the two orders must be told apart"
    );
    for round in 0..4 {
        let sketch = fresh();
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            for part in [a, b] {
                let (sketch, start) = (&sketch, &start);
                s.spawn(move || {
                    start.wait();
                    sketch.ingest_batch(part);
                });
            }
        });
        let got = image(&sketch);
        let name = CardinalityEstimator::name(&sketch);
        assert_eq!(got.0, orders[0].0, "{name} round {round}: store words");
        let differ = |order: &Image| got.1.iter().zip(&order.1).filter(|(x, y)| x != y).count();
        assert!(
            orders.contains(&got),
            "{name} round {round}: the result is neither lone-writer order: {} and {} users \
             differ from A-then-B and B-then-A; total {} (orders: {} and {})",
            differ(&orders[0]),
            differ(&orders[1]),
            f64::from_bits(got.2),
            f64::from_bits(orders[0].2),
            f64::from_bits(orders[1].2)
        );
    }
}

#[test]
fn a_shard_applies_whole_calls_one_at_a_time() {
    // 100k edges over 1,000 users, cut into two 50k-edge slices; both
    // sketches fill far enough that `q` falls well below 1, so a growth
    // credited at another order's `q` changes its user's bits.
    let pairs: Vec<(u64, u64)> = (0..100_000u64)
        .map(|i| (i % 1_000, splitmix64(i) >> 20))
        .collect();
    let (a, b) = pairs.split_at(50_000);
    assert_whole_calls(|| ShardedFreeBS::new(1 << 16, 1, 12), a, b);
    assert_whole_calls(|| ShardedFreeRS::new(1 << 14, 1, 12), a, b);
}
