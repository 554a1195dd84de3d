//! Property-based tests for the shared-array estimators.

use freesketch::{
    load_snapshot, save_snapshot, AnySketch, CardinalityEstimator, Cse, FreeBS, FreeRS,
    PerUserHllpp, PerUserLpc, ShardedFreeBS, ShardedFreeRS, VHll,
};
use proptest::prelude::*;

/// Random edge streams: user ids in a small range (to force sharing),
/// item ids arbitrary.
fn edges() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..32, any::<u64>()), 0..600)
}

fn all_estimators(seed: u64) -> Vec<Box<dyn CardinalityEstimator>> {
    vec![
        Box::new(FreeBS::new(1 << 14, seed)),
        Box::new(FreeRS::new(1 << 11, seed)),
        Box::new(PerUserLpc::new(512, seed)),
        Box::new(PerUserHllpp::new(6, seed)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Replaying the exact same stream twice leaves every estimate
    /// unchanged for the HT estimators and the per-user baselines. (CSE and
    /// vHLL legitimately *refresh* their cached counters on replay — the
    /// global noise term moved while other users streamed — so for them the
    /// invariant is on the fresh O(m) estimate instead.)
    #[test]
    fn replay_changes_nothing(stream in edges(), seed: u64) {
        for mut est in all_estimators(seed) {
            for &(u, d) in &stream {
                est.process(u, d);
            }
            let before: Vec<f64> = (0..32).map(|u| est.estimate(u)).collect();
            for &(u, d) in &stream {
                est.process(u, d);
            }
            let after: Vec<f64> = (0..32).map(|u| est.estimate(u)).collect();
            prop_assert_eq!(&before, &after, "{} changed on replay", est.name());
        }
    }

    /// For the virtual-sketch baselines the replay invariant holds on the
    /// underlying shared state: re-streaming the same edges leaves the
    /// fresh O(m) estimates unchanged.
    #[test]
    fn replay_preserves_virtual_sketch_state(stream in edges(), seed: u64) {
        let mut cse = Cse::new(1 << 13, 128, seed);
        let mut vhll = VHll::new(1 << 10, 64, seed);
        for &(u, d) in &stream {
            cse.process(u, d);
            vhll.process(u, d);
        }
        let before: Vec<f64> = (0..32)
            .flat_map(|u| [cse.estimate_fresh(u), vhll.estimate_fresh(u)])
            .collect();
        for &(u, d) in &stream {
            cse.process(u, d);
            vhll.process(u, d);
        }
        let after: Vec<f64> = (0..32)
            .flat_map(|u| [cse.estimate_fresh(u), vhll.estimate_fresh(u)])
            .collect();
        prop_assert_eq!(before, after);
    }

    /// The batched ingest contract (`CardinalityEstimator::process_batch`):
    /// for every estimator, `process_batch` leaves the shared array
    /// *identical* to per-edge processing and credits every growth at its
    /// own `q`. The scalar FreeBS/FreeRS engines and the sharded engines on
    /// one writer match per-edge ingest exactly (every estimate and the
    /// total compared by their bits) wherever the stream is cut into
    /// batches, and at one shard the sharded engines are the scalar ones at
    /// the same seed.
    #[test]
    fn batch_matches_scalar_exactly(stream in edges(), seed: u64, cut in 1usize..1300) {
        let mut bs = FreeBS::new(1 << 14, seed);
        let mut batch = FreeBS::new(1 << 14, seed);
        for &(u, d) in &stream {
            bs.process(u, d);
        }
        for slice in stream.chunks(cut) {
            batch.process_batch(slice);
        }
        prop_assert_eq!(bs.bit_array(), batch.bit_array());
        prop_assert_eq!(bs.total_estimate().to_bits(), batch.total_estimate().to_bits());
        for u in 0..32u64 {
            prop_assert_eq!(bs.estimate(u).to_bits(), batch.estimate(u).to_bits(), "FreeBS user {}", u);
        }

        let mut rs = FreeRS::new(1 << 11, seed);
        let mut batch = FreeRS::new(1 << 11, seed);
        for &(u, d) in &stream {
            rs.process(u, d);
        }
        for slice in stream.chunks(cut) {
            batch.process_batch(slice);
        }
        prop_assert_eq!(rs.registers(), batch.registers());
        prop_assert_eq!(rs.total_estimate().to_bits(), batch.total_estimate().to_bits());
        for u in 0..32u64 {
            prop_assert_eq!(rs.estimate(u).to_bits(), batch.estimate(u).to_bits(), "FreeRS user {}", u);
        }

        for shards in [1usize, 4] {
            let per_edge = AnySketch::from(ShardedFreeBS::new(1 << 14, shards, seed));
            let batched = AnySketch::from(ShardedFreeBS::new(1 << 14, shards, seed));
            let rs_per_edge = AnySketch::from(ShardedFreeRS::new(1 << 11, shards, seed));
            let rs_batched = AnySketch::from(ShardedFreeRS::new(1 << 11, shards, seed));
            let scalars: [&dyn CardinalityEstimator; 2] = [&bs, &rs];
            for ((a, b), scalar) in [(&per_edge, &batched), (&rs_per_edge, &rs_batched)].into_iter().zip(scalars) {
                let (a_in, b_in) = (a.as_concurrent().expect("sharded"), b.as_concurrent().expect("sharded"));
                for &(u, d) in &stream {
                    a_in.ingest(u, d);
                }
                for slice in stream.chunks(cut) {
                    b_in.ingest_batch(slice);
                }
                prop_assert_eq!(arry_section(a), arry_section(b), "{} P = {}", a.name(), shards);
                prop_assert_eq!(a.total_estimate().to_bits(), b.total_estimate().to_bits(), "{} P = {}", a.name(), shards);
                for u in 0..32u64 {
                    prop_assert_eq!(a.estimate(u).to_bits(), b.estimate(u).to_bits(), "{} P = {} user {}", a.name(), shards, u);
                }
                if shards == 1 {
                    prop_assert_eq!(a.total_estimate().to_bits(), scalar.total_estimate().to_bits(), "{}", a.name());
                    for u in 0..32u64 {
                        prop_assert_eq!(a.estimate(u).to_bits(), scalar.estimate(u).to_bits(), "{} user {}", a.name(), u);
                    }
                }
            }
        }

        // CSE / vHLL: run-grouped batch refresh is exactly the scalar final
        // state. Per-user baselines exercise the default per-edge loop.
        let mut pairs: Vec<(Box<dyn CardinalityEstimator>, Box<dyn CardinalityEstimator>)> = vec![
            (Box::new(Cse::new(1 << 13, 128, seed)), Box::new(Cse::new(1 << 13, 128, seed))),
            (Box::new(VHll::new(1 << 10, 64, seed)), Box::new(VHll::new(1 << 10, 64, seed))),
            (Box::new(PerUserLpc::new(256, seed)), Box::new(PerUserLpc::new(256, seed))),
            (Box::new(PerUserHllpp::new(6, seed)), Box::new(PerUserHllpp::new(6, seed))),
        ];
        for (scalar, batch) in &mut pairs {
            for &(u, d) in &stream {
                scalar.process(u, d);
            }
            batch.process_batch(&stream);
            for u in 0..32u64 {
                prop_assert_eq!(
                    scalar.estimate(u),
                    batch.estimate(u),
                    "{} user {}", scalar.name(), u
                );
            }
        }
    }

    /// Batched ingest is insensitive to how the stream is sliced: empty
    /// slices are no-ops and any chunking produces the same shared array.
    #[test]
    fn batch_chunking_is_equivalent(stream in edges(), seed: u64, chunk in 1usize..700) {
        let mut whole = FreeBS::new(1 << 13, seed);
        whole.process_batch(&stream);
        let mut sliced = FreeBS::new(1 << 13, seed);
        sliced.process_batch(&[]);
        for c in stream.chunks(chunk) {
            sliced.process_batch(c);
        }
        sliced.process_batch(&[]);
        prop_assert_eq!(whole.bit_array(), sliced.bit_array());
        prop_assert_eq!(whole.user_count(), sliced.user_count());
    }

    /// Single-edge batches are exactly single-edge processing for every
    /// estimator (block logic must not disturb the degenerate case).
    #[test]
    fn single_edge_batch_is_process(u in 0u64..32, d: u64, seed: u64) {
        for (mut a, mut b) in [
            (Box::new(FreeBS::new(1 << 12, seed)) as Box<dyn CardinalityEstimator>,
             Box::new(FreeBS::new(1 << 12, seed)) as Box<dyn CardinalityEstimator>),
            (Box::new(FreeRS::new(1 << 9, seed)) as _, Box::new(FreeRS::new(1 << 9, seed)) as _),
            (Box::new(Cse::new(1 << 12, 64, seed)) as _, Box::new(Cse::new(1 << 12, 64, seed)) as _),
            (Box::new(VHll::new(1 << 9, 32, seed)) as _, Box::new(VHll::new(1 << 9, 32, seed)) as _),
        ] {
            a.process(u, d);
            b.process_batch(&[(u, d)]);
            prop_assert_eq!(a.estimate(u), b.estimate(u), "{}", a.name());
            prop_assert_eq!(a.total_estimate(), b.total_estimate(), "{}", a.name());
        }
    }

    /// Users that never appeared estimate exactly zero; users that appeared
    /// estimate non-negatively.
    #[test]
    fn unseen_users_are_zero(stream in edges(), seed: u64) {
        for mut est in all_estimators(seed) {
            let mut seen = std::collections::HashSet::new();
            for &(u, d) in &stream {
                est.process(u, d);
                seen.insert(u);
            }
            for u in 0..40u64 {
                let e = est.estimate(u);
                if seen.contains(&u) {
                    prop_assert!(e >= 0.0, "{}: negative estimate {e}", est.name());
                } else {
                    prop_assert_eq!(e, 0.0, "{}: unseen user {} has estimate", est.name(), u);
                }
            }
        }
    }

    /// FreeBS/FreeRS per-user estimates sum exactly to the total estimate
    /// (both are Horvitz–Thompson sums over the same increments).
    #[test]
    fn ht_sums_are_consistent(stream in edges(), seed: u64) {
        let mut fbs = FreeBS::new(1 << 13, seed);
        let mut frs = FreeRS::new(1 << 10, seed);
        for &(u, d) in &stream {
            fbs.process(u, d);
            frs.process(u, d);
        }
        let mut sum_b = 0.0;
        fbs.for_each_estimate(&mut |_, e| sum_b += e);
        prop_assert!((sum_b - fbs.total_estimate()).abs() < 1e-6);
        let mut sum_r = 0.0;
        frs.for_each_estimate(&mut |_, e| sum_r += e);
        prop_assert!((sum_r - frs.total_estimate()).abs() < 1e-6);
    }

    /// FreeBS and FreeRS estimates are monotone non-decreasing over time
    /// for every user (increments are non-negative).
    #[test]
    fn estimates_monotone(stream in edges(), seed: u64) {
        let mut fbs = FreeBS::new(1 << 12, seed);
        let mut frs = FreeRS::new(1 << 9, seed);
        let mut last_b = vec![0.0f64; 32];
        let mut last_r = vec![0.0f64; 32];
        for &(u, d) in &stream {
            fbs.process(u, d);
            frs.process(u, d);
            let b = fbs.estimate(u);
            let r = frs.estimate(u);
            prop_assert!(b >= last_b[u as usize]);
            prop_assert!(r >= last_r[u as usize]);
            last_b[u as usize] = b;
            last_r[u as usize] = r;
        }
    }

    /// FreeRS's incremental Z never drifts measurably from the exact sum.
    #[test]
    fn freers_z_invariant(stream in edges(), seed: u64) {
        let mut frs = FreeRS::new(512, seed);
        for &(u, d) in &stream {
            frs.process(u, d);
        }
        let drift = frs.z_drift();
        prop_assert!(drift < 1e-9, "drift {drift}");
    }

    /// FreeBS's q equals the bit array's zero fraction, which equals
    /// 1 - (distinct slots hit)/M.
    #[test]
    fn freebs_q_matches_popcount(stream in edges(), seed: u64) {
        let mut fbs = FreeBS::new(4096, seed);
        for &(u, d) in &stream {
            fbs.process(u, d);
        }
        let recount = fbs.bit_array().recount_zeros();
        prop_assert_eq!(fbs.zeros(), recount);
        prop_assert!((fbs.q() - recount as f64 / 4096.0).abs() < 1e-15);
    }

    /// A snapshot round trip preserves FreeBS and FreeRS state exactly.
    #[test]
    fn snapshot_round_trip(stream in edges(), seed: u64) {
        let mut fbs = AnySketch::FreeBS(FreeBS::new(2048, seed));
        let mut frs = AnySketch::FreeRS(FreeRS::new(512, seed));
        for &(u, d) in &stream {
            fbs.process(u, d);
            frs.process(u, d);
        }
        let mut fbs2 = snapshot_round(&fbs);
        let frs2 = snapshot_round(&frs);
        for u in 0..32u64 {
            prop_assert_eq!(fbs.estimate(u), fbs2.estimate(u));
            prop_assert_eq!(frs.estimate(u), frs2.estimate(u));
        }
        prop_assert_eq!(fbs.sampling_q(), fbs2.sampling_q());
        prop_assert_eq!(frs.sampling_q(), frs2.sampling_q());
        // And the restored estimator keeps working identically.
        for d in 0..50u64 {
            fbs.process(5, d ^ 0xF00D);
            fbs2.process(5, d ^ 0xF00D);
        }
        prop_assert_eq!(fbs.estimate(5), fbs2.estimate(5));
    }

    /// The storage-generic `SketchEngine` reproduces a straight-line
    /// transcription of Algorithm 1 (bit array, exact pre-update m₀, HT
    /// counters) **exactly** — same seed, same stream ⇒ identical
    /// estimates, bit for bit.
    #[test]
    fn engine_reproduces_algorithm1_reference(stream in edges(), seed: u64) {
        let m = 1 << 12;
        let mut engine = FreeBS::new(m, seed);
        let mut bits = bitpack::BitArray::new(m);
        let hasher = hashkit::EdgeHasher::new(seed);
        let mut reference = std::collections::HashMap::<u64, f64>::new();
        let mut total = 0.0;
        for &(u, d) in &stream {
            engine.process(u, d);
            let m0 = bits.zeros();
            if bits.set(hasher.slot(u, d, m)) {
                let inc = m as f64 / m0 as f64;
                *reference.entry(u).or_insert(0.0) += inc;
                total += inc;
            }
        }
        prop_assert_eq!(engine.bit_array(), &bits);
        prop_assert_eq!(engine.total_estimate(), total);
        for u in 0..32u64 {
            prop_assert_eq!(
                engine.estimate(u),
                reference.get(&u).copied().unwrap_or(0.0),
                "user {}", u
            );
        }
    }

    /// Same for Algorithm 2: register max-updates, incremental Z read on
    /// the pre-update state — the generic engine must be an exact
    /// reimplementation.
    #[test]
    fn engine_reproduces_algorithm2_reference(stream in edges(), seed: u64) {
        let m = 1 << 9;
        let width = FreeRS::DEFAULT_WIDTH;
        let mut engine = FreeRS::new(m, seed);
        let mut regs = bitpack::PackedArray::new(m, width);
        let hasher = hashkit::EdgeHasher::new(seed);
        let mut z = m as f64;
        let mut reference = std::collections::HashMap::<u64, f64>::new();
        let pow2_neg = |v: u16| f64::from_bits((1023u64.saturating_sub(u64::from(v))) << 52);
        for &(u, d) in &stream {
            engine.process(u, d);
            let h = hasher.hash_edge(u, d);
            let slot = hashkit::reduce64(h, m);
            let new = u16::from(hashkit::geometric_rank(hashkit::splitmix64(h)).saturated(width));
            if let Some(old) = regs.store_max(slot, new) {
                *reference.entry(u).or_insert(0.0) += m as f64 / z;
                z += pow2_neg(new) - pow2_neg(old);
            }
        }
        prop_assert_eq!(engine.registers(), &regs);
        for u in 0..32u64 {
            prop_assert_eq!(
                engine.estimate(u),
                reference.get(&u).copied().unwrap_or(0.0),
                "user {}", u
            );
        }
    }

    /// Sharded estimates decompose exactly: routing every edge by hand to
    /// P independent concurrent engines reproduces `ShardedSketch`'s
    /// per-user estimates, and replaying the stream changes nothing
    /// (global dedup across shards).
    #[test]
    fn sharded_decomposes_and_deduplicates(stream in edges(), seed: u64) {
        let sharded = freesketch::ShardedFreeBS::new(1 << 14, 4, seed);
        for &(u, d) in &stream {
            sharded.process(u, d);
        }
        let before: Vec<f64> = (0..32).map(|u| sharded.estimate(u)).collect();
        // Per-shard HT sums compose: the total is the sum over shards,
        // which equals the sum over users.
        let mut sum = 0.0;
        sharded.for_each_estimate(&mut |_, e| sum += e);
        prop_assert!((sum - sharded.total_estimate()).abs() < 1e-6);
        // Replay: every edge routes to the same shard and the same slot.
        for &(u, d) in &stream {
            sharded.process(u, d);
        }
        let after: Vec<f64> = (0..32).map(|u| sharded.estimate(u)).collect();
        prop_assert_eq!(before, after, "sharded replay must be absorbed");
    }
}

/// One shard bit for bit: its store words, each user's counter (by user)
/// and its running total.
type ShardImage = (Vec<u64>, Vec<(u64, u64)>, u64);

fn shard_images(sketch: &ShardedFreeBS) -> Vec<ShardImage> {
    sketch
        .shards()
        .iter()
        .map(|shard| {
            let store = shard.store();
            let words = (0..store.word_count()).map(|i| store.word(i)).collect();
            let mut users = Vec::new();
            shard.for_each_estimate(&mut |user, est| users.push((user, est.to_bits())));
            users.sort_unstable();
            (words, users, shard.total_estimate().to_bits())
        })
        .collect()
}

/// Multi-thread sharded stress: 4 threads each send one slice of a stream
/// into a 4-shard sketch. A shard applies whole calls one after another, in
/// whatever order the threads reach it, and a user's HT sum depends on that
/// order; so each shard must end exactly as it does when the four slices
/// arrive in one of their 24 serial orders (each shard in its own order):
/// the same store words, every user's counter and the same total.
#[test]
fn sharded_parallel_ingest_is_a_serial_order_per_shard() {
    let users = 16u64;
    let edges: Vec<(u64, u64)> = (0..120_000u64)
        .map(|i| (i % users, hashkit::splitmix64(i) >> 12))
        .collect();
    let parts: Vec<&[(u64, u64)]> = edges.chunks(edges.len().div_ceil(4)).collect();
    let fresh = || ShardedFreeBS::new(1 << 18, 4, 42);

    let orders: Vec<[usize; 4]> = (0..256usize)
        .map(|i| [i & 3, i >> 2 & 3, i >> 4 & 3, i >> 6])
        .filter(|order| (0..4).all(|part| order.contains(&part)))
        .collect();
    assert_eq!(orders.len(), 24);
    let serial: Vec<Vec<ShardImage>> = orders
        .iter()
        .map(|order| {
            let sketch = fresh();
            for &part in order {
                sketch.process_batch(parts[part]);
            }
            shard_images(&sketch)
        })
        .collect();

    let parallel = fresh();
    std::thread::scope(|s| {
        for &part in &parts {
            let parallel = &parallel;
            s.spawn(move || parallel.process_batch(part));
        }
    });
    for (p, got) in shard_images(&parallel).iter().enumerate() {
        assert!(
            serial.iter().any(|images| &images[p] == got),
            "shard {p} ends in none of the 24 serial orders of the four slices"
        );
    }
}

/// The `ARRY` section of `sketch`'s snapshot: every store's raw words.
fn arry_section(sketch: &AnySketch) -> Vec<u8> {
    let mut bytes = Vec::new();
    save_snapshot(&mut bytes, sketch, 0).expect("in-memory write");
    let sections = graphstream::snapshot::read_sections(&mut bytes.as_slice()).expect("sections");
    graphstream::snapshot::find_section(&sections, b"ARRY")
        .expect("ARRY section")
        .to_vec()
}

fn snapshot_round(sketch: &AnySketch) -> AnySketch {
    let mut bytes = Vec::new();
    save_snapshot(&mut bytes, sketch, 0).expect("in-memory write");
    load_snapshot(&mut bytes.as_slice()).expect("round trip").0
}
