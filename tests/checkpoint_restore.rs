//! Checkpoint/restore integration: snapshot estimators mid-stream,
//! restore, continue — the estimates must be indistinguishable from an
//! uninterrupted run. This is the operational feature a monitoring daemon
//! needs for restarts.

use freesketch::{
    load_snapshot, save_snapshot, AnySketch, CardinalityEstimator, Cse, FreeBS, FreeRS, VHll,
};
use graphstream::SynthConfig;

fn round_trip<T: serde::Serialize + serde::de::DeserializeOwned>(v: &T) -> T {
    let bytes = serde_json::to_vec(v).expect("serialize");
    serde_json::from_slice(&bytes).expect("deserialize")
}

/// Writes `sketch` as an FSNP snapshot and reads it back.
fn snapshot_round_trip(sketch: &AnySketch, edges: u64) -> AnySketch {
    let mut bytes = Vec::new();
    save_snapshot(&mut bytes, sketch, edges).expect("snapshot write");
    let (restored, offset) = load_snapshot(&mut bytes.as_slice()).expect("snapshot load");
    assert_eq!(offset, edges);
    restored
}

#[test]
fn freebs_checkpoint_restore_continue() {
    let stream = SynthConfig::tiny(61).generate();
    let (first, second) = stream.edges().split_at(stream.len() / 2);

    let mut uninterrupted = FreeBS::new(1 << 16, 12);
    let mut before = AnySketch::FreeBS(FreeBS::new(1 << 16, 12));
    for e in first {
        uninterrupted.process(e.user, e.item);
        before.process(e.user, e.item);
    }
    let mut restored = snapshot_round_trip(&before, first.len() as u64);
    for e in second {
        uninterrupted.process(e.user, e.item);
        restored.process(e.user, e.item);
    }
    assert_eq!(uninterrupted.q(), restored.sampling_q());
    let mut checked = 0;
    uninterrupted.for_each_estimate(&mut |u, e| {
        assert_eq!(e, restored.estimate(u), "user {u}");
        checked += 1;
    });
    assert!(checked > 100);
}

#[test]
fn freers_checkpoint_restore_continue() {
    let stream = SynthConfig::tiny(62).generate();
    let (first, second) = stream.edges().split_at(stream.len() / 3);

    let mut uninterrupted = FreeRS::new(1 << 13, 13);
    let mut before = AnySketch::FreeRS(FreeRS::new(1 << 13, 13));
    for e in first {
        uninterrupted.process(e.user, e.item);
        before.process(e.user, e.item);
    }
    let mut restored = snapshot_round_trip(&before, first.len() as u64);
    for e in second {
        uninterrupted.process(e.user, e.item);
        restored.process(e.user, e.item);
    }
    assert_eq!(uninterrupted.q(), restored.sampling_q());
    assert_eq!(uninterrupted.total_estimate(), restored.total_estimate());
}

#[test]
fn virtual_sketch_methods_round_trip() {
    let stream = SynthConfig::tiny(63).generate();
    let mut cse = Cse::new(1 << 15, 256, 14);
    let mut vhll = VHll::new(1 << 12, 256, 14);
    for e in stream.edges().iter().take(20_000) {
        cse.process(e.user, e.item);
        vhll.process(e.user, e.item);
    }
    let cse2: Cse = round_trip(&cse);
    let vhll2: VHll = round_trip(&vhll);
    for u in 0..50u64 {
        assert_eq!(cse.estimate(u), cse2.estimate(u));
        assert_eq!(cse.estimate_fresh(u), cse2.estimate_fresh(u));
        assert_eq!(vhll.estimate(u), vhll2.estimate(u));
        assert_eq!(vhll.estimate_fresh(u), vhll2.estimate_fresh(u));
    }
}

#[test]
fn sketches_round_trip_too() {
    use cardsketch::{DistinctCounter, HyperLogLog, HyperLogLogPP, LinearCounting};
    let mut lpc = LinearCounting::new(2048, 1).expect("geometry");
    let mut hll = HyperLogLog::new(128, 1).expect("geometry");
    let mut pp = HyperLogLogPP::new(8, 1).expect("precision");
    for i in 0..5000u64 {
        lpc.insert(i);
        hll.insert(i);
        pp.insert(i);
    }
    let lpc2: LinearCounting = round_trip(&lpc);
    let hll2: HyperLogLog = round_trip(&hll);
    let pp2: HyperLogLogPP = round_trip(&pp);
    assert_eq!(lpc.estimate(), lpc2.estimate());
    assert_eq!(hll.estimate(), hll2.estimate());
    assert_eq!(pp.estimate(), pp2.estimate());
}
