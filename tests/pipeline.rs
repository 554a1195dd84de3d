//! End-to-end integration: synthetic dataset → all six estimators →
//! evaluation metrics, asserting the paper's headline qualitative results
//! on a small profile, and that the bit-sharing generations (JointLPC,
//! CSE, FreeBS) improve in order.

use freesketch::{
    CardinalityEstimator, Cse, FreeBS, FreeRS, JointLpc, PerUserHllpp, PerUserLpc, VHll,
};
use graphstream::{GroundTruth, SynthConfig, PROFILES};
use metrics::RseBins;

struct Run {
    name: &'static str,
    mean_rse: f64,
}

fn run_all(profile_idx: usize, extra_scale: u64) -> (Vec<Run>, GroundTruth) {
    let profile = &PROFILES[profile_idx];
    let scale = profile.default_scale * extra_scale;
    let stream = profile.scaled(scale).generate();
    let mut truth = GroundTruth::new();
    for e in stream.edges() {
        truth.observe(*e);
    }
    let m_bits = profile.scaled_memory_bits(scale);
    let users = stream.config().users;
    let m = 1024.min(m_bits / 8);

    let methods: Vec<Box<dyn CardinalityEstimator>> = vec![
        Box::new(FreeBS::new(m_bits, 5)),
        Box::new(FreeRS::new(m_bits / 5, 5)),
        Box::new(Cse::new(m_bits, m, 5)),
        Box::new(VHll::new(m_bits / 5, m, 5)),
        Box::new(PerUserLpc::new((m_bits / users).max(8), 5)),
        Box::new(PerUserHllpp::new(4, 5)),
    ];
    let mut runs = Vec::new();
    for mut method in methods {
        for e in stream.edges() {
            method.process(e.user, e.item);
        }
        let mut bins = RseBins::new(2);
        for (user, actual) in truth.iter() {
            bins.record(actual, method.estimate(user));
        }
        runs.push(Run {
            name: match method.name() {
                "FreeBS" => "FreeBS",
                "FreeRS" => "FreeRS",
                "CSE" => "CSE",
                "vHLL" => "vHLL",
                "LPC" => "LPC",
                _ => "HLL++",
            },
            mean_rse: bins.mean_rse(),
        });
    }
    (runs, truth)
}

fn rse_of(runs: &[Run], name: &str) -> f64 {
    runs.iter()
        .find(|r| r.name == name)
        .expect("method present")
        .mean_rse
}

#[test]
fn paper_headline_freebs_beats_cse_and_vhll() {
    // Fig. 5's central claim at small scale: parameter-free methods win the
    // overall RSE comparison under equal memory.
    let (runs, _) = run_all(5 /* livejournal */, 20);
    let fbs = rse_of(&runs, "FreeBS");
    let frs = rse_of(&runs, "FreeRS");
    let cse = rse_of(&runs, "CSE");
    let vhll = rse_of(&runs, "vHLL");
    assert!(fbs < cse, "FreeBS {fbs} !< CSE {cse}");
    assert!(fbs < vhll, "FreeBS {fbs} !< vHLL {vhll}");
    assert!(frs < cse, "FreeRS {frs} !< CSE {cse}");
    assert!(frs < vhll, "FreeRS {frs} !< vHLL {vhll}");
    // Bit sharing beats register sharing at the small-cardinality-dominated
    // workload (§IV-C / Fig. 5 discussion).
    assert!(fbs < frs, "FreeBS {fbs} !< FreeRS {frs}");
    // And CSE beats vHLL in mean RSE on small-card-dominated data.
    assert!(cse < vhll, "CSE {cse} !< vHLL {vhll}");
}

#[test]
fn estimators_agree_with_truth_in_aggregate() {
    let (runs, truth) = run_all(3 /* flickr */, 20);
    assert!(truth.total_cardinality() > 1000);
    for r in &runs {
        assert!(
            r.mean_rse.is_finite() && r.mean_rse >= 0.0,
            "{}: mean RSE {}",
            r.name,
            r.mean_rse
        );
    }
    // The parameter-free methods should land under 60% mean RSE even at
    // this aggressive down-scale.
    assert!(rse_of(&runs, "FreeBS") < 0.6);
    assert!(rse_of(&runs, "FreeRS") < 0.6);
}

#[test]
fn spreader_detection_end_to_end() {
    let profile = &PROFILES[0]; // sanjose
    let scale = profile.default_scale * 10;
    let stream = profile.scaled(scale).generate();
    let mut truth = GroundTruth::new();
    let m_bits = profile.scaled_memory_bits(scale);
    let mut fbs = FreeBS::new(m_bits, 77);
    for e in stream.edges() {
        truth.observe(*e);
        fbs.process(e.user, e.item);
    }
    let delta = 5e-4; // above the noise floor of the 10x-reduced stream
    let report = freesketch::detect_spreaders(&fbs, delta);
    let threshold = (delta * truth.total_cardinality() as f64).ceil().max(1.0) as u64;
    let actual = truth.spreaders(threshold);
    let outcome =
        metrics::DetectionOutcome::compare(&actual, &report.detected, truth.user_count() as u64);
    assert!(!actual.is_empty(), "workload should contain spreaders");
    assert!(outcome.fnr() < 0.25, "FNR {}", outcome.fnr());
    assert!(outcome.fpr() < 0.01, "FPR {}", outcome.fpr());
}

#[test]
fn anytime_totals_track_running_truth() {
    let profile = &PROFILES[1]; // chicago
    let scale = profile.default_scale * 40;
    let stream = profile.scaled(scale).generate();
    let m_bits = profile.scaled_memory_bits(scale);
    let mut fbs = FreeBS::new(m_bits, 3);
    let mut frs = FreeRS::new(m_bits / 5, 3);
    let mut truth = GroundTruth::new();
    for (i, e) in stream.edges().iter().enumerate() {
        truth.observe(*e);
        fbs.process(e.user, e.item);
        frs.process(e.user, e.item);
        if i % 5000 == 4999 {
            let n = truth.total_cardinality() as f64;
            assert!(
                (fbs.total_estimate() / n - 1.0).abs() < 0.05,
                "FreeBS total at {i}"
            );
            assert!(
                (frs.total_estimate() / n - 1.0).abs() < 0.10,
                "FreeRS total at {i}"
            );
        }
    }
}

#[test]
fn bit_sharing_generations_improve_in_order() {
    // JointLPC (2005) -> CSE (2009) -> FreeBS (2019): mean squared relative
    // error strictly improves on the same stream and budget.
    let stream = SynthConfig {
        users: 4_000,
        max_cardinality: 300,
        mean_cardinality: 10.0,
        duplication: 1.2,
        seed: 79,
    }
    .generate();
    let mut truth = GroundTruth::new();
    for e in stream.edges() {
        truth.observe(*e);
    }
    let m_bits = 1 << 17;

    let mse = |est: &dyn CardinalityEstimator| {
        let mut sq = 0.0;
        let mut k = 0u32;
        for (user, actual) in truth.iter() {
            if actual == 0 {
                continue;
            }
            let rel = (est.estimate(user) - actual as f64) / actual as f64;
            sq += rel * rel;
            k += 1;
        }
        sq / f64::from(k)
    };

    let mut joint = JointLpc::new(m_bits, 2048, 2, 5);
    let mut cse = freesketch::Cse::new(m_bits, 512, 5);
    let mut fbs = FreeBS::new(m_bits, 5);
    for e in stream.edges() {
        joint.process(e.user, e.item);
        cse.process(e.user, e.item);
        fbs.process(e.user, e.item);
    }
    let (mj, mc, mf) = (mse(&joint), mse(&cse), mse(&fbs));
    assert!(mf < mc, "FreeBS MSE {mf} !< CSE {mc}");
    assert!(mc < mj, "CSE MSE {mc} !< JointLPC {mj}");
}
