//! The reproduction table (`bench::rows`) at a reduced scale: every row
//! must produce well-formed results, and the checked-in `REPRO.json` must
//! hold the table's current rows.

use bench::Method;

/// Profiles run at this multiple of their default scale.
const SCALE_DIV: u64 = 1000;

#[test]
fn every_row_is_well_formed_at_reduced_scale() {
    for row in bench::rows() {
        let results = bench::run(&row, SCALE_DIV);
        assert_eq!(results.len(), row.streams.len(), "{}", row.id);
        for stream in &results {
            assert_eq!(
                stream.checkpoints.len(),
                row.checkpoints.len(),
                "{}",
                row.id
            );
            for c in &stream.checkpoints {
                assert_eq!(
                    c.estimates.len(),
                    row.roster.len(),
                    "{} at {}",
                    row.id,
                    c.at
                );
                for (e, entry) in c.estimates.iter().zip(&row.roster) {
                    let what = format!("{} at {}: {:?}", row.id, c.at, e.method);
                    assert_eq!(e.method, entry.method, "{what}");
                    let users: u64 = e.bins.iter().map(|(b, _)| b.count).sum();
                    assert_eq!(users, c.users as u64, "{what}");
                    let has_theorem = matches!(e.method, Method::FreeBS | Method::FreeRS { .. });
                    for (bin, theorem_rse) in &e.bins {
                        assert!(bin.rse.is_finite(), "{what}: {bin:?}");
                        assert_eq!(theorem_rse.is_some(), has_theorem, "{what}");
                        assert!(theorem_rse.is_none_or(f64::is_finite), "{what}");
                    }
                    assert_eq!(e.detection.is_some(), row.delta.is_some(), "{what}");
                    if let Some((_, fnr, fpr)) = e.detection {
                        assert!((0.0..=1.0).contains(&fnr), "{what}: FNR {fnr}");
                        assert!((0.0..=1.0).contains(&fpr), "{what}: FPR {fpr}");
                    }
                    match e.method {
                        Method::FreeRS { .. } => {
                            let drift = e.z_drift.expect("FreeRS reports its Z drift");
                            assert!(drift < 1e-9, "{what}: Z drift {drift}");
                        }
                        _ => assert!(e.z_drift.is_none(), "{what}"),
                    }
                }
            }
        }
    }
}

#[test]
fn repro_json_holds_the_current_table() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/REPRO.json");
    let text = std::fs::read_to_string(path).expect("REPRO.json is checked in");
    let recorded: Vec<&str> = text
        .lines()
        .map(|line| line.trim_end_matches(','))
        .filter(|line| line.starts_with(r#"{"kind": "row""#))
        .collect();
    let table: Vec<String> = bench::rows().iter().map(bench::header).collect();
    assert_eq!(
        recorded, table,
        "REPRO.json is stale: regenerate it with \
         `cargo run --release -p freesketch-bench --bin repro > REPRO.json`"
    );
}
