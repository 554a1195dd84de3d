//! Proof-by-fixture for every lint: each pass has a checked-in bad snippet
//! it must flag and a good snippet it must not, plus a whole-workspace run
//! that must come back clean (the same invariant `scripts/verify.sh`
//! enforces). The fixture corpus lives under `tests/fixtures/`, a
//! directory the analyzer's own discovery deliberately skips.

use analyzer::callgraph::Workspace;
use analyzer::passes::{atomic_protocol, hot_path, lock_order, locks, ordering, unsafe_gate};
use analyzer::{CrateManifest, Finding, SourceFile};
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

/// Loads a fixture with a `Lib`-classified pretend path so the category-
/// sensitive passes treat it as library code.
fn load(name: &str) -> SourceFile {
    let abs = fixture_dir().join(name);
    SourceFile::load(&abs, format!("crates/fixture/src/{name}"))
        .unwrap_or_else(|e| panic!("fixture {name} must load: {e}"))
}

fn passes_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.pass).collect()
}

/// Runs one of the semantic (fact-based) passes over a single fixture.
fn semantic(name: &str, pass: fn(&Workspace, &[SourceFile]) -> Vec<Finding>) -> Vec<Finding> {
    let sources = vec![load(name)];
    let ws = Workspace::build(&sources);
    pass(&ws, &sources)
}

#[test]
fn ordering_bad_fires() {
    let findings = ordering::check(&load("ordering_bad.rs"));
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(passes_of(&findings).iter().all(|p| *p == "ordering-audit"));
    assert!(findings[0].message.contains("Relaxed"));
    assert!(findings[1].message.contains("Release"));
}

#[test]
fn ordering_good_is_clean() {
    let findings = ordering::check(&load("ordering_good.rs"));
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn locks_bad_fires() {
    let findings = locks::check(&load("locks_bad.rs"));
    let msgs: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    assert!(
        msgs.iter().filter(|m| m.contains("Mutex")).count() >= 3,
        "std::sync::Mutex at import, field and constructor: {msgs:?}"
    );
    assert!(
        msgs.iter().filter(|m| m.contains("RwLock")).count() >= 1,
        "grouped RwLock import: {msgs:?}"
    );
    assert!(msgs.iter().any(|m| m.contains("unwrap")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("expect")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("panic!")), "{msgs:?}");
}

#[test]
fn locks_good_is_clean() {
    let findings = locks::check(&load("locks_good.rs"));
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn unsafe_gate_fixture_crates() {
    let root = fixture_dir();
    let crates = vec![
        CrateManifest {
            dir: root.join("gate_bad"),
            rel_dir: "gate_bad".to_string(),
        },
        CrateManifest {
            dir: root.join("gate_good"),
            rel_dir: "gate_good".to_string(),
        },
    ];
    let findings = unsafe_gate::check(&root, &crates);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].pass, "unsafe-gate");
    assert!(findings[0].file.starts_with("gate_bad/"));
}

#[test]
fn atomic_protocol_bad_fires() {
    let findings = semantic("atomic_protocol_bad.rs", atomic_protocol::check);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(passes_of(&findings).iter().all(|p| *p == "atomic-protocol"));
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("publishes to nobody") && f.message.contains("head")),
        "Release store without an Acquire reader: {findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("relaxed-ok") && f.message.contains("hits")),
        "unjustified Relaxed-only field: {findings:?}"
    );
}

#[test]
fn atomic_protocol_good_is_clean() {
    let findings = semantic("atomic_protocol_good.rs", atomic_protocol::check);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn lock_order_bad_fires() {
    // The cycle is only visible interprocedurally: forward() holds `a`
    // across a call to bump_b() which takes `b`; backward() nests b → a.
    let findings = semantic("lock_order_bad.rs", lock_order::check);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].pass, "lock-order");
    assert!(
        findings[0].message.contains("cycle")
            && findings[0].message.contains("Pair::a")
            && findings[0].message.contains("Pair::b"),
        "{}",
        findings[0].message
    );
}

#[test]
fn lock_order_good_is_clean() {
    let findings = semantic("lock_order_good.rs", lock_order::check);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn hot_path_bad_fires() {
    // `process` is annotated `// HOT` and clean itself; the `format!` one
    // call down in `record` must still be flagged, with provenance.
    let findings = semantic("hot_path_bad.rs", hot_path::check);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].pass, "hot-path-hygiene");
    assert!(
        findings[0].message.contains("format!")
            && findings[0]
                .message
                .contains("reachable from hot root `Sink::process`"),
        "{}",
        findings[0].message
    );
}

#[test]
fn hot_path_good_is_clean() {
    // The constructor allocates, but it is not reachable from the root.
    let findings = semantic("hot_path_good.rs", hot_path::check);
    assert!(findings.is_empty(), "{findings:?}");
}

/// The invariant `scripts/verify.sh` gates on: the analyzer runs clean
/// over the real workspace, with the checked-in allowlist and with every
/// allowlist entry still in use (stale entries are findings too).
#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let (findings, files_scanned) =
        analyzer::analyze_workspace(&root, None).expect("workspace scan succeeds");
    assert!(
        findings.is_empty(),
        "workspace must be lint-clean:\n{}",
        analyzer::report::human(&findings, files_scanned, &[])
    );
    assert!(
        files_scanned > 50,
        "sanity: the scan saw the whole workspace, not a subdir ({files_scanned} files)"
    );
}
