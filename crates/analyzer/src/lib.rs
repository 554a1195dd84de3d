//! # freesketch-analyzer — workspace static-analysis gate
//!
//! The anytime property of the concurrent pipeline rests on source-level
//! invariants the compiler does not check: every atomic ordering choice
//! must be *argued* (one wrong `Relaxed` silently corrupts estimates
//! rather than crashing), `parking_lot`'s non-poisoning locks are
//! load-bearing, and library code must not panic on data. This crate
//! audits all of it, over every
//! non-`vendor/` crate, with a hand-rolled lexer (no `syn`; the build is
//! offline) so string literals and comments can never fool a lint.
//!
//! Two layers of checks:
//!
//! **Line-level lints** on the scrubbed code view:
//!
//! * **ordering-audit** — every `Ordering::{Relaxed,Acquire,Release,
//!   AcqRel,SeqCst}` use site needs an `// ORDERING:` justification
//!   comment within 3 lines;
//! * **unsafe-gate** — every first-party crate root carries
//!   `#![forbid(unsafe_code)]`;
//! * **lock-discipline** — `std::sync::{Mutex,RwLock}` are banned in
//!   library code (vendored `parking_lot` only), as are `.unwrap()` /
//!   `.expect(` / `panic!` outside tests, binaries, and the
//!   `analyzer-allow.toml` allowlist.
//!
//! **Semantic passes** on per-function facts ([`parser`]) and the
//! workspace call graph ([`callgraph`]):
//!
//! * **atomic-protocol** — atomic use sites grouped by field must agree:
//!   a `Release`-side store needs an `Acquire`-or-stronger load in scope
//!   and vice versa, and `Relaxed`-only fields need an explicit
//!   `// ORDERING: relaxed-ok …` justification;
//! * **lock-order** — the global lock-acquisition graph (guard hold
//!   spans propagated through the call graph) must be acyclic; any
//!   cycle is deadlock potential;
//! * **hot-path-hygiene** — functions reachable from `// HOT` annotated
//!   roots must not allocate, `format!`, or `clone()` in steady state.
//!
//! Deliberate exceptions live in `analyzer-allow.toml` at the workspace
//! root; every entry requires a reason string and stale entries are
//! themselves findings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allow;
pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod passes;
pub mod report;

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Every pass the analyzer runs, in execution order. `--pass NAME`
/// selects one; anything else is a usage error.
pub const PASS_NAMES: [&str; 6] = [
    "ordering-audit",
    "unsafe-gate",
    "lock-discipline",
    "atomic-protocol",
    "lock-order",
    "hot-path-hygiene",
];

/// What kind of target a source file belongs to — decides which passes
/// apply (test/bench/binary code is exempt from lock-discipline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Library code: all passes apply.
    Lib,
    /// Integration tests (`tests/`) — panic freely.
    Test,
    /// Benches (`benches/`).
    Bench,
    /// Binaries (`src/bin/`, `main.rs`) and `examples/`.
    Bin,
}

/// One lexed source file plus everything a pass needs to know about it.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, forward slashes.
    pub rel_path: String,
    /// Which target family the file belongs to.
    pub category: Category,
    /// Lexer output (scrubbed code view + comment/string tables).
    pub lexed: lexer::Lexed,
    /// Original source lines (for allowlist matching and snippets).
    pub lines: Vec<String>,
}

impl SourceFile {
    /// Reads and lexes one file. `rel_path` should use forward slashes.
    ///
    /// # Errors
    /// Propagates the underlying read error.
    pub fn load(abs: &Path, rel_path: String) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(abs)?;
        Ok(Self {
            category: classify(&rel_path),
            lexed: lexer::lex(&text),
            lines: text.lines().map(str::to_string).collect(),
            rel_path,
        })
    }

    /// The original text of 1-based `line`, or `""` when out of range.
    #[must_use]
    pub fn line_text(&self, line: usize) -> &str {
        line.checked_sub(1)
            .and_then(|i| self.lines.get(i))
            .map_or("", String::as_str)
    }
}

/// One diagnostic. Rendered as `file:line: [pass] message` or as JSON.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The pass that produced the finding (e.g. `ordering-audit`).
    pub pass: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line (0 when the finding is file- or entry-level).
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Per-pass execution record: how long the pass took and how many of the
/// final (post-allowlist) findings it owns.
#[derive(Debug, Clone)]
pub struct PassTiming {
    /// Pass name (or `facts` for the shared parse + call-graph build).
    pub pass: &'static str,
    /// Findings surviving the allowlist for this pass.
    pub findings: usize,
    /// Wall-clock microseconds spent in the pass.
    pub micros: u128,
}

/// Result of a full (or `--pass`-filtered) analyzer run.
#[derive(Debug)]
pub struct Analysis {
    /// Surviving findings; empty means the gate passes.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Per-pass timing/count rows, in execution order.
    pub timings: Vec<PassTiming>,
}

/// Classifies a workspace-relative path into a [`Category`].
#[must_use]
pub fn classify(rel_path: &str) -> Category {
    let p = rel_path;
    if p.starts_with("tests/") || p.contains("/tests/") {
        Category::Test
    } else if p.contains("/benches/") {
        Category::Bench
    } else if p.starts_with("examples/")
        || p.contains("/examples/")
        || p.contains("/src/bin/")
        || p.ends_with("/main.rs")
    {
        Category::Bin
    } else {
        Category::Lib
    }
}

/// Directory *names* never descended into: third-party stand-ins, build
/// output, VCS metadata. The analyzer's own deliberately-bad lint
/// fixtures are skipped by workspace-relative path instead — see
/// [`is_analyzer_fixture_dir`] — so a future crate's real `fixtures/`
/// module is not silently exempt from the gate.
const SKIP_DIRS: [&str; 3] = ["vendor", "target", ".git"];

/// Whether a workspace-relative directory is the analyzer's own lint
/// fixture corpus (`crates/analyzer/tests/fixtures`) — the only
/// `fixtures` directory exempt from scanning.
#[must_use]
pub fn is_analyzer_fixture_dir(rel_dir: &str) -> bool {
    rel_dir == "crates/analyzer/tests/fixtures"
        || rel_dir.ends_with("/crates/analyzer/tests/fixtures")
}

/// Recursively collects workspace `.rs` files (skipping `SKIP_DIRS` and
/// the analyzer's fixture corpus), sorted by path for deterministic
/// output.
///
/// # Errors
/// Propagates directory-walk I/O errors.
pub fn discover_sources(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    walk(root, root, &mut |abs, rel| {
        if rel.ends_with(".rs") {
            paths.push((abs.to_path_buf(), rel.to_string()));
        }
    })?;
    paths.sort_by(|a, b| a.1.cmp(&b.1));
    paths
        .into_iter()
        .map(|(abs, rel)| SourceFile::load(&abs, rel))
        .collect()
}

/// Recursively collects first-party crate manifests (`Cargo.toml` files
/// declaring a `[package]`), sorted by path.
///
/// # Errors
/// Propagates directory-walk and file-read I/O errors.
pub fn discover_crates(root: &Path) -> std::io::Result<Vec<CrateManifest>> {
    let mut found = Vec::new();
    walk(root, root, &mut |abs, rel| {
        if rel == "Cargo.toml" || rel.ends_with("/Cargo.toml") {
            found.push((abs.to_path_buf(), rel.to_string()));
        }
    })?;
    found.sort_by(|a, b| a.1.cmp(&b.1));
    let mut out = Vec::new();
    for (abs, rel) in found {
        let text = std::fs::read_to_string(&abs)?;
        if !text.lines().any(|l| l.trim() == "[package]") {
            continue; // virtual manifest
        }
        let dir = abs.parent().unwrap_or(root).to_path_buf();
        let rel_dir = rel.trim_end_matches("Cargo.toml").trim_end_matches('/');
        out.push(CrateManifest {
            dir,
            rel_dir: rel_dir.to_string(),
        });
    }
    Ok(out)
}

/// A first-party crate (a directory whose `Cargo.toml` has `[package]`).
#[derive(Debug)]
pub struct CrateManifest {
    /// Absolute crate directory.
    pub dir: PathBuf,
    /// Workspace-relative crate directory (`""` for the root package).
    pub rel_dir: String,
}

fn walk(root: &Path, dir: &Path, on_file: &mut impl FnMut(&Path, &str)) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            let rel_dir = path
                .strip_prefix(root)
                .map(|r| r.to_string_lossy().replace('\\', "/"))
                .unwrap_or_default();
            if is_analyzer_fixture_dir(&rel_dir) {
                continue;
            }
            walk(root, &path, on_file)?;
        } else if let Ok(rel) = path.strip_prefix(root) {
            let rel = rel.to_string_lossy().replace('\\', "/");
            on_file(&path, &rel);
        }
    }
    Ok(())
}

/// Runs every pass over the workspace at `root` and applies the allowlist.
/// Returns the surviving findings (empty means the gate passes) and the
/// number of files scanned.
///
/// Compatibility wrapper over [`run_passes`] (which also reports
/// per-pass timings and supports `--pass` filtering).
///
/// # Errors
/// Propagates I/O errors from discovery or allowlist parsing.
pub fn analyze_workspace(
    root: &Path,
    allow_path: Option<&Path>,
) -> std::io::Result<(Vec<Finding>, usize)> {
    let analysis = run_passes(root, allow_path, None)?;
    Ok((analysis.findings, analysis.files_scanned))
}

/// Runs the analyzer over the workspace at `root`. `pass_filter` limits
/// the run to one pass from [`PASS_NAMES`]; allowlist entries for other
/// passes are then ignored entirely (not reported stale — they may still
/// match in a full run).
///
/// # Errors
/// Propagates I/O errors from discovery or allowlist parsing.
pub fn run_passes(
    root: &Path,
    allow_path: Option<&Path>,
    pass_filter: Option<&str>,
) -> std::io::Result<Analysis> {
    let sources = discover_sources(root)?;
    let crates = discover_crates(root)?;
    let enabled = |name: &str| pass_filter.is_none_or(|p| p == name);

    let mut findings: Vec<Finding> = Vec::new();
    let mut timings: Vec<PassTiming> = Vec::new();
    let timed = |name: &'static str,
                 findings: &mut Vec<Finding>,
                 timings: &mut Vec<PassTiming>,
                 produce: &mut dyn FnMut() -> Vec<Finding>| {
        let t0 = Instant::now();
        let found = produce();
        timings.push(PassTiming {
            pass: name,
            findings: 0, // patched to the post-allowlist count below
            micros: t0.elapsed().as_micros(),
        });
        findings.extend(found);
    };

    if enabled("ordering-audit") {
        timed("ordering-audit", &mut findings, &mut timings, &mut || {
            sources.iter().flat_map(passes::ordering::check).collect()
        });
    }
    if enabled("unsafe-gate") {
        timed("unsafe-gate", &mut findings, &mut timings, &mut || {
            passes::unsafe_gate::check(root, &crates)
        });
    }
    if enabled("lock-discipline") {
        timed("lock-discipline", &mut findings, &mut timings, &mut || {
            sources.iter().flat_map(passes::locks::check).collect()
        });
    }

    let semantic = [
        passes::atomic_protocol::NAME,
        passes::lock_order::NAME,
        passes::hot_path::NAME,
    ];
    if semantic.iter().any(|n| enabled(n)) {
        let t0 = Instant::now();
        let ws = callgraph::Workspace::build(&sources);
        timings.push(PassTiming {
            pass: "facts",
            findings: 0,
            micros: t0.elapsed().as_micros(),
        });
        if enabled(passes::atomic_protocol::NAME) {
            timed(
                passes::atomic_protocol::NAME,
                &mut findings,
                &mut timings,
                &mut || passes::atomic_protocol::check(&ws, &sources),
            );
        }
        if enabled(passes::lock_order::NAME) {
            timed(
                passes::lock_order::NAME,
                &mut findings,
                &mut timings,
                &mut || passes::lock_order::check(&ws, &sources),
            );
        }
        if enabled(passes::hot_path::NAME) {
            timed(
                passes::hot_path::NAME,
                &mut findings,
                &mut timings,
                &mut || passes::hot_path::check(&ws, &sources),
            );
        }
    }

    let default_allow = root.join("analyzer-allow.toml");
    let allow_path = allow_path.unwrap_or(&default_allow);
    let allowlist = if allow_path.exists() {
        allow::parse_file(allow_path)?
    } else {
        allow::Allowlist::default()
    };
    let findings = allowlist.apply_for(findings, &sources, pass_filter);

    for t in &mut timings {
        t.findings = findings.iter().filter(|f| f.pass == t.pass).count();
    }

    Ok(Analysis {
        findings,
        files_scanned: sources.len(),
        timings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_dir_scope_is_exact() {
        assert!(is_analyzer_fixture_dir("crates/analyzer/tests/fixtures"));
        assert!(!is_analyzer_fixture_dir("crates/core/tests/fixtures"));
        assert!(!is_analyzer_fixture_dir("crates/core/src/fixtures"));
        assert!(!is_analyzer_fixture_dir("fixtures"));
    }

    #[test]
    fn pass_names_are_distinct_and_ordered() {
        let mut sorted = PASS_NAMES.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), PASS_NAMES.len());
    }
}
