//! `freesketch-analyzer` — CLI entry point for the workspace lint gate.
//!
//! Usage: `freesketch-analyzer [--json] [--root DIR] [--allow FILE]
//! [--pass NAME] [--list-passes]`.
//! Exit status: 0 clean, 1 findings, 2 usage or I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str =
    "freesketch-analyzer [--json] [--root DIR] [--allow FILE] [--pass NAME] [--list-passes]";

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut allow: Option<PathBuf> = None;
    let mut pass: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage("--root requires a directory argument"),
            },
            "--allow" => match args.next() {
                Some(v) => allow = Some(PathBuf::from(v)),
                None => return usage("--allow requires a file argument"),
            },
            "--pass" => match args.next() {
                Some(v) => pass = Some(v),
                None => return usage("--pass requires a pass name argument"),
            },
            "--list-passes" => {
                for name in analyzer::PASS_NAMES {
                    println!("{name}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!(
                    "{USAGE}\n\
                     \n\
                     Static-analysis gate for the freesketch workspace. Passes:\n\
                     ordering-audit, unsafe-gate, lock-discipline, atomic-protocol,\n\
                     lock-order, hot-path-hygiene.\n\
                     --pass NAME runs a single pass; --list-passes prints the names.\n\
                     Exit status: 0 clean, 1 findings, 2 usage/I/O error."
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    if let Some(name) = &pass {
        if !analyzer::PASS_NAMES.contains(&name.as_str()) {
            return usage(&format!(
                "unknown pass `{name}` (use --list-passes to see the {} available)",
                analyzer::PASS_NAMES.len()
            ));
        }
    }

    let root = match root {
        Some(r) => r,
        None => match find_workspace_root() {
            Some(r) => r,
            None => {
                eprintln!(
                    "freesketch-analyzer: no workspace root found (no Cargo.toml with \
                     [workspace] above the current directory); pass --root DIR"
                );
                return ExitCode::from(2);
            }
        },
    };

    match analyzer::run_passes(&root, allow.as_deref(), pass.as_deref()) {
        Ok(analysis) => {
            let rendered = if json {
                analyzer::report::json(
                    &analysis.findings,
                    analysis.files_scanned,
                    &analysis.timings,
                )
            } else {
                analyzer::report::human(
                    &analysis.findings,
                    analysis.files_scanned,
                    &analysis.timings,
                )
            };
            print!("{rendered}");
            if analysis.findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("freesketch-analyzer: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("freesketch-analyzer: {problem}\nusage: {USAGE}");
    ExitCode::from(2)
}

/// Walks up from the current directory to the first `Cargo.toml` that
/// declares `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if is_workspace_manifest(&dir.join("Cargo.toml")) {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn is_workspace_manifest(path: &Path) -> bool {
    std::fs::read_to_string(path)
        .map(|text| text.lines().any(|l| l.trim() == "[workspace]"))
        .unwrap_or(false)
}
