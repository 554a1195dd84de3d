//! Ingest throughput — scalar per-edge loop vs the batched fast path vs
//! real from-disk file replay.
//!
//! Measures single-core edges/s for FreeBS and FreeRS through the same
//! `dyn CardinalityEstimator` replay harness real ingest uses: the scalar
//! path calls `process` once per edge, the batch path hands
//! `bench::REPLAY_BATCH`-edge slices to `process_batch`, and the two file
//! modes stream the trace back off disk (TSV text — re-hashed on
//! read-back like any real text trace — and binary `fedge` with the raw
//! ids) through the bounded-memory `EdgeSource` readers into
//! `freesketch::ingest::stream_into` — so `BENCH_ingest.json` records
//! honest file-replay rates alongside the in-memory ones. Each
//! configuration runs several times and the best run is reported (the
//! usual minimum-of-k noise filter for short single-core measurements).
//!
//! ```text
//! cargo run -p freesketch-bench --release --bin exp_ingest [--quick] \
//!     [--edges N] [--no-file] [--json] [--out PATH] [--threads T] \
//!     [--scaling-out PATH]
//! ```
//!
//! `--json` additionally writes the machine-readable `BENCH_ingest.json`
//! (override the path with `--out`), so the perf trajectory is tracked
//! across PRs. `--no-file` skips the from-disk modes (no temp files).
//! `--threads T` (T ≥ 2) adds a sharded thread-scaling section —
//! aggregate edges/s of `ShardedFreeBS`/`ShardedFreeRS` at 1 and T ingest
//! threads — and, with `--json`, records it in `BENCH_scaling.json`
//! (override with `--scaling-out`).
//!
//! Every JSON file records the host context it was measured under
//! (`available_parallelism` and the git commit) — throughput numbers are
//! meaningless across commits without it.

use freesketch::ingest::stream_into;
use freesketch::{CardinalityEstimator, ConcurrentEstimator, FreeBS, FreeRS};
use graphstream::{EdgeSource, FedgeReader, FedgeWriter, SynthConfig, SynthStream, TsvEdgeSource};
use metrics::Table;

/// One measured configuration.
struct Run {
    method: &'static str,
    mode: &'static str,
    seconds: f64,
    edges_per_sec: f64,
}

const REPS: usize = 3;

/// Logical cores the OS reports (0 when it cannot say).
fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get)
}

/// The host context every JSON artifact embeds: core count and the commit
/// the binary was built from (`git rev-parse`, "unknown" outside a work
/// tree).
fn host_context_json() -> String {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    format!(
        "  \"host\": {{\"available_parallelism\": {}, \"git_commit\": \"{commit}\"}},\n",
        available_cores()
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let no_file = args.iter().any(|a| a == "--no-file");
    let mut edges_target: usize = if quick { 1_000_000 } else { 10_000_000 };
    let mut out_path = "BENCH_ingest.json".to_string();
    let mut scaling_out_path = "BENCH_scaling.json".to_string();
    let mut threads = 1usize;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--edges" => {
                let raw = args.get(i + 1).unwrap_or_else(|| {
                    eprintln!("--edges needs a value");
                    std::process::exit(2);
                });
                edges_target = raw.parse().unwrap_or_else(|_| {
                    eprintln!("bad --edges value `{raw}` (expected an integer)");
                    std::process::exit(2);
                });
                i += 1;
            }
            "--threads" => {
                let raw = args.get(i + 1).unwrap_or_else(|| {
                    eprintln!("--threads needs a value");
                    std::process::exit(2);
                });
                threads = raw.parse().unwrap_or_else(|_| {
                    eprintln!("bad --threads value `{raw}` (expected an integer)");
                    std::process::exit(2);
                });
                i += 1;
            }
            "--out" => {
                if let Some(v) = args.get(i + 1) {
                    out_path.clone_from(v);
                    i += 1;
                }
            }
            "--scaling-out" => {
                if let Some(v) = args.get(i + 1) {
                    scaling_out_path.clone_from(v);
                    i += 1;
                }
            }
            _ => {}
        }
        i += 1;
    }

    // Heavy-tailed synthetic workload with ~20% duplicate edges (the shape
    // the paper's traces have); sized so the stream is `edges_target` long.
    let duplication = 1.25;
    let users = (edges_target / 100).max(64);
    let mean = edges_target as f64 / duplication / users as f64;
    let stream = SynthConfig {
        users,
        max_cardinality: ((mean * 250.0) as u64).max(10),
        mean_cardinality: mean.max(1.0),
        duplication,
        seed: 0xB47C4,
    }
    .generate();
    let edges = stream.edges();
    let pairs = stream.pairs();
    println!(
        "Ingest throughput: {} stream edges ({} distinct), {} users\n",
        edges.len(),
        stream.distinct_edges(),
        users
    );

    let m_bits = 1usize << 24; // 16.8M shared bits / 3.4M five-bit registers

    let mut runs: Vec<Run> = Vec::new();
    for method in ["FreeBS", "FreeRS"] {
        for mode in ["scalar", "batch"] {
            let mut best = f64::INFINITY;
            for _ in 0..REPS {
                let mut est: Box<dyn CardinalityEstimator> = match method {
                    "FreeBS" => Box::new(FreeBS::new(m_bits, 1)),
                    _ => Box::new(FreeRS::new(m_bits / 5, 1)),
                };
                let secs = match mode {
                    "scalar" => bench::run_stream(est.as_mut(), edges),
                    _ => bench::run_stream_batched(est.as_mut(), &pairs),
                };
                best = best.min(secs);
            }
            runs.push(Run {
                method,
                mode,
                seconds: best,
                edges_per_sec: edges.len() as f64 / best,
            });
        }
    }

    if !no_file {
        runs.extend(measure_file_replay(&stream, m_bits));
    }

    let mut table = Table::new(["method", "mode", "seconds", "edges/s", "speedup"]);
    for r in &runs {
        let speedup = scalar_rate(&runs, r.method).map_or_else(
            || "-".to_string(),
            |s| format!("{:.2}x", r.edges_per_sec / s),
        );
        table.row(vec![
            r.method.to_string(),
            r.mode.to_string(),
            format!("{:.3}", r.seconds),
            format!("{:.2e}", r.edges_per_sec),
            if r.mode == "scalar" {
                "1.00x".to_string()
            } else {
                speedup
            },
        ]);
    }
    print!("{}", table.render());

    if json {
        let body = render_json(edges.len(), &runs);
        std::fs::write(&out_path, body).expect("write JSON results");
        println!("\nwrote {out_path}");
    }

    if threads >= 2 {
        let cores = available_cores();
        if cores > 0 && threads > cores {
            eprintln!(
                "WARNING: --threads {threads} exceeds the {cores} core(s) this host reports; \
                 the scaling numbers below measure time-slicing overhead, not parallel speedup."
            );
        }
        let scaling = measure_scaling(&pairs, m_bits, threads);
        let mut table = Table::new(["method", "threads", "seconds", "edges/s", "scaling"]);
        for r in &scaling {
            let base = scaling
                .iter()
                .find(|x| x.method == r.method && x.threads == 1)
                .map_or(r.edges_per_sec, |x| x.edges_per_sec);
            table.row(vec![
                r.method.to_string(),
                r.threads.to_string(),
                format!("{:.3}", r.seconds),
                format!("{:.2e}", r.edges_per_sec),
                format!("{:.2}x", r.edges_per_sec / base),
            ]);
        }
        println!("\nSharded thread scaling ({threads} ingest threads, 4 shards):");
        print!("{}", table.render());
        if json {
            let body = render_scaling_json(pairs.len(), threads, &scaling);
            std::fs::write(&scaling_out_path, body).expect("write scaling JSON");
            println!("\nwrote {scaling_out_path}");
        }
    }
}

/// From-disk replay: writes the stream to temp TSV and `fedge` files once,
/// then measures streaming ingest straight off each file (open + read +
/// decode + `process_batch`, chunked through the bounded-memory
/// [`EdgeSource`] readers — the trace is never resident). Best of
/// [`REPS`] runs per (method, format).
///
/// The fedge file stores the raw ids; the TSV file writes them as decimal
/// text, which [`TsvEdgeSource`] re-hashes on read-back (as it would any
/// real text trace). The two modes therefore ingest equally-sized but not
/// id-identical streams — fine for throughput, so don't compare estimator
/// *state* across them.
fn measure_file_replay(stream: &SynthStream, m_bits: usize) -> Vec<Run> {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let tsv_path = dir.join(format!("exp-ingest-{pid}.tsv"));
    let fedge_path = dir.join(format!("exp-ingest-{pid}.fedge"));

    {
        use std::io::Write;
        let mut tsv = std::io::BufWriter::new(std::fs::File::create(&tsv_path).expect("tsv temp"));
        for e in stream.edges() {
            writeln!(tsv, "{} {}", e.user, e.item).expect("tsv write");
        }
        tsv.flush().expect("tsv flush");
        let file = std::fs::File::create(&fedge_path).expect("fedge temp");
        let mut w = FedgeWriter::new(std::io::BufWriter::new(file)).expect("fedge header");
        w.write_edges(stream.edges()).expect("fedge write");
        w.finish().expect("fedge flush");
    }

    let mut runs = Vec::new();
    for method in ["FreeBS", "FreeRS"] {
        for mode in ["file-tsv", "file-fedge"] {
            let mut best = f64::INFINITY;
            for _ in 0..REPS {
                let mut est: Box<dyn CardinalityEstimator> = match method {
                    "FreeBS" => Box::new(FreeBS::new(m_bits, 1)),
                    _ => Box::new(FreeRS::new(m_bits / 5, 1)),
                };
                let start = std::time::Instant::now();
                let mut src: Box<dyn EdgeSource> = match mode {
                    "file-tsv" => Box::new(TsvEdgeSource::new(std::io::BufReader::new(
                        std::fs::File::open(&tsv_path).expect("tsv reopen"),
                    ))),
                    _ => Box::new(
                        FedgeReader::new(std::io::BufReader::new(
                            std::fs::File::open(&fedge_path).expect("fedge reopen"),
                        ))
                        .expect("fedge header"),
                    ),
                };
                let n = stream_into(
                    est.as_mut(),
                    src.as_mut(),
                    bench::REPLAY_BATCH,
                    bench::REPLAY_BATCH,
                )
                .expect("clean replay");
                let secs = start.elapsed().as_secs_f64();
                assert_eq!(n, stream.len() as u64, "file replay dropped edges");
                best = best.min(secs);
            }
            runs.push(Run {
                method,
                mode,
                seconds: best,
                edges_per_sec: stream.len() as f64 / best,
            });
        }
    }

    std::fs::remove_file(&tsv_path).ok();
    std::fs::remove_file(&fedge_path).ok();
    runs
}

/// One measured thread-scaling configuration.
struct ScalingRun {
    method: &'static str,
    threads: usize,
    seconds: f64,
    edges_per_sec: f64,
}

/// Aggregate ingest rate of the sharded estimators at 1 and `threads`
/// ingest threads (disjoint chunks, `ingest_batch` in `REPLAY_BATCH`
/// slices per thread). Best of [`REPS`] runs each.
fn measure_scaling(pairs: &[(u64, u64)], m_bits: usize, threads: usize) -> Vec<ScalingRun> {
    let shards = 4usize;
    let mut out = Vec::new();
    for method in ["ShardedFreeBS", "ShardedFreeRS"] {
        for t in [1usize, threads] {
            let mut best = f64::INFINITY;
            for _ in 0..REPS {
                let est: Box<dyn ConcurrentEstimator> = match method {
                    "ShardedFreeBS" => Box::new(freesketch::ShardedFreeBS::new(m_bits, shards, 1)),
                    _ => Box::new(freesketch::ShardedFreeRS::new(m_bits / 5, shards, 1)),
                };
                let chunk = pairs.len().div_ceil(t);
                let start = std::time::Instant::now();
                std::thread::scope(|s| {
                    for part in pairs.chunks(chunk) {
                        let est = est.as_ref();
                        s.spawn(move || {
                            for slice in part.chunks(bench::REPLAY_BATCH) {
                                est.ingest_batch(slice);
                            }
                        });
                    }
                });
                best = best.min(start.elapsed().as_secs_f64());
            }
            out.push(ScalingRun {
                method,
                threads: t,
                seconds: best,
                edges_per_sec: pairs.len() as f64 / best,
            });
        }
    }
    out
}

/// Hand-rendered scaling JSON (same offline constraint as
/// [`render_json`]): per-(method, threads) rates plus the T-vs-1 speedup.
fn render_scaling_json(edges: usize, threads: usize, runs: &[ScalingRun]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!(
        "  \"experiment\": \"exp_ingest_scaling\",\n  \"edges\": {edges},\n  \"threads\": {threads},\n  \"shards\": 4,\n"
    ));
    s.push_str(&host_context_json());
    s.push_str("  \"results\": [\n");
    for (i, r) in runs.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"method\": \"{}\", \"threads\": {}, \"seconds\": {:.6}, \"edges_per_sec\": {:.1}}}{}\n",
            r.method,
            r.threads,
            r.seconds,
            r.edges_per_sec,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"scaling\": {");
    let mut first = true;
    for method in ["ShardedFreeBS", "ShardedFreeRS"] {
        let base = runs.iter().find(|r| r.method == method && r.threads == 1);
        let multi = runs
            .iter()
            .find(|r| r.method == method && r.threads == threads);
        if let (Some(b), Some(m)) = (base, multi) {
            if !first {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "\"{method}\": {:.3}",
                m.edges_per_sec / b.edges_per_sec
            ));
            first = false;
        }
    }
    s.push_str("}\n}\n");
    s
}

fn scalar_rate(runs: &[Run], method: &str) -> Option<f64> {
    runs.iter()
        .find(|r| r.method == method && r.mode == "scalar")
        .map(|r| r.edges_per_sec)
}

/// Hand-rendered JSON (the offline vendor set has no full serde_json): flat
/// schema, stable key order, one result object per (method, mode).
fn render_json(edges: usize, runs: &[Run]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!(
        "  \"experiment\": \"exp_ingest\",\n  \"edges\": {edges},\n"
    ));
    s.push_str(&host_context_json());
    s.push_str("  \"results\": [\n");
    for (i, r) in runs.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"method\": \"{}\", \"mode\": \"{}\", \"seconds\": {:.6}, \"edges_per_sec\": {:.1}}}{}\n",
            r.method,
            r.mode,
            r.seconds,
            r.edges_per_sec,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"speedup\": {");
    let mut first = true;
    for method in ["FreeBS", "FreeRS"] {
        let scalar = scalar_rate(runs, method);
        let batch = runs
            .iter()
            .find(|r| r.method == method && r.mode == "batch")
            .map(|r| r.edges_per_sec);
        if let (Some(s_rate), Some(b_rate)) = (scalar, batch) {
            if !first {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{method}\": {:.3}", b_rate / s_rate));
            first = false;
        }
    }
    s.push_str("}\n}\n");
    s
}
