//! Subcommand implementations, writing to any `io::Write` so tests can
//! capture output exactly.
//!
//! Every file-ingesting command streams its input through
//! [`open_source`] — chunk-at-a-time, bounded memory — so traces far
//! larger than RAM replay with resident edge buffers of O(`--chunk`) edges.

use crate::args::{Cli, Command, MethodChoice};
use crate::input::{hash_id, open_source, InputFormat, NotRegularFile};
use freesketch::ingest::skip_edges;
use freesketch::snapshot::{
    fallback_path, load_snapshot, load_with_fallback, AnySketch, Checkpointer, SnapshotImage,
};
use freesketch::{CardinalityEstimator, FreeBS, FreeRS, ShardedFreeBS, ShardedFreeRS};
use graphstream::{replace_file, Edge, EdgeSource, FedgeWriter, SnapshotError};
use std::io::Write;
use std::path::Path;

/// Runs a parsed CLI against an output sink.
///
/// # Errors
/// Returns a boxed error on I/O problems, malformed or corrupt input
/// files, or unknown profile names.
pub fn run(cli: &Cli, out: &mut dyn Write) -> Result<(), Box<dyn std::error::Error>> {
    match &cli.command {
        Command::Estimate { path, top } => {
            let mut runner = Runner::build(cli, out)?;
            let total = runner.ingest_source(cli, path)?;
            let est = &runner.sketch;
            writeln!(
                out,
                "{} edges processed with {} ({} bits); total cardinality ≈ {:.0}",
                total,
                est.name(),
                est.memory_bits(),
                est.total_estimate()
            )?;
            let users = rank_users(est, *top);
            writeln!(out, "top {} users by estimated cardinality:", users.len())?;
            for (u, e) in &users {
                writeln!(out, "  {u:016x}  {e:.1}")?;
            }
        }
        Command::Spreaders { path, delta } => {
            let mut runner = Runner::build(cli, out)?;
            runner.ingest_source(cli, path)?;
            let est = &runner.sketch;
            let report = freesketch::detect_spreaders(est, *delta);
            writeln!(
                out,
                "threshold = {:.1} (Δ = {delta} × n̂ = {:.0})",
                report.threshold, report.total_estimate
            )?;
            let mut ids: Vec<u64> = report.detected.iter().copied().collect();
            ids.sort_unstable();
            writeln!(out, "{} super spreaders detected:", ids.len())?;
            for u in ids {
                writeln!(out, "  {u:016x}  {:.1}", est.estimate(u))?;
            }
        }
        Command::Synth {
            profile,
            scale,
            out: out_path,
        } => {
            let p = graphstream::profiles::by_name(profile)
                .ok_or_else(|| format!("unknown profile `{profile}` (see Table I)"))?;
            let stream = p.scaled(scale.unwrap_or(p.default_scale)).generate();
            let emit = |sink: &mut dyn Write| -> std::io::Result<()> {
                writeln!(sink, "# synthetic {profile} stream, {} edges", stream.len())?;
                for e in stream.edges() {
                    writeln!(sink, "{} {}", e.user, e.item)?;
                }
                sink.flush()
            };
            if out_path == "-" {
                emit(out)?;
            } else {
                replace_file(Path::new(out_path), None, emit)?;
            }
        }
        Command::Convert {
            input,
            out: out_path,
        } => {
            let (mut src, format) = open_source(input)?;
            if format == InputFormat::Fedge {
                return Err(format!("`{input}` is already fedge — nothing to convert").into());
            }
            // A failed conversion must neither leave a valid-looking partial
            // .fedge behind (the format has no record count to catch it) nor
            // clobber a previous good output.
            let records = replace_file(
                Path::new(out_path),
                None,
                |w| -> Result<u64, Box<dyn std::error::Error>> {
                    let mut writer = FedgeWriter::new(w)?;
                    let mut buf: Vec<Edge> = Vec::with_capacity(cli.chunk);
                    while src.next_chunk(&mut buf, cli.chunk)? > 0 {
                        writer.write_edges(&buf)?;
                    }
                    Ok(writer.records_written())
                },
            )?;
            writeln!(
                out,
                "{records} edges → {out_path} (fedge, {} bytes)",
                graphstream::fedge::FEDGE_HEADER_LEN as u64
                    + records * graphstream::fedge::FEDGE_RECORD_LEN as u64
            )?;
        }
        Command::Track {
            path,
            user,
            checkpoints,
        } => {
            // Two passes over the input: a pipe would be empty for the second.
            if std::fs::metadata(path).is_ok_and(|m| !m.is_file()) {
                return Err(NotRegularFile { path: path.clone() }.into());
            }
            let (total, uid) = scan_total_and_user(cli, path, user)?;
            let mut runner = Runner::build(cli, out)?;
            let step = (total / (*checkpoints).max(1) as u64).max(1);
            writeln!(out, "{:>12}  {:>12}", "edges seen", "estimate")?;
            // Second pass: ingest one checkpoint interval at a time so each
            // printed row reflects exactly `step` more edges (final partial
            // interval included), regardless of chunk boundaries. Resuming
            // from a restored checkpoint continues the table past the edges
            // the sketch already holds (earlier rows belong to the
            // interrupted run).
            let mut src = open_at(cli, path, runner.base)?;
            let mut buf: Vec<Edge> = Vec::with_capacity(cli.chunk);
            let mut pairs: Vec<(u64, u64)> = Vec::new();
            let mut seen = runner.base;
            let mut next_cp = (seen / step + 1) * step;
            let mut printed_at = seen;
            loop {
                let n = src.next_chunk(&mut buf, cli.chunk)?;
                if n == 0 {
                    break;
                }
                let mut off = 0usize;
                while off < n {
                    let take = usize::try_from(next_cp - seen)
                        .unwrap_or(usize::MAX)
                        .min(n - off);
                    runner
                        .sketch
                        .apply_chunk(&buf[off..off + take], &mut pairs, cli.threads);
                    seen += take as u64;
                    off += take;
                    runner.maybe_checkpoint(seen)?;
                    if seen == next_cp {
                        writeln!(out, "{:>12}  {:>12.1}", seen, runner.sketch.estimate(uid))?;
                        printed_at = seen;
                        next_cp += step;
                    }
                }
            }
            if seen > printed_at {
                writeln!(out, "{:>12}  {:>12.1}", seen, runner.sketch.estimate(uid))?;
            }
            runner.final_checkpoint(seen)?;
        }
        Command::Checkpoint {
            input,
            out: snap_out,
        } => {
            let mut sketch = build_sketch(cli, false);
            let (mut src, _) = open_source(input)?;
            let mut ckpt = Checkpointer::new(Path::new(snap_out.as_str()), cli.checkpoint_every)
                .with_crash_after(crash_after_env());
            let total =
                sketch.ingest_stream(src.as_mut(), cli.chunk, cli.threads, Some(&mut ckpt), 0)?;
            writeln!(
                out,
                "{total} edges → `{snap_out}` ({} snapshot; total cardinality ≈ {:.0})",
                sketch.kind(),
                sketch.total_estimate()
            )?;
        }
        Command::Restore { snap, resume, top } => {
            let path = Path::new(snap.as_str());
            let Some((mut sketch, offset, used_fallback)) = load_with_fallback(path)? else {
                return Err(format!("no snapshot at `{snap}`").into());
            };
            if used_fallback {
                writeln!(
                    out,
                    "note: `{snap}` is corrupt — restored last good checkpoint `{}` \
                     ({offset} edges)",
                    fallback_path(path).display()
                )?;
            }
            let mut total = offset;
            if let Some(trace) = resume {
                let mut src = open_at(cli, trace, offset)?;
                total += sketch.ingest_stream(src.as_mut(), cli.chunk, cli.threads, None, 0)?;
            }
            writeln!(
                out,
                "{total} edges in {} snapshot ({} bits); total cardinality ≈ {:.0}",
                sketch.kind(),
                sketch.memory_bits(),
                sketch.total_estimate()
            )?;
            let users = rank_users(&sketch, *top);
            writeln!(out, "top {} users by estimated cardinality:", users.len())?;
            for (u, e) in &users {
                writeln!(out, "  {u:016x}  {e:.1}")?;
            }
        }
        Command::Merge {
            inputs,
            out: snap_out,
        } => {
            let mut merged: Option<(AnySketch, u64)> = None;
            for p in inputs {
                let file = std::fs::File::open(p).map_err(|e| format!("cannot open `{p}`: {e}"))?;
                let mut reader = std::io::BufReader::new(file);
                let (sketch, edges) =
                    load_snapshot(&mut reader).map_err(|e| format!("`{p}`: {e}"))?;
                merged = Some(match merged {
                    None => (sketch, edges),
                    Some((mut acc, total)) => {
                        acc.merge(&sketch).map_err(|e| format!("`{p}`: {e}"))?;
                        (acc, total + edges)
                    }
                });
            }
            let Some((sketch, total)) = merged else {
                return Err("merge needs at least two input snapshots".into());
            };
            SnapshotImage::capture(&sketch, total).write_file(Path::new(snap_out.as_str()))?;
            writeln!(
                out,
                "merged {} snapshots → `{snap_out}` ({total} edges, {}; \
                 total cardinality ≈ {:.0})",
                inputs.len(),
                sketch.kind(),
                sketch.total_estimate()
            )?;
        }
        Command::Serve { path, port } => {
            // Serve always runs a sharded kind — queries arrive while
            // writers ingest, so the `&self` concurrent path is mandatory
            // even at --threads 1 (one shard).
            let (sketch, base) = restore_or_build(cli, out, true)?;
            let src = open_at(cli, path, base)?;
            let config = crate::serve::ServeConfig {
                port: *port,
                writers: cli.threads,
                chunk: cli.chunk,
                base_edges: base,
                checkpoint: cli.checkpoint.as_ref().map(std::path::PathBuf::from),
                checkpoint_every: cli.checkpoint_every,
            };
            let handle = crate::serve::spawn(sketch, src, config)?;
            // The smoke harness greps this line for the bound port; flush
            // so a piped stdout delivers it before the daemon blocks.
            writeln!(out, "listening on {}", handle.addr())?;
            out.flush()?;
            let report = handle.join()?;
            writeln!(
                out,
                "drained: {} edges ingested, {} queries served{}",
                report.edges,
                report.queries,
                if report.checkpointed {
                    ", final checkpoint written"
                } else {
                    ""
                }
            )?;
            for e in &report.errors {
                writeln!(out, "error: {e}")?;
            }
            if report.writer_panicked {
                return Err("a writer thread panicked during ingest".into());
            }
        }
    }
    Ok(())
}

/// The `n` heaviest tracked users, heaviest first (`--top` and `TOPK`).
pub(crate) fn rank_users(est: &dyn CardinalityEstimator, n: usize) -> Vec<(u64, f64)> {
    let mut users: Vec<(u64, f64)> = Vec::new();
    est.for_each_estimate(&mut |u, e| users.push((u, e)));
    top_n(users, n)
}

/// The first `n` of `users` under a total order: estimate descending by
/// `total_cmp`, then user ascending — so ties never depend on map
/// iteration order, and a degenerate NaN estimate sorts ahead of every
/// finite one instead of panicking. Selects the `n` before sorting them,
/// so a small `n` costs one linear pass over all users.
pub(crate) fn top_n(mut users: Vec<(u64, f64)>, n: usize) -> Vec<(u64, f64)> {
    let order = |a: &(u64, f64), b: &(u64, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
    if n < users.len() {
        users.select_nth_unstable_by(n, order);
        users.truncate(n);
    }
    users.sort_unstable_by(order);
    users
}

/// First streaming pass for `track`: the stream length (for checkpoint
/// sizing) and the tracked user's resolved id. The user may be given as
/// the original string id (hashed), as a numeric id already present in the
/// file as text (synth output — hashed as its decimal string), or as a raw
/// post-hash id in a `fedge` file; whichever interpretation actually
/// occurs in the stream wins, string hash first.
fn scan_total_and_user(
    cli: &Cli,
    path: &str,
    user: &str,
) -> Result<(u64, u64), Box<dyn std::error::Error>> {
    let string_hash = hash_id(user);
    let numeric: Option<u64> = user.parse().ok();
    let (mut src, _) = open_source(path)?;
    let mut buf: Vec<Edge> = Vec::with_capacity(cli.chunk);
    let mut total = 0u64;
    let mut string_seen = false;
    let mut raw_seen = false;
    loop {
        let n = src.next_chunk(&mut buf, cli.chunk)?;
        if n == 0 {
            break;
        }
        total += n as u64;
        if !string_seen && buf.iter().any(|e| e.user == string_hash) {
            string_seen = true;
        }
        if let Some(raw) = numeric {
            if !raw_seen && buf.iter().any(|e| e.user == raw) {
                raw_seen = true;
            }
        }
    }
    let uid = match numeric {
        _ if string_seen => string_hash,
        Some(raw) if raw_seen => raw,
        Some(raw) => hash_id(&raw.to_string()),
        None => string_hash,
    };
    Ok((total, uid))
}

/// The sketch the CLI runs: FreeBS (`--memory` bits) or FreeRS
/// (`--memory / 5` five-bit registers), seeded by `--seed`. Scalar at
/// `--threads 1`; sharded above that, or whenever `sharded` is set (serve
/// ingests through the `&self` path even at one thread), with one shard
/// per thread rounded up to a power of two and at least 64 slots each.
fn build_sketch(cli: &Cli, sharded: bool) -> AnySketch {
    let slots = match cli.method {
        MethodChoice::FreeBS => cli.memory_bits,
        MethodChoice::FreeRS => cli.memory_bits / 5,
    };
    let shards = cli.threads.next_power_of_two();
    let m = slots.max(64 * shards);
    match (cli.method, sharded || cli.threads > 1) {
        (MethodChoice::FreeBS, false) => FreeBS::new(m, cli.seed).into(),
        (MethodChoice::FreeRS, false) => FreeRS::new(m, cli.seed).into(),
        (MethodChoice::FreeBS, true) => ShardedFreeBS::new(m, shards, cli.seed).into(),
        (MethodChoice::FreeRS, true) => ShardedFreeRS::new(m, shards, cli.seed).into(),
    }
}

/// The sketch an ingesting subcommand starts from, with the stream offset
/// it already covers: the newest good `--checkpoint` snapshot when one
/// exists (reporting the restore to `out`), a fresh [`build_sketch`]
/// otherwise.
///
/// # Errors
/// A snapshot that fails to load, or — when `sharded` is set, for serve —
/// one holding a scalar kind.
fn restore_or_build(
    cli: &Cli,
    out: &mut dyn Write,
    sharded: bool,
) -> Result<(AnySketch, u64), Box<dyn std::error::Error>> {
    let Some(snap) = &cli.checkpoint else {
        return Ok((build_sketch(cli, sharded), 0));
    };
    let path = Path::new(snap.as_str());
    let Some((sketch, offset, used_fallback)) = load_with_fallback(path)? else {
        return Ok((build_sketch(cli, sharded), 0));
    };
    if sharded && sketch.as_concurrent().is_none() {
        return Err(format!(
            "checkpoint `{snap}` holds a `{}` sketch — serve needs a \
             sharded kind (re-checkpoint with --threads > 1)",
            sketch.kind()
        )
        .into());
    }
    if used_fallback {
        writeln!(
            out,
            "note: `{snap}` is corrupt — restored last good checkpoint `{}` \
             ({offset} edges)",
            fallback_path(path).display()
        )?;
    } else {
        writeln!(
            out,
            "restored checkpoint `{snap}` ({offset} edges, {})",
            sketch.kind()
        )?;
    }
    Ok((sketch, offset))
}

/// Opens the trace at `path` and fast-forwards it past the `base` edges a
/// restored snapshot already covers.
///
/// # Errors
/// The trace cannot be read, or holds fewer than `base` edges.
fn open_at(
    cli: &Cli,
    path: &str,
    base: u64,
) -> Result<Box<dyn EdgeSource + Send>, Box<dyn std::error::Error>> {
    let (mut src, _) = open_source(path)?;
    if base == 0 {
        return Ok(src);
    }
    let skipped = skip_edges(src.as_mut(), base, cli.chunk)?;
    if skipped < base {
        return Err(format!(
            "`{path}` holds {skipped} edges but the snapshot records {base} \
             — wrong trace for this snapshot?"
        )
        .into());
    }
    Ok(src)
}

/// An ingesting subcommand's state (`estimate`, `spreaders`, `track`):
/// the sketch, restored or fresh; the `--checkpoint` writer, if any; and
/// the stream offset the restored sketch has already seen (0 on a cold
/// start).
struct Runner {
    sketch: AnySketch,
    ckpt: Option<Checkpointer>,
    base: u64,
}

impl Runner {
    /// Builds the runner; with `--checkpoint` this restores the newest
    /// good snapshot if one exists (printing what happened to `out`) and
    /// arms the incremental checkpointer.
    fn build(cli: &Cli, out: &mut dyn Write) -> Result<Self, Box<dyn std::error::Error>> {
        let (sketch, base) = restore_or_build(cli, out, false)?;
        let ckpt = cli.checkpoint.as_ref().map(|snap| {
            Checkpointer::new(Path::new(snap.as_str()), cli.checkpoint_every)
                .starting_from(base)
                .with_crash_after(crash_after_env())
        });
        Ok(Self { sketch, ckpt, base })
    }

    /// Streams a whole file into the sketch, checkpointing as it goes;
    /// returns edges processed — including the edges a restored snapshot
    /// already covered (those are skipped, not re-ingested). Peak
    /// resident edge memory is O(`--chunk`).
    fn ingest_source(&mut self, cli: &Cli, path: &str) -> Result<u64, Box<dyn std::error::Error>> {
        let mut src = open_at(cli, path, self.base)?;
        let ingested = self.sketch.ingest_stream(
            src.as_mut(),
            cli.chunk,
            cli.threads,
            self.ckpt.as_mut(),
            self.base,
        )?;
        Ok(self.base + ingested)
    }

    /// Writes an incremental checkpoint if the interval has elapsed.
    /// No-op without `--checkpoint`; callers invoke it only at quiescent
    /// points (after an ingest call returns).
    fn maybe_checkpoint(&mut self, edges: u64) -> Result<(), SnapshotError> {
        if let Some(ckpt) = &mut self.ckpt {
            ckpt.maybe_checkpoint(&self.sketch, edges)?;
        }
        Ok(())
    }

    /// Final checkpoint at stream end (no-op without `--checkpoint`), so a
    /// completed run records the full stream offset.
    fn final_checkpoint(&mut self, edges: u64) -> Result<(), SnapshotError> {
        if let Some(ckpt) = &mut self.ckpt {
            ckpt.checkpoint_now(&self.sketch, edges)?;
        }
        Ok(())
    }
}

/// Fault-injection knob for the crash/restore smoke test, read by every
/// checkpointing path (the ingesting commands and the serve daemon): when
/// `FREESKETCH_CRASH_AFTER_CHECKPOINTS=n` is set, the n-th checkpoint
/// write (0-based) of this process fails as an abrupt kill would.
/// Unset or unparsable values disarm it.
pub(crate) fn crash_after_env() -> Option<u64> {
    std::env::var("FREESKETCH_CRASH_AFTER_CHECKPOINTS")
        .ok()
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Cli;

    /// Writes `content` to a temp file of its own: tests run in parallel,
    /// and each removes its files when done.
    fn write_temp(content: &str) -> std::path::PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        // ORDERING: relaxed-ok — only the uniqueness of each returned
        // number matters, and fetch_add gives that at any ordering.
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut path = std::env::temp_dir();
        path.push(format!(
            "freesketch-cli-test-{}-{n}.tsv",
            std::process::id()
        ));
        std::fs::write(&path, content).expect("write temp file");
        path
    }

    fn run_to_string(args: &[&str]) -> String {
        let cli = Cli::parse(args).expect("parse");
        let mut buf = Vec::new();
        run(&cli, &mut buf).expect("run");
        String::from_utf8(buf).expect("utf8")
    }

    #[test]
    fn estimate_end_to_end() {
        let mut content = String::new();
        for d in 0..200 {
            content.push_str(&format!("alice item{d}\n"));
        }
        for d in 0..20 {
            content.push_str(&format!("bob item{d}\n"));
        }
        let path = write_temp(&content);
        let out = run_to_string(&["estimate", path.to_str().expect("utf8 path"), "--top", "2"]);
        assert!(out.contains("220 edges processed"));
        assert!(out.contains("FreeBS"));
        // alice (200 items) must rank first.
        let alice = format!("{:016x}", hash_id("alice"));
        let bob = format!("{:016x}", hash_id("bob"));
        let alice_pos = out.find(&alice).expect("alice listed");
        let bob_pos = out.find(&bob).expect("bob listed");
        assert!(alice_pos < bob_pos, "alice should rank above bob:\n{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn spreaders_end_to_end() {
        let mut content = String::new();
        for d in 0..500 {
            content.push_str(&format!("heavy item{d}\n"));
        }
        for u in 0..50 {
            content.push_str(&format!("light{u} item0\nlight{u} item1\n"));
        }
        let path = write_temp(&content);
        let out = run_to_string(&[
            "spreaders",
            path.to_str().expect("utf8 path"),
            "--delta",
            "0.2",
            "--method",
            "freers",
        ]);
        assert!(out.contains("1 super spreaders detected"), "{out}");
        assert!(out.contains(&format!("{:016x}", hash_id("heavy"))));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn synth_then_estimate_round_trip() {
        let mut synth_out = Vec::new();
        let cli = Cli::parse(&["synth", "livejournal", "--scale", "40000"]).expect("parse");
        run(&cli, &mut synth_out).expect("synth");
        let text = String::from_utf8(synth_out).expect("utf8");
        assert!(text.lines().count() > 100, "synth produced too few lines");

        let path = write_temp(&text);
        let out = run_to_string(&["estimate", path.to_str().expect("utf8 path")]);
        assert!(out.contains("edges processed"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn track_prints_monotone_estimates() {
        let mut content = String::new();
        for d in 0..300 {
            content.push_str(&format!("probe item{d}\n"));
        }
        let path = write_temp(&content);
        let out = run_to_string(&[
            "track",
            path.to_str().expect("utf8 path"),
            "--user",
            "probe",
            "--checkpoints",
            "5",
        ]);
        let values: Vec<f64> = out
            .lines()
            .skip(1)
            .filter_map(|l| l.split_whitespace().nth(1)?.parse().ok())
            .collect();
        assert!(values.len() >= 5, "{out}");
        assert!(
            values.windows(2).all(|w| w[1] >= w[0]),
            "not monotone: {values:?}"
        );
        assert!((values.last().expect("non-empty") / 300.0 - 1.0).abs() < 0.1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn track_chunk_boundaries_do_not_change_rows() {
        // Checkpoint rows are a function of the stream, not of how it is
        // chunked off disk: a chunk smaller than (and misaligned with) the
        // checkpoint step must produce the identical table.
        let mut content = String::new();
        for d in 0..300 {
            content.push_str(&format!("probe item{d}\n"));
        }
        let path = write_temp(&content);
        let p = path.to_str().expect("utf8 path");
        let whole = run_to_string(&["track", p, "--user", "probe", "--checkpoints", "5"]);
        let chunked = run_to_string(&[
            "track",
            p,
            "--user",
            "probe",
            "--checkpoints",
            "5",
            "--chunk",
            "17",
        ]);
        assert_eq!(whole, chunked);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn chunking_never_changes_the_report() {
        // Every growth is credited at its own q, so reader chunks (and the
        // batch blocks inside them) cut the stream without moving any
        // estimate, even in a small array where q falls fast.
        let mut content = String::new();
        for u in 0..10 {
            for d in 0..(u + 1) * 20 {
                content.push_str(&format!("user{u} item{u}x{d}\n"));
            }
        }
        let path = write_temp(&content);
        let p = path.to_str().expect("utf8 path");
        for method in ["freebs", "freers"] {
            let flags = ["--top", "5", "--memory", "2048", "--method", method];
            let whole = run_to_string(&[&["estimate", p][..], &flags].concat());
            let chunked = run_to_string(&[&["estimate", p, "--chunk", "7"][..], &flags].concat());
            assert_eq!(whole, chunked, "{method}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn threaded_estimate_end_to_end() {
        // Sharded parallel ingest produces the same report shape and a
        // consistent ranking; estimates are within estimator noise.
        let mut content = String::new();
        for d in 0..400 {
            content.push_str(&format!("big item{d}\n"));
        }
        for d in 0..40 {
            content.push_str(&format!("small item{d}\n"));
        }
        let path = write_temp(&content);
        let p = path.to_str().expect("utf8 path");
        let out = run_to_string(&["estimate", p, "--threads", "2", "--top", "2"]);
        assert!(out.contains("440 edges processed"), "{out}");
        assert!(out.contains("ShardedFreeBS"), "{out}");
        let big = format!("{:016x}", hash_id("big"));
        let small = format!("{:016x}", hash_id("small"));
        let big_pos = out.find(&big).expect("big listed");
        let small_pos = out.find(&small).expect("small listed");
        assert!(big_pos < small_pos, "big should rank above small:\n{out}");
        // The FreeRS path works too.
        let out = run_to_string(&["estimate", p, "--threads", "2", "--method", "freers"]);
        assert!(out.contains("ShardedFreeRS"), "{out}");
        // --threads is a common flag: spreaders and track honour it too.
        let out = run_to_string(&["spreaders", p, "--delta", "0.2", "--threads", "2"]);
        assert!(out.contains("1 super spreaders detected"), "{out}");
        assert!(out.contains(&big), "{out}");
        let out = run_to_string(&[
            "track",
            p,
            "--user",
            "big",
            "--checkpoints",
            "4",
            "--threads",
            "2",
        ]);
        let values: Vec<f64> = out
            .lines()
            .skip(1)
            .filter_map(|l| l.split_whitespace().nth(1)?.parse().ok())
            .collect();
        assert!(values.len() >= 4, "{out}");
        assert!(
            values.windows(2).all(|w| w[1] >= w[0]),
            "not monotone: {values:?}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn convert_then_estimate_is_bit_identical() {
        // The acceptance bar of the streaming-ingestion issue: a fedge
        // re-encode of a TSV trace replays to the exact same report under
        // the same flags — including with a chunk small enough that both
        // files stream in many chunks.
        let mut content = String::new();
        for u in 0..10 {
            for d in 0..(u + 1) * 15 {
                content.push_str(&format!("user{u} item{u}x{d}\n"));
            }
        }
        let tsv = write_temp(&content);
        let p = tsv.to_str().expect("utf8 path");
        let fedge = format!("{p}.fedge");
        let conv = run_to_string(&["convert", p, &fedge]);
        assert!(conv.contains("825 edges →"), "{conv}");

        for extra in [&["--chunk", "100"][..], &[]] {
            let mut args_tsv = vec!["estimate", p, "--top", "5"];
            args_tsv.extend_from_slice(extra);
            let mut args_fedge = vec!["estimate", fedge.as_str(), "--top", "5"];
            args_fedge.extend_from_slice(extra);
            assert_eq!(
                run_to_string(&args_tsv),
                run_to_string(&args_fedge),
                "flags {extra:?}"
            );
        }

        // track works on the binary file too (string user resolved by hash).
        let t = run_to_string(&["track", &fedge, "--user", "user9", "--checkpoints", "3"]);
        assert!(t.lines().count() >= 3, "{t}");

        std::fs::remove_file(tsv).ok();
        std::fs::remove_file(fedge).ok();
    }

    #[test]
    fn failed_convert_is_atomic() {
        // A conversion that errors mid-stream must neither leave a
        // valid-looking partial .fedge behind nor clobber a previous good
        // output — the format has no record count, so a partial file would
        // replay silently short.
        let good = write_temp("a b\nc d\n");
        let bad = write_temp("a b\nc d\nbroken\ne f\n");
        let out_path = format!("{}.out.fedge", good.to_str().expect("utf8 path"));
        let part_path = format!("{out_path}.part");

        run_to_string(&["convert", good.to_str().expect("utf8 path"), &out_path]);
        let before = std::fs::read(&out_path).expect("good output exists");

        let cli =
            Cli::parse(&["convert", bad.to_str().expect("utf8 path"), &out_path]).expect("parse");
        let mut buf = Vec::new();
        let err = run(&cli, &mut buf).unwrap_err();
        assert!(err.to_string().contains("broken"), "{err}");
        assert_eq!(
            std::fs::read(&out_path).expect("still there"),
            before,
            "previous good output clobbered"
        );
        assert!(
            !std::path::Path::new(&part_path).exists(),
            "temp file left behind"
        );

        std::fs::remove_file(good).ok();
        std::fs::remove_file(bad).ok();
        std::fs::remove_file(out_path).ok();
    }

    #[test]
    fn checkpoint_then_restore_reports_identical_users() {
        let mut content = String::new();
        for u in 0..6 {
            for d in 0..(u + 1) * 30 {
                content.push_str(&format!("user{u} item{u}x{d}\n"));
            }
        }
        let path = write_temp(&content);
        let p = path.to_str().expect("utf8 path");
        let snap = format!("{p}.fsnp");

        let est_out = run_to_string(&["estimate", p, "--top", "6"]);
        let ck_out = run_to_string(&["checkpoint", p, &snap]);
        assert!(ck_out.contains("630 edges →"), "{ck_out}");
        let rs_out = run_to_string(&["restore", &snap, "--top", "6"]);
        assert!(rs_out.contains("630 edges in freebs snapshot"), "{rs_out}");

        // The per-user report lines (two-space indented) are bit-identical:
        // checkpointed ingest applies the same chunks through the same
        // pipeline as `estimate`, and the snapshot round trip is exact.
        let users = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| l.starts_with("  "))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(users(&est_out), users(&rs_out), "{est_out}\nvs\n{rs_out}");

        // A sharded checkpoint round-trips through the CLI too.
        let sharded_snap = format!("{p}.sharded.fsnp");
        run_to_string(&["checkpoint", p, &sharded_snap, "--threads", "2"]);
        let rs = run_to_string(&["restore", &sharded_snap]);
        assert!(rs.contains("sharded-freebs snapshot"), "{rs}");

        std::fs::remove_file(path).ok();
        std::fs::remove_file(snap).ok();
        std::fs::remove_file(sharded_snap).ok();
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_and_resumes_identically() {
        // The full crash loop: an estimate run that checkpoints as it
        // goes, whose newest snapshot is then corrupted — the rerun must
        // fall back to the previous good checkpoint, resume the trace at
        // its offset, and land on the exact report of an uninterrupted
        // run.
        let mut content = String::new();
        for i in 0..1000u64 {
            content.push_str(&format!("user{} item{i}\n", i % 5));
        }
        let path = write_temp(&content);
        let p = path.to_str().expect("utf8 path");
        let snap = format!("{p}.ck.fsnp");
        let flags = ["--chunk", "64", "--checkpoint-every", "100"];

        let mut fresh_args = vec!["estimate", p, "--chunk", "64"];
        fresh_args.push("--top");
        fresh_args.push("5");
        let fresh = run_to_string(&fresh_args);

        let mut first_args = vec!["estimate", p, "--checkpoint", &snap, "--top", "5"];
        first_args.extend_from_slice(&flags);
        let first = run_to_string(&first_args);
        assert!(first.contains("1000 edges processed"), "{first}");
        let prev = format!("{snap}.prev");
        assert!(std::path::Path::new(&prev).exists(), "rotation kept .prev");

        // Corrupt the newest snapshot (truncate mid-section).
        let bytes = std::fs::read(&snap).expect("snapshot exists");
        std::fs::write(&snap, &bytes[..bytes.len() - 5]).expect("truncate");

        let resumed = run_to_string(&first_args);
        assert!(
            resumed.contains("is corrupt — restored last good checkpoint"),
            "{resumed}"
        );
        // Everything after the fallback note equals the uninterrupted run.
        let body: Vec<&str> = resumed.lines().skip(1).collect();
        assert_eq!(
            body,
            fresh.lines().collect::<Vec<_>>(),
            "{resumed}\nvs\n{fresh}"
        );

        std::fs::remove_file(path).ok();
        std::fs::remove_file(snap).ok();
        std::fs::remove_file(prev).ok();
    }

    #[test]
    fn merge_unions_disjoint_snapshots() {
        let mut left = String::new();
        for d in 0..200 {
            left.push_str(&format!("alpha item{d}\n"));
        }
        let mut right = String::new();
        for d in 0..100 {
            right.push_str(&format!("beta other{d}\n"));
        }
        let lp = write_temp(&left);
        let rp = write_temp(&right);
        let (l, r) = (
            lp.to_str().expect("utf8 path").to_string(),
            rp.to_str().expect("utf8 path").to_string(),
        );
        let (ls, rs, ms) = (
            format!("{l}.fsnp"),
            format!("{r}.fsnp"),
            format!("{l}.merged.fsnp"),
        );
        run_to_string(&["checkpoint", &l, &ls]);
        run_to_string(&["checkpoint", &r, &rs]);
        let m = run_to_string(&["merge", &ls, &rs, &ms]);
        assert!(m.contains("merged 2 snapshots"), "{m}");
        assert!(m.contains("300 edges"), "{m}");
        let report = run_to_string(&["restore", &ms]);
        assert!(
            report.contains(&format!("{:016x}", hash_id("alpha"))),
            "{report}"
        );
        assert!(
            report.contains(&format!("{:016x}", hash_id("beta"))),
            "{report}"
        );

        // Mismatched configs must be a typed config error, not a panic.
        let odd = format!("{r}.odd.fsnp");
        run_to_string(&["checkpoint", &r, &odd, "--seed", "7"]);
        let cli = Cli::parse(&["merge", &ls, &odd, &ms]).expect("parse");
        let mut buf = Vec::new();
        let err = run(&cli, &mut buf).unwrap_err();
        assert!(err.to_string().contains("mismatch"), "{err}");

        for f in [l, r, ls, rs, ms, odd] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn restore_of_missing_snapshot_is_a_clean_error() {
        let cli = Cli::parse(&["restore", "/definitely/not/here.fsnp"]).expect("parse");
        let mut buf = Vec::new();
        let err = run(&cli, &mut buf).unwrap_err();
        assert!(err.to_string().contains("no snapshot at"), "{err}");
    }

    #[test]
    fn track_with_checkpoint_restores_on_rerun() {
        let mut content = String::new();
        for d in 0..300 {
            content.push_str(&format!("probe item{d}\n"));
        }
        let path = write_temp(&content);
        let p = path.to_str().expect("utf8 path");
        let snap = format!("{p}.track.fsnp");
        let args = [
            "track",
            p,
            "--user",
            "probe",
            "--checkpoints",
            "5",
            "--checkpoint",
            &snap,
        ];
        let first = run_to_string(&args);
        assert!(first.lines().count() >= 6, "{first}");
        // Rerun: the whole trace is already checkpointed — the run
        // restores, skips everything, and prints no new rows.
        let second = run_to_string(&args);
        assert!(second.contains("restored checkpoint"), "{second}");
        assert!(second.contains("300 edges"), "{second}");
        std::fs::remove_file(path).ok();
        std::fs::remove_file(format!("{snap}.prev")).ok();
        std::fs::remove_file(snap).ok();
    }

    #[test]
    fn failed_convert_publish_cleans_up_temp_file() {
        // Rename-failure leg of convert's atomicity: encoding succeeds but
        // the destination cannot be replaced (it is a directory) — the
        // error must surface and the .part staging file must be removed.
        let tsv = write_temp("a b\nc d\n");
        let p = tsv.to_str().expect("utf8 path");
        let out_dir = format!("{p}.outdir");
        std::fs::create_dir_all(&out_dir).expect("mkdir");
        let part = format!("{out_dir}.part");

        let cli = Cli::parse(&["convert", p, &out_dir]).expect("parse");
        let mut buf = Vec::new();
        let err = run(&cli, &mut buf).unwrap_err();
        assert!(err.to_string().contains("cannot move"), "{err}");
        assert!(
            !std::path::Path::new(&part).exists(),
            "stale .part left behind after failed publish"
        );

        std::fs::remove_file(tsv).ok();
        std::fs::remove_dir_all(out_dir).ok();
    }

    #[test]
    fn tsv_starting_with_magic_letters_stays_tsv() {
        // Regression: detection must not misread a text trace whose first
        // user id begins with "FEDG".
        let path = write_temp("FEDGE-host1 item1\nFEDGE-host1 item2\nFEDGE-host2 item1\n");
        let out = run_to_string(&["estimate", path.to_str().expect("utf8 path"), "--top", "2"]);
        assert!(out.contains("3 edges processed"), "{out}");
        assert!(
            out.contains(&format!("{:016x}", hash_id("FEDGE-host1"))),
            "{out}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn track_rejects_an_input_it_cannot_read_twice() {
        let cli = Cli::parse(&["track", "/dev/null", "--user", "u"]).expect("parse");
        let mut buf = Vec::new();
        let err = run(&cli, &mut buf).unwrap_err();
        assert_eq!(
            err.downcast_ref::<NotRegularFile>(),
            Some(&NotRegularFile {
                path: "/dev/null".into()
            }),
            "{err}"
        );
        assert!(buf.is_empty(), "no table for an unreadable input");
    }

    #[test]
    fn convert_rejects_fedge_input() {
        let tsv = write_temp("a b\nc d\n");
        let p = tsv.to_str().expect("utf8 path");
        let fedge = format!("{p}.fedge");
        run_to_string(&["convert", p, &fedge]);
        let cli = Cli::parse(&["convert", fedge.as_str(), "twice.fedge"]).expect("parse");
        let mut buf = Vec::new();
        let err = run(&cli, &mut buf).unwrap_err();
        assert!(err.to_string().contains("already fedge"), "{err}");
        std::fs::remove_file(tsv).ok();
        std::fs::remove_file(fedge).ok();
    }

    #[test]
    fn estimate_on_corrupt_fedge_is_a_typed_error() {
        let tsv = write_temp("a b\nc d\ne f\n");
        let p = tsv.to_str().expect("utf8 path");
        let fedge = format!("{p}.fedge");
        run_to_string(&["convert", p, &fedge]);
        // Chop the last record in half.
        let bytes = std::fs::read(&fedge).expect("read");
        std::fs::write(&fedge, &bytes[..bytes.len() - 7]).expect("rewrite");
        // One chunk holds the truncated record; at `--chunk 1` the stage
        // thread meets it, after the caller applied the records before it.
        for chunk in ["65536", "1"] {
            let cli = Cli::parse(&["estimate", fedge.as_str(), "--chunk", chunk]).expect("parse");
            let mut buf = Vec::new();
            let err = run(&cli, &mut buf).unwrap_err();
            assert!(
                err.to_string().contains("truncated fedge record"),
                "--chunk {chunk}: {err}"
            );
        }
        std::fs::remove_file(tsv).ok();
        std::fs::remove_file(fedge).ok();
    }

    #[test]
    fn nan_estimates_rank_without_panicking() {
        // Regression: the top-k sort used partial_cmp().expect("finite
        // estimates") and panicked on NaN from a degenerate estimator
        // state. total_cmp orders NaN deterministically ahead of finite
        // values instead.
        struct Degenerate;
        impl CardinalityEstimator for Degenerate {
            fn process(&mut self, _user: u64, _item: u64) {}
            fn estimate(&self, _user: u64) -> f64 {
                f64::NAN
            }
            fn total_estimate(&self) -> f64 {
                f64::NAN
            }
            fn memory_bits(&self) -> usize {
                0
            }
            fn for_each_estimate(&self, f: &mut dyn FnMut(u64, f64)) {
                f(1, 2.0);
                f(2, f64::NAN);
                f(3, 1.0);
                f(4, f64::INFINITY);
            }
            fn name(&self) -> &'static str {
                "Degenerate"
            }
        }
        let ranked = rank_users(&Degenerate, 10);
        assert_eq!(ranked.len(), 4);
        assert!(
            ranked[0].1.is_nan(),
            "NaN first under total_cmp: {ranked:?}"
        );
        assert_eq!(ranked[1], (4, f64::INFINITY));
        assert_eq!(ranked[2], (1, 2.0));
        assert_eq!(ranked[3], (3, 1.0));
    }

    #[test]
    fn top_n_matches_full_sort_then_truncate() {
        // Few distinct estimates (many ties), some NaN and infinities, and
        // every n from 0 past the input length.
        let order = |a: &(u64, f64), b: &(u64, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
        let mut state = 7u64;
        for round in 0..40 {
            let len = round * 3;
            let users: Vec<(u64, f64)> = (0..len)
                .map(|_| {
                    state = hashkit::splitmix64(state);
                    let est = match state % 11 {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        2 => -f64::NAN,
                        k => (k % 4) as f64,
                    };
                    (state >> 54, est)
                })
                .collect();
            let mut full = users.clone();
            full.sort_by(order);
            for n in 0..=len + 2 {
                let got = top_n(users.clone(), n);
                let want = &full[..n.min(len)];
                assert_eq!(got.len(), want.len(), "len {len}, n {n}");
                for (g, w) in got.iter().zip(want) {
                    assert_eq!(g.0, w.0, "len {len}, n {n}");
                    assert_eq!(g.1.to_bits(), w.1.to_bits(), "len {len}, n {n}");
                }
            }
        }
    }

    #[test]
    fn unknown_profile_errors() {
        let cli = Cli::parse(&["synth", "nope"]).expect("parse");
        let mut buf = Vec::new();
        let err = run(&cli, &mut buf).unwrap_err();
        assert!(err.to_string().contains("unknown profile"));
    }

    #[test]
    fn missing_file_errors() {
        let cli = Cli::parse(&["estimate", "/definitely/not/here.tsv"]).expect("parse");
        let mut buf = Vec::new();
        let err = run(&cli, &mut buf).unwrap_err();
        assert!(err.to_string().contains("cannot open"));
    }
}
