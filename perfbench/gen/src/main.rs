//! `perfbench-gen` — writes one seeded benchmark trace and its exact ground
//! truth.
//!
//! ```text
//! perfbench-gen --profile orkut --scale 15 --seed 1 --out DIR
//! ```
//!
//! `DIR` receives four files, written under `DIR.part` and renamed into
//! place only when complete, so an interrupted run never leaves a trace that
//! looks finished:
//!
//! * `trace.fedge` — the edge stream in the binary `fedge` format;
//! * `empty.fedge` — a valid `fedge` file with no edges;
//! * `truth.bin`   — `(user, exact cardinality)` as little-endian `u64`
//!   pairs, sorted by user (built with `graphstream::GroundTruth`);
//! * `meta.json`   — edge, user and distinct-edge counts plus the profile's
//!   scaled memory budget `M`.
//!
//! The stream comes from `graphstream::synth` with a Table I profile; the
//! benchmark seed is mixed into the profile's generator seed, and user ids
//! are scrambled into the full 64-bit space the way hashed trace ids are.

#![forbid(unsafe_code)]

use graphstream::{profiles, Edge, FedgeWriter, GroundTruth};
use hashkit::mix64;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Salt for the user-id scramble; any constant works, it only has to be
/// fixed so a seed always produces the same file.
const USER_SALT: u64 = 0xBE4C_0001;

struct Args {
    profile: String,
    scale: u64,
    seed: u64,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut profile = None;
    let mut scale = None;
    let mut seed = None;
    let mut out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--profile" => profile = Some(value.clone()),
            "--scale" => scale = Some(value.parse().map_err(|_| "bad --scale")?),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        profile: profile.ok_or("missing --profile")?,
        scale: scale.ok_or("missing --scale")?,
        seed: seed.ok_or("missing --seed")?,
        out: out.ok_or("missing --out")?,
    })
}

fn write_files(dir: &Path, args: &Args) -> Result<String, Box<dyn std::error::Error>> {
    let profile = profiles::by_name(&args.profile)
        .ok_or_else(|| format!("unknown profile `{}`", args.profile))?;
    let mut config = profile.scaled(args.scale);
    config.seed = mix64(config.seed, args.seed);
    let stream = config.generate();

    let mut truth = GroundTruth::new();
    let file = std::fs::File::create(dir.join("trace.fedge"))?;
    let mut writer = FedgeWriter::new(BufWriter::new(file))?;
    let mut chunk: Vec<Edge> = Vec::with_capacity(1 << 16);
    for part in stream.edges().chunks(1 << 16) {
        chunk.clear();
        chunk.extend(
            part.iter()
                .map(|e| Edge::new(mix64(USER_SALT, e.user), e.item)),
        );
        for &e in &chunk {
            truth.observe(e);
        }
        writer.write_edges(&chunk)?;
    }
    // Synced, so the write-back of a fresh trace never overlaps a timed run.
    let mut file = writer.finish()?.into_inner().map_err(|e| e.into_error())?;
    file.flush()?;
    file.sync_all()?;

    // A trace with no edges, for timing the program's set-up alone.
    let empty = std::fs::File::create(dir.join("empty.fedge"))?;
    FedgeWriter::new(BufWriter::new(empty))?.finish()?.flush()?;

    let mut cards: Vec<(u64, u64)> = truth.iter().collect();
    cards.sort_unstable();
    let mut out = BufWriter::new(std::fs::File::create(dir.join("truth.bin"))?);
    for (user, card) in &cards {
        out.write_all(&user.to_le_bytes())?;
        out.write_all(&card.to_le_bytes())?;
    }
    out.into_inner().map_err(|e| e.into_error())?.sync_all()?;

    Ok(format!(
        "{{\"profile\": \"{}\", \"scale\": {}, \"seed\": {}, \"edges\": {}, \"users\": {}, \
         \"distinct\": {}, \"max_cardinality\": {}, \"memory_bits\": {}}}\n",
        profile.name,
        args.scale,
        args.seed,
        stream.len(),
        truth.user_count(),
        truth.total_cardinality(),
        truth.max_cardinality(),
        profile.scaled_memory_bits(args.scale)
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-gen: {e}");
            std::process::exit(2);
        }
    };
    let mut part = args.out.clone().into_os_string();
    part.push(".part");
    let part = PathBuf::from(part);
    let result = (|| -> Result<(), Box<dyn std::error::Error>> {
        if part.exists() {
            std::fs::remove_dir_all(&part)?;
        }
        std::fs::create_dir_all(&part)?;
        let meta = write_files(&part, &args)?;
        std::fs::write(part.join("meta.json"), meta)?;
        std::fs::rename(&part, &args.out)?;
        Ok(())
    })();
    if let Err(e) = result {
        let _ = std::fs::remove_dir_all(&part);
        eprintln!("perfbench-gen: {e}");
        std::process::exit(1);
    }
}
