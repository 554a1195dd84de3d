//! Hand-rolled argument parsing (no CLI crates in the offline set).

use freesketch::ingest::DEFAULT_CHUNK;

/// Largest accepted `--chunk`: 16M edges. One-thread ingest keeps about
/// 64–68 B per chunk edge resident (two prepared chunks plus the stage
/// thread's decode buffer), so this allows about 1.1 GB — far above any
/// useful streaming buffer, far below allocation-panic territory.
pub const MAX_CHUNK: usize = 1 << 24;

/// Largest accepted `--threads`. Each thread becomes a shard (rounded up to
/// a power of two) carrying its own 64-way counter map, and ingest and
/// `serve` spawn up to that many threads, so time and memory grow linearly
/// with the value whatever the trace: far above any core count, a huge
/// value must be a CLI error, not minutes of set-up.
pub const MAX_THREADS: usize = 1024;

/// Largest accepted `--memory`: 2^32 bits (512 MiB of shared array), more
/// than 8× the paper's 5·10⁸-bit budget. The array is allocated up front,
/// so a larger value must be a CLI error, not an allocation abort.
pub const MAX_MEMORY_BITS: usize = 1 << 32;

/// Which estimator to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Parameter-free bit sharing (default).
    FreeBS,
    /// Parameter-free register sharing.
    FreeRS,
}

impl Method {
    fn parse(s: &str) -> Result<Self, ParseError> {
        match s.to_ascii_lowercase().as_str() {
            "freebs" => Ok(Self::FreeBS),
            "freers" => Ok(Self::FreeRS),
            other => Err(ParseError::BadValue {
                flag: "--method",
                value: other.to_string(),
                expected: "freebs|freers",
            }),
        }
    }
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The subcommand to run.
    pub command: Command,
    /// Estimator choice.
    pub method: Method,
    /// Shared-array memory budget in bits.
    pub memory_bits: usize,
    /// Hash seed (replayable runs).
    pub seed: u64,
    /// Parallel ingest threads: threads that apply edges to the sketch.
    /// `1` (default) runs the exclusive scalar estimators, plus one stage
    /// thread that reads and hashes the next chunk while the current one
    /// is applied; `> 1` switches to the sharded concurrent estimators
    /// with that many ingest threads per chunk of the stream.
    pub threads: usize,
    /// Streaming read chunk: edges pulled from the input file per reader
    /// call. Bounds the resident edge buffers: about 64–68 B per chunk
    /// edge at `--threads 1` (two prepared chunks plus the stage thread's
    /// decode buffer), 32 B above that (one chunk and its pairs).
    pub chunk: usize,
    /// Checkpoint snapshot path for the ingesting subcommands
    /// (`--checkpoint`): restore from it when present — falling back to
    /// `<path>.prev` when the newest snapshot is corrupt — and write a new
    /// snapshot every [`checkpoint_every`](Self::checkpoint_every) edges.
    pub checkpoint: Option<String>,
    /// Edges between incremental checkpoints (`--checkpoint-every`).
    pub checkpoint_every: u64,
}

/// The CLI subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `estimate <file> [--top N]` — per-user cardinalities from an edge file.
    Estimate {
        /// Path to the edge file.
        path: String,
        /// How many of the heaviest users to print.
        top: usize,
    },
    /// `spreaders <file> --delta D` — super-spreader detection.
    Spreaders {
        /// Path to the edge file.
        path: String,
        /// Relative threshold Δ ∈ (0, 1).
        delta: f64,
    },
    /// `synth <profile> [--scale N] [--out FILE]` — write a synthetic edge file.
    Synth {
        /// Profile name (sanjose, chicago, twitter, flickr, orkut, livejournal).
        profile: String,
        /// Extra scale divisor (default: the profile's default scale).
        scale: Option<u64>,
        /// Output path (`-` = stdout).
        out: String,
    },
    /// `convert <in> <out.fedge>` — re-encode a TSV trace as binary `fedge`.
    Convert {
        /// Path of the TSV input.
        input: String,
        /// Path of the binary output.
        out: String,
    },
    /// `track <file> --user U [--checkpoints K]` — one user's estimate over time.
    Track {
        /// Path to the edge file.
        path: String,
        /// The user identifier to follow (matched after hashing).
        user: String,
        /// Number of progress rows to print.
        checkpoints: usize,
    },
    /// `checkpoint <edges> <out.fsnp>` — ingest a trace and write one
    /// checksummed snapshot of the final sketch state.
    Checkpoint {
        /// Path to the edge file.
        input: String,
        /// Snapshot output path.
        out: String,
    },
    /// `restore <snap.fsnp> [<edges>] [--top N]` — report from a snapshot,
    /// optionally resuming ingest from the recorded stream offset.
    Restore {
        /// Snapshot path (`<snap>.prev` is tried when the newest is corrupt).
        snap: String,
        /// Optional edge file to resume from the recorded offset.
        resume: Option<String>,
        /// How many of the heaviest users to print.
        top: usize,
    },
    /// `merge <snap.fsnp>... <out.fsnp>` — union two or more snapshots of
    /// identically configured sketches into one.
    Merge {
        /// Input snapshot paths (at least two).
        inputs: Vec<String>,
        /// Merged snapshot output path.
        out: String,
    },
    /// `serve <edges> [--port P]` — ingest the trace concurrently while
    /// answering the line protocol (ESTIMATE/TOPK/CONFIDENCE/STATS/
    /// SNAPSHOT/SHUTDOWN) on a TCP socket.
    Serve {
        /// Path to the edge file driven by the writer threads.
        path: String,
        /// TCP port on 127.0.0.1 (`0` = pick an ephemeral port and print it).
        port: u16,
    },
}

/// Argument errors, with enough structure for exact tests.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// No subcommand given.
    MissingCommand,
    /// Unknown subcommand.
    UnknownCommand(String),
    /// A required positional argument is missing.
    MissingArg(&'static str),
    /// A flag needs a value but none followed.
    MissingValue(&'static str),
    /// A flag's value failed to parse.
    BadValue {
        /// The flag at fault.
        flag: &'static str,
        /// The offending value.
        value: String,
        /// What would have been accepted.
        expected: &'static str,
    },
    /// An unrecognized flag.
    UnknownFlag(String),
    /// A flag the subcommand does not read.
    FlagNotRead {
        /// The flag at fault.
        flag: String,
        /// The subcommand that does not read it.
        command: String,
    },
    /// A positional argument left over after the subcommand's own.
    ExtraArg(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingCommand => {
                write!(
                    f,
                    "missing subcommand \
                     (estimate|spreaders|synth|track|convert|checkpoint|restore|merge|serve)"
                )
            }
            Self::UnknownCommand(c) => write!(f, "unknown subcommand `{c}`"),
            Self::MissingArg(a) => write!(f, "missing required argument <{a}>"),
            Self::MissingValue(flag) => write!(f, "flag {flag} needs a value"),
            Self::BadValue {
                flag,
                value,
                expected,
            } => {
                write!(f, "bad value `{value}` for {flag} (expected {expected})")
            }
            Self::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            Self::FlagNotRead { flag, command } => {
                write!(f, "flag `{flag}` does not apply to `{command}`")
            }
            Self::ExtraArg(a) => write!(f, "unexpected argument `{a}`"),
        }
    }
}

impl std::error::Error for ParseError {}

/// The flags `command` reads, in groups: what `commands::run` and `serve`
/// take from a parsed [`Cli`]. `None` for an unknown subcommand. Any other
/// flag is a [`ParseError::FlagNotRead`], so a flag is never parsed and
/// then silently ignored.
fn flags_read(command: &str) -> Option<&'static [&'static [&'static str]]> {
    const SKETCH: &[&str] = &["--method", "--memory", "--seed", "--threads", "--chunk"];
    const CHECKPOINTS: &[&str] = &["--checkpoint", "--checkpoint-every"];
    Some(match command {
        "estimate" => &[SKETCH, CHECKPOINTS, &["--top"]],
        "spreaders" => &[SKETCH, CHECKPOINTS, &["--delta"]],
        "synth" => &[&["--scale", "--out"]],
        "track" => &[SKETCH, CHECKPOINTS, &["--user", "--checkpoints"]],
        "convert" => &[&["--chunk"]],
        "checkpoint" => &[SKETCH, &["--checkpoint-every"]],
        // The sketch comes from the snapshot; a resumed trace is ingested.
        "restore" => &[&["--top", "--threads", "--chunk"]],
        "merge" => &[],
        "serve" => &[SKETCH, CHECKPOINTS, &["--port"]],
        _ => return None,
    })
}

/// Usage text printed on `--help` or parse failure.
pub const USAGE: &str = "\
freesketch-cli — streaming user-cardinality estimation (FreeBS/FreeRS)

USAGE:
  freesketch-cli estimate  <edges> [--top N] [common flags]
  freesketch-cli spreaders <edges> --delta D [common flags]
  freesketch-cli synth     <profile> [--scale N] [--out FILE]
  freesketch-cli track     <edges> --user ID [--checkpoints K] [common flags]
  freesketch-cli convert   <edges.tsv> <out.fedge> [--chunk N]
  freesketch-cli checkpoint <edges> <out.fsnp> [common flags but --checkpoint]
  freesketch-cli restore   <snap.fsnp> [<edges>] [--top N] [--threads N] [--chunk N]
  freesketch-cli merge     <snap.fsnp>... <out.fsnp>
  freesketch-cli serve     <edges> [--port P] [common flags]

A flag that a subcommand does not list is a usage error.

COMMON FLAGS:
  --method freebs|freers   estimator (default freebs)
  --memory BITS            shared-array budget in bits, at most 2^32
                           (default 8388608)
  --seed N                 hash seed (default 42)
  --threads N              parallel ingest threads, at most 1024; >1 uses
                           the sharded concurrent estimator (default 1;
                           at 1 a stage thread reads and hashes the next
                           chunk while the current one is applied)
  --chunk N                edges read from the file per streaming chunk —
                           the resident-edge bound: ~68 bytes per chunk
                           edge at --threads 1, 32 above (default 65536)
  --checkpoint FILE        crash-safe ingest for estimate/spreaders/track/serve:
                           restore FILE if present (FILE.prev when the
                           newest snapshot is corrupt), resume the trace at
                           the recorded offset, and keep checkpointing
  --checkpoint-every N     edges between incremental checkpoints
                           (default 1000000)

SERVE FLAGS:
  --port P                 TCP port on 127.0.0.1; 0 picks an ephemeral
                           port, printed on startup (default 0)

Edge files are read streaming (bounded memory) and once, so <edges> may
be a pipe (`<(zcat edges.tsv.gz)`); only `track`, which reads its input
twice, needs a regular file. The format is detected from the first
bytes: TSV — one `user item` pair per line, `#` comments ignored — or
binary fedge (`convert` writes it; ~3x smaller than TSV and parse-free
to replay). Ingest is batched, and every edge that changes the array is
credited at the q just before it, so at --threads 1 the estimates equal
edge-by-edge ingest whatever --chunk is.

Snapshots (*.fsnp) are versioned, per-section checksummed images of a
sketch plus its stream offset; `checkpoint`, `restore` and `merge`
operate on them, and `--checkpoint` maintains one during ingest with
atomic rotation (FILE.part staging, last good kept at FILE.prev).";

impl Cli {
    /// Parses a full argument list (excluding `argv[0]`).
    ///
    /// # Errors
    /// Returns a [`ParseError`] describing the first problem found.
    pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<Self, ParseError> {
        let mut pos: Vec<&str> = Vec::new();
        let mut flags: Vec<&str> = Vec::new();
        let mut method = Method::FreeBS;
        let mut memory_bits = 1usize << 23;
        let mut seed = 42u64;
        let mut threads = 1usize;
        let mut chunk = DEFAULT_CHUNK;
        let mut top = 10usize;
        let mut delta: Option<f64> = None;
        let mut scale: Option<u64> = None;
        let mut out = "-".to_string();
        let mut user: Option<String> = None;
        let mut checkpoints = 10usize;
        let mut checkpoint: Option<String> = None;
        let mut checkpoint_every = 1_000_000u64;
        let mut port = 0u16;

        let mut i = 0usize;
        while i < args.len() {
            let a = args[i].as_ref();
            if a.starts_with("--") {
                flags.push(a);
            }
            match a {
                "--method" => method = Method::parse(value(args, &mut i, "--method")?)?,
                "--memory" => {
                    let v = value(args, &mut i, "--memory")?;
                    memory_bits = parse_num(v, "--memory")?;
                    if memory_bits > MAX_MEMORY_BITS {
                        return Err(ParseError::BadValue {
                            flag: "--memory",
                            value: v.to_string(),
                            expected: "an integer in 0..=4294967296",
                        });
                    }
                }
                "--seed" => seed = parse_num(value(args, &mut i, "--seed")?, "--seed")?,
                "--threads" => {
                    let v = value(args, &mut i, "--threads")?;
                    threads = parse_num(v, "--threads")?;
                    if !(1..=MAX_THREADS).contains(&threads) {
                        return Err(ParseError::BadValue {
                            flag: "--threads",
                            value: v.to_string(),
                            expected: "an integer in 1..=1024",
                        });
                    }
                }
                "--chunk" => {
                    let v = value(args, &mut i, "--chunk")?;
                    chunk = parse_num(v, "--chunk")?;
                    // Upper bound keeps the chunk buffers allocatable (the
                    // cap is 16M edges, about 1.1 GB resident at one
                    // thread): a huge value must be a CLI error, not a
                    // capacity-overflow panic.
                    if !(1..=MAX_CHUNK).contains(&chunk) {
                        return Err(ParseError::BadValue {
                            flag: "--chunk",
                            value: v.to_string(),
                            expected: "an integer in 1..=16777216",
                        });
                    }
                }
                "--top" => top = parse_num(value(args, &mut i, "--top")?, "--top")?,
                "--delta" => {
                    let v = value(args, &mut i, "--delta")?;
                    // `spreaders` asserts 0 < Δ < 1 only after the whole
                    // trace is read; NaN fails the range check too.
                    match v.parse::<f64>() {
                        Ok(d) if d > 0.0 && d < 1.0 => delta = Some(d),
                        _ => {
                            return Err(ParseError::BadValue {
                                flag: "--delta",
                                value: v.to_string(),
                                expected: "a float in (0,1)",
                            })
                        }
                    }
                }
                "--scale" => {
                    let v = value(args, &mut i, "--scale")?;
                    match parse_num(v, "--scale")? {
                        0 => {
                            return Err(ParseError::BadValue {
                                flag: "--scale",
                                value: v.to_string(),
                                expected: "a positive integer",
                            })
                        }
                        n => scale = Some(n),
                    }
                }
                "--out" => out = value(args, &mut i, "--out")?.to_string(),
                "--user" => user = Some(value(args, &mut i, "--user")?.to_string()),
                "--checkpoints" => {
                    checkpoints = parse_num(value(args, &mut i, "--checkpoints")?, "--checkpoints")?
                }
                "--checkpoint" => {
                    checkpoint = Some(value(args, &mut i, "--checkpoint")?.to_string())
                }
                "--checkpoint-every" => {
                    let v = value(args, &mut i, "--checkpoint-every")?;
                    checkpoint_every = parse_num(v, "--checkpoint-every")?;
                    if checkpoint_every == 0 {
                        return Err(ParseError::BadValue {
                            flag: "--checkpoint-every",
                            value: v.to_string(),
                            expected: "a positive integer",
                        });
                    }
                }
                "--port" => {
                    let v = value(args, &mut i, "--port")?;
                    port = v.parse().map_err(|_| ParseError::BadValue {
                        flag: "--port",
                        value: v.to_string(),
                        expected: "an integer in 0..=65535",
                    })?;
                }
                flag if flag.starts_with("--") => {
                    return Err(ParseError::UnknownFlag(flag.to_string()))
                }
                p => pos.push(p),
            }
            i += 1;
        }

        let mut pos = pos.into_iter();
        let name = pos.next().ok_or(ParseError::MissingCommand)?;
        if let Some(read) = flags_read(name) {
            if let Some(flag) = flags.iter().find(|f| !read.iter().any(|g| g.contains(f))) {
                return Err(ParseError::FlagNotRead {
                    flag: (*flag).to_string(),
                    command: name.to_string(),
                });
            }
        }
        let command = match name {
            "estimate" => Command::Estimate {
                path: pos
                    .next()
                    .ok_or(ParseError::MissingArg("edges.tsv"))?
                    .to_string(),
                top,
            },
            "spreaders" => Command::Spreaders {
                path: pos
                    .next()
                    .ok_or(ParseError::MissingArg("edges.tsv"))?
                    .to_string(),
                delta: delta.ok_or(ParseError::MissingValue("--delta"))?,
            },
            "convert" => Command::Convert {
                input: pos
                    .next()
                    .ok_or(ParseError::MissingArg("edges.tsv"))?
                    .to_string(),
                out: pos
                    .next()
                    .ok_or(ParseError::MissingArg("out.fedge"))?
                    .to_string(),
            },
            "synth" => Command::Synth {
                profile: pos
                    .next()
                    .ok_or(ParseError::MissingArg("profile"))?
                    .to_string(),
                scale,
                out,
            },
            "track" => Command::Track {
                path: pos
                    .next()
                    .ok_or(ParseError::MissingArg("edges.tsv"))?
                    .to_string(),
                user: user.ok_or(ParseError::MissingValue("--user"))?,
                checkpoints,
            },
            "checkpoint" => Command::Checkpoint {
                input: pos
                    .next()
                    .ok_or(ParseError::MissingArg("edges"))?
                    .to_string(),
                out: pos
                    .next()
                    .ok_or(ParseError::MissingArg("out.fsnp"))?
                    .to_string(),
            },
            "restore" => Command::Restore {
                snap: pos
                    .next()
                    .ok_or(ParseError::MissingArg("snap.fsnp"))?
                    .to_string(),
                resume: pos.next().map(str::to_string),
                top,
            },
            "serve" => Command::Serve {
                path: pos
                    .next()
                    .ok_or(ParseError::MissingArg("edges"))?
                    .to_string(),
                port,
            },
            "merge" => {
                let mut rest: Vec<String> = pos.by_ref().map(str::to_string).collect();
                // <out> plus at least two inputs.
                if rest.len() < 3 {
                    return Err(ParseError::MissingArg(
                        "snap.fsnp (merge takes two or more inputs, then the output)",
                    ));
                }
                let out = rest.pop().ok_or(ParseError::MissingArg("out.fsnp"))?;
                Command::Merge { inputs: rest, out }
            }
            other => return Err(ParseError::UnknownCommand(other.to_string())),
        };
        if let Some(extra) = pos.next() {
            return Err(ParseError::ExtraArg(extra.to_string()));
        }

        Ok(Self {
            command,
            method,
            memory_bits,
            seed,
            threads,
            chunk,
            checkpoint,
            checkpoint_every,
        })
    }
}

fn value<'a, S: AsRef<str>>(
    args: &'a [S],
    i: &mut usize,
    flag: &'static str,
) -> Result<&'a str, ParseError> {
    *i += 1;
    args.get(*i)
        .map(AsRef::as_ref)
        .ok_or(ParseError::MissingValue(flag))
}

fn parse_num<T: std::str::FromStr>(v: &str, flag: &'static str) -> Result<T, ParseError> {
    v.parse().map_err(|_| ParseError::BadValue {
        flag,
        value: v.to_string(),
        expected: "a non-negative integer",
    })
}

// Re-export for commands.rs.
pub(crate) use Method as MethodChoice;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_defaults() {
        let cli = Cli::parse(&["estimate", "edges.tsv"]).expect("parse");
        assert_eq!(
            cli.command,
            Command::Estimate {
                path: "edges.tsv".into(),
                top: 10
            }
        );
        assert_eq!(cli.method, Method::FreeBS);
        assert_eq!(cli.memory_bits, 1 << 23);
        assert_eq!(cli.seed, 42);
    }

    #[test]
    fn threads_flag_parses_and_rejects_zero() {
        let cli = Cli::parse(&["estimate", "x.tsv"]).expect("parse");
        assert_eq!(cli.threads, 1);
        let cli = Cli::parse(&["estimate", "x.tsv", "--threads", "4"]).expect("parse");
        assert_eq!(cli.threads, 4);
        assert!(matches!(
            Cli::parse(&["estimate", "x.tsv", "--threads", "0"]).unwrap_err(),
            ParseError::BadValue {
                flag: "--threads",
                ..
            }
        ));
    }

    #[test]
    fn threads_flag_rejects_more_than_max_threads() {
        let cli = Cli::parse(&["estimate", "x.tsv", "--threads", "1024"]).expect("parse");
        assert_eq!(cli.threads, MAX_THREADS);
        for bad in ["1025", "100000"] {
            assert_eq!(
                Cli::parse(&["estimate", "x.tsv", "--threads", bad]).unwrap_err(),
                ParseError::BadValue {
                    flag: "--threads",
                    value: bad.into(),
                    expected: "an integer in 1..=1024",
                },
            );
        }
    }

    #[test]
    fn delta_flag_rejects_values_outside_unit_interval() {
        for bad in ["5", "0", "-1", "NaN", "inf"] {
            assert_eq!(
                Cli::parse(&["spreaders", "x.tsv", "--delta", bad]).unwrap_err(),
                ParseError::BadValue {
                    flag: "--delta",
                    value: bad.into(),
                    expected: "a float in (0,1)",
                },
                "--delta {bad} must be rejected"
            );
        }
    }

    #[test]
    fn batch_flag_is_unknown() {
        for v in ["0", "8192"] {
            assert_eq!(
                Cli::parse(&["estimate", "x.tsv", "--batch", v]).unwrap_err(),
                ParseError::UnknownFlag("--batch".into())
            );
        }
    }

    #[test]
    fn chunk_flag_parses_and_rejects_zero() {
        let cli = Cli::parse(&["estimate", "x.tsv"]).expect("parse");
        assert_eq!(cli.chunk, 1 << 16, "USAGE and README document 65536");
        assert_eq!(cli.chunk, DEFAULT_CHUNK);
        let cli = Cli::parse(&["estimate", "x.tsv", "--chunk", "1024"]).expect("parse");
        assert_eq!(cli.chunk, 1024);
        for bad in ["0", "16777217", "2305843009213693952"] {
            assert!(
                matches!(
                    Cli::parse(&["estimate", "x.tsv", "--chunk", bad]).unwrap_err(),
                    ParseError::BadValue {
                        flag: "--chunk",
                        ..
                    }
                ),
                "--chunk {bad} must be rejected"
            );
        }
    }

    #[test]
    fn format_flag_is_unknown() {
        // The format is always read from the input's first bytes.
        for v in ["auto", "tsv", "fedge"] {
            assert_eq!(
                Cli::parse(&["estimate", "x", "--format", v]).unwrap_err(),
                ParseError::UnknownFlag("--format".into())
            );
        }
    }

    #[test]
    fn memory_flag_rejects_more_than_max_memory_bits() {
        let cli = Cli::parse(&["estimate", "x", "--memory", "4294967296"]).expect("parse");
        assert_eq!(cli.memory_bits, MAX_MEMORY_BITS);
        for cmd in [&["estimate", "x"][..], &["serve", "x"]] {
            for bad in ["4294967297", "99999999999999"] {
                assert_eq!(
                    Cli::parse(&[cmd, &["--memory", bad]].concat()).unwrap_err(),
                    ParseError::BadValue {
                        flag: "--memory",
                        value: bad.into(),
                        expected: "an integer in 0..=4294967296",
                    },
                    "{cmd:?} --memory {bad}"
                );
            }
        }
    }

    #[test]
    fn surplus_positional_arguments_are_rejected() {
        // Each subcommand with exactly the positionals it takes, then one
        // more; merge takes any number (two or more inputs, then the
        // output), so it has none left over.
        for full in [
            &["estimate", "e.tsv"][..],
            &["spreaders", "e.tsv", "--delta", "0.1"],
            &["synth", "orkut"],
            &["convert", "e.tsv", "e.fedge"],
            &["track", "e.tsv", "--user", "u"],
            &["checkpoint", "e.tsv", "s.fsnp"],
            &["restore", "s.fsnp", "e.tsv"],
            &["serve", "e.tsv"],
        ] {
            Cli::parse(full).unwrap_or_else(|e| panic!("{full:?}: {e}"));
            assert_eq!(
                Cli::parse(&[full, &["extra"]].concat()).unwrap_err(),
                ParseError::ExtraArg("extra".into()),
                "{full:?} extra"
            );
        }
        // The leftover may sit before the flags too.
        assert_eq!(
            Cli::parse(&["estimate", "e.tsv", "10", "--top", "3"]).unwrap_err(),
            ParseError::ExtraArg("10".into())
        );
        let cli = Cli::parse(&["merge", "a", "b", "c", "d", "out"]).expect("parse");
        assert!(matches!(cli.command, Command::Merge { ref inputs, .. } if inputs.len() == 4));
    }

    #[test]
    fn each_subcommand_rejects_the_flags_it_does_not_read() {
        let commands = [
            "estimate",
            "spreaders",
            "synth",
            "track",
            "convert",
            "checkpoint",
            "restore",
            "merge",
            "serve",
        ];
        let value = |flag: &str| match flag {
            "--method" => "freers",
            "--delta" => "0.1",
            "--out" | "--checkpoint" | "--user" => "x",
            _ => "2",
        };
        let read = |command: &str| -> Vec<&str> {
            let groups = flags_read(command).expect("a subcommand");
            groups.iter().flat_map(|g| g.iter().copied()).collect()
        };
        let mut every: Vec<&str> = commands.iter().flat_map(|c| read(c)).collect();
        every.sort_unstable();
        every.dedup();
        for command in commands {
            let positionals = match command {
                "convert" | "checkpoint" => 2,
                "merge" => 3,
                _ => 1,
            };
            let mut args = vec![command];
            args.extend(["p"].repeat(positionals));
            let own = read(command);
            for flag in &own {
                args.extend([flag, value(flag)]);
            }
            Cli::parse(&args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
            let foreign = every
                .iter()
                .find(|f| !own.contains(f))
                .expect("no subcommand reads every flag");
            args.extend([foreign, value(foreign)]);
            assert_eq!(
                Cli::parse(&args).unwrap_err(),
                ParseError::FlagNotRead {
                    flag: foreign.to_string(),
                    command: command.into(),
                },
                "{args:?}"
            );
        }
        // The first flag the subcommand does not read is the one named.
        let cases = [
            (
                &[
                    "synth",
                    "orkut",
                    "--scale",
                    "100000",
                    "--checkpoint",
                    "x.fsnp",
                    "--out",
                    "o",
                ][..],
                "--checkpoint",
            ),
            (
                &[
                    "estimate", "e.fedge", "--scale", "3", "--user", "bob", "--port", "9",
                ],
                "--scale",
            ),
            (&["restore", "s.fsnp", "--method", "freers"], "--method"),
        ];
        for (args, flag) in cases {
            assert_eq!(
                Cli::parse(args).unwrap_err(),
                ParseError::FlagNotRead {
                    flag: flag.into(),
                    command: args[0].into(),
                },
                "{args:?}"
            );
        }
    }

    #[test]
    fn convert_parses_and_requires_both_paths() {
        let cli = Cli::parse(&["convert", "in.tsv", "out.fedge"]).expect("parse");
        assert_eq!(
            cli.command,
            Command::Convert {
                input: "in.tsv".into(),
                out: "out.fedge".into()
            }
        );
        assert_eq!(
            Cli::parse(&["convert", "in.tsv"]).unwrap_err(),
            ParseError::MissingArg("out.fedge")
        );
        assert_eq!(
            Cli::parse(&["convert"]).unwrap_err(),
            ParseError::MissingArg("edges.tsv")
        );
    }

    #[test]
    fn all_flags_parse() {
        let cli = Cli::parse(&[
            "spreaders",
            "x.tsv",
            "--delta",
            "0.001",
            "--method",
            "freers",
            "--memory",
            "65536",
            "--seed",
            "7",
        ])
        .expect("parse");
        assert_eq!(cli.method, Method::FreeRS);
        assert_eq!(cli.memory_bits, 65536);
        assert_eq!(cli.seed, 7);
        assert_eq!(
            cli.command,
            Command::Spreaders {
                path: "x.tsv".into(),
                delta: 0.001
            }
        );
    }

    #[test]
    fn synth_with_options() {
        let cli =
            Cli::parse(&["synth", "orkut", "--scale", "500", "--out", "o.tsv"]).expect("parse");
        assert_eq!(
            cli.command,
            Command::Synth {
                profile: "orkut".into(),
                scale: Some(500),
                out: "o.tsv".into()
            }
        );
    }

    #[test]
    fn synth_rejects_scale_zero() {
        assert_eq!(
            Cli::parse(&["synth", "orkut", "--scale", "0"]).unwrap_err(),
            ParseError::BadValue {
                flag: "--scale",
                value: "0".into(),
                expected: "a positive integer",
            }
        );
    }

    #[test]
    fn track_requires_user() {
        assert_eq!(
            Cli::parse(&["track", "x.tsv"]).unwrap_err(),
            ParseError::MissingValue("--user")
        );
        let cli = Cli::parse(&["track", "x.tsv", "--user", "10.0.0.1"]).expect("parse");
        assert_eq!(
            cli.command,
            Command::Track {
                path: "x.tsv".into(),
                user: "10.0.0.1".into(),
                checkpoints: 10
            }
        );
    }

    #[test]
    fn error_variants() {
        assert_eq!(
            Cli::parse::<&str>(&[]).unwrap_err(),
            ParseError::MissingCommand
        );
        assert_eq!(
            Cli::parse(&["frobnicate"]).unwrap_err(),
            ParseError::UnknownCommand("frobnicate".into())
        );
        assert_eq!(
            Cli::parse(&["estimate"]).unwrap_err(),
            ParseError::MissingArg("edges.tsv")
        );
        assert_eq!(
            Cli::parse(&["estimate", "x", "--memory"]).unwrap_err(),
            ParseError::MissingValue("--memory")
        );
        assert!(matches!(
            Cli::parse(&["estimate", "x", "--memory", "lots"]).unwrap_err(),
            ParseError::BadValue {
                flag: "--memory",
                ..
            }
        ));
        assert_eq!(
            Cli::parse(&["estimate", "x", "--frob"]).unwrap_err(),
            ParseError::UnknownFlag("--frob".into())
        );
    }

    #[test]
    fn checkpoint_flags_parse_and_reject_zero_interval() {
        let cli = Cli::parse(&["estimate", "x.tsv"]).expect("parse");
        assert_eq!(cli.checkpoint, None);
        assert_eq!(cli.checkpoint_every, 1_000_000);
        let cli = Cli::parse(&[
            "estimate",
            "x.tsv",
            "--checkpoint",
            "state.fsnp",
            "--checkpoint-every",
            "5000",
        ])
        .expect("parse");
        assert_eq!(cli.checkpoint.as_deref(), Some("state.fsnp"));
        assert_eq!(cli.checkpoint_every, 5000);
        assert!(matches!(
            Cli::parse(&["estimate", "x.tsv", "--checkpoint-every", "0"]).unwrap_err(),
            ParseError::BadValue {
                flag: "--checkpoint-every",
                ..
            }
        ));
        assert_eq!(
            Cli::parse(&["estimate", "x.tsv", "--checkpoint"]).unwrap_err(),
            ParseError::MissingValue("--checkpoint")
        );
    }

    #[test]
    fn checkpoint_subcommand_parses() {
        let cli = Cli::parse(&["checkpoint", "edges.tsv", "state.fsnp"]).expect("parse");
        assert_eq!(
            cli.command,
            Command::Checkpoint {
                input: "edges.tsv".into(),
                out: "state.fsnp".into()
            }
        );
        assert_eq!(
            Cli::parse(&["checkpoint", "edges.tsv"]).unwrap_err(),
            ParseError::MissingArg("out.fsnp")
        );
    }

    #[test]
    fn restore_subcommand_parses_with_optional_resume() {
        let cli = Cli::parse(&["restore", "state.fsnp"]).expect("parse");
        assert_eq!(
            cli.command,
            Command::Restore {
                snap: "state.fsnp".into(),
                resume: None,
                top: 10
            }
        );
        let cli = Cli::parse(&["restore", "state.fsnp", "edges.tsv", "--top", "3"]).expect("parse");
        assert_eq!(
            cli.command,
            Command::Restore {
                snap: "state.fsnp".into(),
                resume: Some("edges.tsv".into()),
                top: 3
            }
        );
        assert_eq!(
            Cli::parse(&["restore"]).unwrap_err(),
            ParseError::MissingArg("snap.fsnp")
        );
    }

    #[test]
    fn merge_subcommand_needs_two_inputs_and_output() {
        let cli = Cli::parse(&["merge", "a.fsnp", "b.fsnp", "c.fsnp", "out.fsnp"]).expect("parse");
        assert_eq!(
            cli.command,
            Command::Merge {
                inputs: vec!["a.fsnp".into(), "b.fsnp".into(), "c.fsnp".into()],
                out: "out.fsnp".into()
            }
        );
        for bad in [
            &["merge"][..],
            &["merge", "a.fsnp"],
            &["merge", "a.fsnp", "out.fsnp"],
        ] {
            assert!(
                matches!(Cli::parse(bad).unwrap_err(), ParseError::MissingArg(_)),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn serve_subcommand_parses_with_port() {
        let cli = Cli::parse(&["serve", "edges.tsv"]).expect("parse");
        assert_eq!(
            cli.command,
            Command::Serve {
                path: "edges.tsv".into(),
                port: 0
            }
        );
        let cli =
            Cli::parse(&["serve", "edges.tsv", "--port", "7070", "--threads", "4"]).expect("parse");
        assert_eq!(
            cli.command,
            Command::Serve {
                path: "edges.tsv".into(),
                port: 7070
            }
        );
        assert_eq!(cli.threads, 4);
        assert_eq!(
            Cli::parse(&["serve"]).unwrap_err(),
            ParseError::MissingArg("edges")
        );
        for bad in ["65536", "-1", "http"] {
            assert!(
                matches!(
                    Cli::parse(&["serve", "x", "--port", bad]).unwrap_err(),
                    ParseError::BadValue { flag: "--port", .. }
                ),
                "--port {bad} must be rejected"
            );
        }
    }

    #[test]
    fn method_is_case_insensitive() {
        let cli = Cli::parse(&["estimate", "x", "--method", "FreeRS"]).expect("parse");
        assert_eq!(cli.method, Method::FreeRS);
    }

    #[test]
    fn errors_display() {
        let e = ParseError::BadValue {
            flag: "--delta",
            value: "2".into(),
            expected: "a float in (0,1)",
        };
        assert!(e.to_string().contains("--delta"));
        assert!(ParseError::MissingCommand
            .to_string()
            .contains("subcommand"));
    }
}
