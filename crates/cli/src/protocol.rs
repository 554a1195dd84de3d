//! The serve daemon's line protocol: typed request parsing and reply
//! framing.
//!
//! One request per `\n`-terminated line, ASCII verbs, whitespace-separated
//! arguments; one reply line per request, `OK …` or `ERR <code> <detail>`.
//! The parser is **total**: arbitrary byte soup, truncated lines and
//! oversized tokens all come back as a typed [`ProtocolError`] — never a
//! panic — so a malformed client can at worst earn itself an `ERR` reply
//! (mirroring the typed-failure discipline of `graphstream::FedgeError`).
//!
//! Grammar (documented in README "Serving"):
//!
//! ```text
//! ESTIMATE <user>             -> OK <estimate>
//! TOPK <n>                    -> OK <k> <user>:<estimate> ...
//! CONFIDENCE <user> <level>   -> OK <estimate> <lower> <upper> z=<z>
//! STATS                       -> OK edges=.. queries=.. users=.. ...
//! SNAPSHOT <path>             -> OK snapshot <path> edges=<n>
//! SHUTDOWN                    -> OK draining edges=<n>
//! ```
//!
//! `<user>` is either a raw post-hash id `#<hex>` (the form every reply
//! prints) or an arbitrary string id hashed exactly as TSV ingestion
//! hashes it, so `ESTIMATE alice` matches the edges of `alice a` lines.
//!
//! `STATS` reads values the daemon and the sketch keep as they go: the
//! edge, query and error counts, and the sketch's running total (one per
//! shard, summed), smallest shard `q`, memory, kind and user count. At
//! one shard (`serve --threads 1`) that is O(P) work, with no scan of the
//! users: the user count is the shard's counter-map length. With more
//! shards `users=` still merges every shard's users into one map, since a
//! user's pairs route to several shards.

use crate::input::hash_id;
use std::io::BufRead;

/// Longest accepted request line in bytes (excluding the newline).
/// Anything longer yields [`ProtocolError::LineTooLong`] and the rest of
/// the line is discarded — the reader never buffers unbounded input.
pub const MAX_LINE_BYTES: usize = 4096;

/// Longest accepted single token (user id, snapshot path).
pub const MAX_TOKEN_BYTES: usize = 1024;

/// Largest accepted `TOPK` count.
pub const MAX_TOPK: usize = 65536;

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `ESTIMATE <user>` — one user's cardinality estimate.
    Estimate {
        /// The resolved user id.
        user: u64,
    },
    /// `TOPK <n>` — the `n` heaviest users.
    TopK {
        /// How many users to return (1..=[`MAX_TOPK`]).
        n: usize,
    },
    /// `CONFIDENCE <user> <level>` — estimate with an anytime CI.
    Confidence {
        /// The resolved user id.
        user: u64,
        /// The confidence level.
        level: ConfidenceLevel,
    },
    /// `STATS` — ingest/query counters and sketch state.
    Stats,
    /// `SNAPSHOT <path>` — write an atomic snapshot to `path`.
    Snapshot {
        /// Destination path on the daemon's filesystem.
        path: String,
    },
    /// `SHUTDOWN` — drain ingest, final checkpoint, exit.
    Shutdown,
}

/// The confidence levels `CONFIDENCE` accepts, with their normal
/// quantiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfidenceLevel {
    /// 90% two-sided.
    P90,
    /// 95% two-sided.
    P95,
    /// 99% two-sided.
    P99,
}

impl ConfidenceLevel {
    /// The two-sided normal quantile for this level.
    #[must_use]
    pub fn z(self) -> f64 {
        match self {
            Self::P90 => 1.6448536269514722,
            Self::P95 => 1.959963984540054,
            Self::P99 => 2.5758293035489004,
        }
    }

    fn parse(tok: &str) -> Option<Self> {
        match tok {
            "90" | "0.90" | "0.9" | "90%" => Some(Self::P90),
            "95" | "0.95" | "95%" => Some(Self::P95),
            "99" | "0.99" | "99%" => Some(Self::P99),
            _ => None,
        }
    }
}

/// Everything that can be wrong with a request line. `Display` renders
/// the full `ERR <code> <detail>` reply line (no trailing newline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Blank line (or whitespace only).
    Empty,
    /// Line exceeded [`MAX_LINE_BYTES`] before a newline arrived.
    LineTooLong,
    /// The line is not valid UTF-8.
    NotUtf8,
    /// A token exceeded [`MAX_TOKEN_BYTES`].
    TokenTooLong,
    /// Unrecognized verb.
    UnknownCommand(String),
    /// A required argument is missing.
    MissingArg {
        /// The verb.
        cmd: &'static str,
        /// What was expected.
        what: &'static str,
    },
    /// More arguments than the verb takes.
    ExtraArgs {
        /// The verb.
        cmd: &'static str,
    },
    /// An argument failed to parse.
    BadArg {
        /// The verb.
        cmd: &'static str,
        /// What was expected.
        what: &'static str,
        /// The offending token (truncated for display).
        value: String,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Empty => write!(f, "ERR empty-line send one request per newline"),
            Self::LineTooLong => {
                write!(
                    f,
                    "ERR line-too-long max {MAX_LINE_BYTES} bytes per request"
                )
            }
            Self::NotUtf8 => write!(f, "ERR not-utf8 request bytes must be UTF-8"),
            Self::TokenTooLong => {
                write!(
                    f,
                    "ERR token-too-long max {MAX_TOKEN_BYTES} bytes per token"
                )
            }
            Self::UnknownCommand(c) => write!(
                f,
                "ERR unknown-command `{c}` \
                 (ESTIMATE|TOPK|CONFIDENCE|STATS|SNAPSHOT|SHUTDOWN)"
            ),
            Self::MissingArg { cmd, what } => {
                write!(f, "ERR missing-arg {cmd} needs {what}")
            }
            Self::ExtraArgs { cmd } => write!(f, "ERR extra-args {cmd} takes no further arguments"),
            Self::BadArg { cmd, what, value } => {
                write!(f, "ERR bad-arg {cmd} expected {what}, got `{value}`")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Truncates a token for inclusion in an error reply — never more than a
/// display-safe prefix, and never a control character (a NUL or escape
/// sequence inside valid UTF-8 would corrupt the reply line or the
/// peer's terminal), each shown as `?` instead.
fn clip(tok: &str) -> String {
    const SHOWN: usize = 32;
    let mut head: String = tok
        .chars()
        .take(SHOWN)
        .map(|c| if c.is_control() { '?' } else { c })
        .collect();
    if tok.chars().count() > SHOWN {
        head.push('…');
    }
    head
}

/// Resolves a `<user>` token: `#<hex>` is a raw post-hash id (the form
/// replies print), anything else is hashed like a TSV identifier.
fn parse_user(cmd: &'static str, tok: &str) -> Result<u64, ProtocolError> {
    if let Some(hex) = tok.strip_prefix('#') {
        return u64::from_str_radix(hex, 16).map_err(|_| ProtocolError::BadArg {
            cmd,
            what: "#<hex user id>",
            value: clip(tok),
        });
    }
    Ok(hash_id(tok))
}

/// Parses one request line (without its newline). Total: every possible
/// byte string yields `Ok` or a typed error, never a panic.
///
/// # Errors
/// A [`ProtocolError`] describing the first problem found; its `Display`
/// is the wire reply.
pub fn parse_request(line: &[u8]) -> Result<Request, ProtocolError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(ProtocolError::LineTooLong);
    }
    let text = std::str::from_utf8(line).map_err(|_| ProtocolError::NotUtf8)?;
    let mut tokens = text.split_whitespace();
    let Some(verb) = tokens.next() else {
        return Err(ProtocolError::Empty);
    };
    let args: Vec<&str> = tokens.collect();
    if args.iter().any(|t| t.len() > MAX_TOKEN_BYTES) {
        return Err(ProtocolError::TokenTooLong);
    }
    match verb {
        "ESTIMATE" => match args.as_slice() {
            [] => Err(ProtocolError::MissingArg {
                cmd: "ESTIMATE",
                what: "<user>",
            }),
            [user] => Ok(Request::Estimate {
                user: parse_user("ESTIMATE", user)?,
            }),
            _ => Err(ProtocolError::ExtraArgs { cmd: "ESTIMATE" }),
        },
        "TOPK" => match args.as_slice() {
            [] => Err(ProtocolError::MissingArg {
                cmd: "TOPK",
                what: "<n>",
            }),
            [n] => {
                let parsed: usize = n.parse().map_err(|_| ProtocolError::BadArg {
                    cmd: "TOPK",
                    what: "an integer in 1..=65536",
                    value: clip(n),
                })?;
                if !(1..=MAX_TOPK).contains(&parsed) {
                    return Err(ProtocolError::BadArg {
                        cmd: "TOPK",
                        what: "an integer in 1..=65536",
                        value: clip(n),
                    });
                }
                Ok(Request::TopK { n: parsed })
            }
            _ => Err(ProtocolError::ExtraArgs { cmd: "TOPK" }),
        },
        "CONFIDENCE" => match args.as_slice() {
            [] | [_] => Err(ProtocolError::MissingArg {
                cmd: "CONFIDENCE",
                what: "<user> <level>",
            }),
            [user, level] => Ok(Request::Confidence {
                user: parse_user("CONFIDENCE", user)?,
                level: ConfidenceLevel::parse(level).ok_or_else(|| ProtocolError::BadArg {
                    cmd: "CONFIDENCE",
                    what: "a level in {90, 95, 99}",
                    value: clip(level),
                })?,
            }),
            _ => Err(ProtocolError::ExtraArgs { cmd: "CONFIDENCE" }),
        },
        "STATS" => match args.as_slice() {
            [] => Ok(Request::Stats),
            _ => Err(ProtocolError::ExtraArgs { cmd: "STATS" }),
        },
        "SNAPSHOT" => match args.as_slice() {
            [] => Err(ProtocolError::MissingArg {
                cmd: "SNAPSHOT",
                what: "<path>",
            }),
            [path] => Ok(Request::Snapshot {
                path: (*path).to_string(),
            }),
            _ => Err(ProtocolError::ExtraArgs { cmd: "SNAPSHOT" }),
        },
        "SHUTDOWN" => match args.as_slice() {
            [] => Ok(Request::Shutdown),
            _ => Err(ProtocolError::ExtraArgs { cmd: "SHUTDOWN" }),
        },
        other => Err(ProtocolError::UnknownCommand(clip(other))),
    }
}

/// What one [`LineReader::next_line`] call produced.
#[derive(Debug, PartialEq, Eq)]
pub enum LineStatus {
    /// A complete line is in the caller's buffer (newline stripped; a
    /// final unterminated line at EOF counts).
    Line,
    /// The line exceeded the cap; its bytes were discarded up to and
    /// including the newline. Reply with
    /// [`ProtocolError::LineTooLong`] and keep reading.
    TooLong,
    /// Clean end of stream.
    Eof,
}

/// A bounded-memory line reader: accumulates at most `max` bytes per line
/// and *discards* (never buffers) the remainder of an oversized line, so
/// a hostile client cannot grow the daemon's memory by withholding
/// newlines. Resumable across read timeouts: an `Err` from the underlying
/// reader (e.g. `WouldBlock` on a socket with a read timeout) leaves the
/// partial line intact and the next call continues it.
#[derive(Debug)]
pub struct LineReader<R> {
    inner: R,
    max: usize,
    acc: Vec<u8>,
    /// Inside an oversized line, discarding until the next newline.
    skipping: bool,
}

impl<R: BufRead> LineReader<R> {
    /// Wraps a buffered reader with a per-line byte cap.
    pub fn new(inner: R, max: usize) -> Self {
        Self {
            inner,
            max,
            acc: Vec::new(),
            skipping: false,
        }
    }

    /// Reads the next line into `out` (cleared first, newline stripped).
    ///
    /// # Errors
    /// Propagates reader errors; timeouts (`WouldBlock`/`TimedOut`) are
    /// safe to retry — the partial line is kept.
    pub fn next_line(&mut self, out: &mut Vec<u8>) -> std::io::Result<LineStatus> {
        out.clear();
        loop {
            let buf = self.inner.fill_buf()?;
            if buf.is_empty() {
                // EOF: a partial accumulated line is delivered as-is
                // (truncated input still gets a typed reply, not silence).
                if self.skipping {
                    self.skipping = false;
                    self.acc.clear();
                    return Ok(LineStatus::TooLong);
                }
                if self.acc.is_empty() {
                    return Ok(LineStatus::Eof);
                }
                std::mem::swap(out, &mut self.acc);
                self.acc.clear();
                return Ok(LineStatus::Line);
            }
            let newline = buf.iter().position(|&b| b == b'\n');
            let upto = newline.map_or(buf.len(), |p| p + 1);
            if self.skipping {
                self.inner.consume(upto);
                if newline.is_some() {
                    self.skipping = false;
                    return Ok(LineStatus::TooLong);
                }
                continue;
            }
            let line_bytes = newline.map_or(buf.len(), |p| p);
            if self.acc.len() + line_bytes > self.max {
                // Over the cap: drop what we had, discard to the newline.
                self.acc.clear();
                self.inner.consume(upto);
                if newline.is_some() {
                    return Ok(LineStatus::TooLong);
                }
                self.skipping = true;
                continue;
            }
            self.acc.extend_from_slice(&buf[..line_bytes]);
            self.inner.consume(upto);
            if newline.is_some() {
                // Strip a trailing carriage return for CRLF clients.
                if self.acc.last() == Some(&b'\r') {
                    self.acc.pop();
                }
                std::mem::swap(out, &mut self.acc);
                self.acc.clear();
                return Ok(LineStatus::Line);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Request, ProtocolError> {
        parse_request(s.as_bytes())
    }

    #[test]
    fn well_formed_requests_parse() {
        assert_eq!(
            parse("ESTIMATE alice"),
            Ok(Request::Estimate {
                user: hash_id("alice")
            })
        );
        assert_eq!(
            parse("ESTIMATE #00ff00ff00ff00ff"),
            Ok(Request::Estimate {
                user: 0x00ff_00ff_00ff_00ff
            })
        );
        assert_eq!(parse("TOPK 10"), Ok(Request::TopK { n: 10 }));
        assert_eq!(
            parse("CONFIDENCE bob 99"),
            Ok(Request::Confidence {
                user: hash_id("bob"),
                level: ConfidenceLevel::P99
            })
        );
        assert_eq!(
            parse("CONFIDENCE bob 0.95"),
            Ok(Request::Confidence {
                user: hash_id("bob"),
                level: ConfidenceLevel::P95
            })
        );
        assert_eq!(parse("STATS"), Ok(Request::Stats));
        assert_eq!(
            parse("SNAPSHOT /tmp/x.fsnp"),
            Ok(Request::Snapshot {
                path: "/tmp/x.fsnp".into()
            })
        );
        assert_eq!(parse("SHUTDOWN"), Ok(Request::Shutdown));
        // Leading/trailing whitespace is tolerated; verbs are not.
        assert_eq!(parse("  STATS  "), Ok(Request::Stats));
        assert!(matches!(
            parse("stats"),
            Err(ProtocolError::UnknownCommand(_))
        ));
    }

    #[test]
    fn malformed_requests_yield_typed_errors() {
        assert_eq!(parse(""), Err(ProtocolError::Empty));
        assert_eq!(parse("   \t "), Err(ProtocolError::Empty));
        assert!(matches!(
            parse("FROB 1"),
            Err(ProtocolError::UnknownCommand(_))
        ));
        assert!(matches!(
            parse("ESTIMATE"),
            Err(ProtocolError::MissingArg { .. })
        ));
        assert!(matches!(
            parse("ESTIMATE a b"),
            Err(ProtocolError::ExtraArgs { .. })
        ));
        assert!(matches!(
            parse("TOPK"),
            Err(ProtocolError::MissingArg { .. })
        ));
        for bad in ["TOPK 0", "TOPK -3", "TOPK 70000", "TOPK ten"] {
            assert!(
                matches!(parse(bad), Err(ProtocolError::BadArg { .. })),
                "{bad}"
            );
        }
        assert!(matches!(
            parse("CONFIDENCE u"),
            Err(ProtocolError::MissingArg { .. })
        ));
        assert!(matches!(
            parse("CONFIDENCE u 42"),
            Err(ProtocolError::BadArg { .. })
        ));
        assert!(matches!(
            parse("ESTIMATE #nothex"),
            Err(ProtocolError::BadArg { .. })
        ));
        assert_eq!(
            parse_request(&[0x41, 0xff, 0xfe]),
            Err(ProtocolError::NotUtf8)
        );
        let long_tok = format!("ESTIMATE {}", "x".repeat(MAX_TOKEN_BYTES + 1));
        assert_eq!(parse(&long_tok), Err(ProtocolError::TokenTooLong));
        let long_line = vec![b'A'; MAX_LINE_BYTES + 1];
        assert_eq!(parse_request(&long_line), Err(ProtocolError::LineTooLong));
    }

    #[test]
    fn error_replies_are_single_err_lines() {
        let errs = [
            ProtocolError::Empty,
            ProtocolError::LineTooLong,
            ProtocolError::NotUtf8,
            ProtocolError::TokenTooLong,
            ProtocolError::UnknownCommand("x".into()),
            ProtocolError::MissingArg {
                cmd: "ESTIMATE",
                what: "<user>",
            },
            ProtocolError::ExtraArgs { cmd: "STATS" },
            ProtocolError::BadArg {
                cmd: "TOPK",
                what: "an integer",
                value: "ten".into(),
            },
        ];
        for e in errs {
            let reply = e.to_string();
            assert!(reply.starts_with("ERR "), "{reply}");
            assert!(!reply.contains('\n'), "{reply}");
        }
    }

    #[test]
    fn clip_truncates_echoed_tokens() {
        let huge = "y".repeat(500);
        let Err(e) = parse(&format!("TOPK {huge}")) else {
            panic!("must fail");
        };
        assert!(e.to_string().len() < 120, "{e}");
    }

    #[test]
    fn line_reader_basic_split() {
        let data = b"STATS\nTOPK 3\r\nlast";
        let mut r = LineReader::new(&data[..], 64);
        let mut out = Vec::new();
        assert_eq!(r.next_line(&mut out).expect("read"), LineStatus::Line);
        assert_eq!(out, b"STATS");
        assert_eq!(r.next_line(&mut out).expect("read"), LineStatus::Line);
        assert_eq!(out, b"TOPK 3");
        // Unterminated final line still arrives.
        assert_eq!(r.next_line(&mut out).expect("read"), LineStatus::Line);
        assert_eq!(out, b"last");
        assert_eq!(r.next_line(&mut out).expect("read"), LineStatus::Eof);
    }

    #[test]
    fn line_reader_oversized_lines_are_discarded_not_buffered() {
        let mut data = vec![b'A'; 100];
        data.push(b'\n');
        data.extend_from_slice(b"STATS\n");
        data.extend(vec![b'B'; 300]); // oversized AND unterminated
        let mut r = LineReader::new(&data[..], 16);
        let mut out = Vec::new();
        assert_eq!(r.next_line(&mut out).expect("read"), LineStatus::TooLong);
        assert_eq!(r.next_line(&mut out).expect("read"), LineStatus::Line);
        assert_eq!(out, b"STATS");
        assert_eq!(r.next_line(&mut out).expect("read"), LineStatus::TooLong);
        assert_eq!(r.next_line(&mut out).expect("read"), LineStatus::Eof);
    }

    #[test]
    fn line_reader_resumes_after_interrupted_reads() {
        // A reader that yields one byte per fill_buf call exercises the
        // accumulate-across-calls path (as a socket trickling bytes would).
        struct OneByte<'a>(&'a [u8]);
        impl std::io::Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Ok(0);
                }
                buf[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }
        let reader = std::io::BufReader::with_capacity(1, OneByte(b"TOPK 12\nSTATS\n"));
        let mut r = LineReader::new(reader, 64);
        let mut out = Vec::new();
        assert_eq!(r.next_line(&mut out).expect("read"), LineStatus::Line);
        assert_eq!(out, b"TOPK 12");
        assert_eq!(r.next_line(&mut out).expect("read"), LineStatus::Line);
        assert_eq!(out, b"STATS");
        assert_eq!(r.next_line(&mut out).expect("read"), LineStatus::Eof);
    }
}
