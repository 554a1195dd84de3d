//! Library half of the `freesketch` CLI: argument parsing, edge-file
//! input, and the five subcommands, all testable without a process spawn.
//!
//! Input formats (detected from each input's first bytes, both streamed
//! chunk-at-a-time in bounded memory and read once, so an input may be a
//! pipe; only `track` reads its input twice and needs a regular file):
//!
//! * **TSV** — one edge per line, `user <whitespace> item`, `#` comments
//!   and blank lines ignored. Identifiers may be arbitrary strings — they
//!   are hashed to `u64` with xxhash64, so IP addresses, URLs and numeric
//!   ids all work unmodified ([`graphstream::tsv`] holds the reader).
//! * **fedge** — the binary format of [`graphstream::fedge`]; the
//!   `convert` subcommand writes it from TSV.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod commands;
mod input;
pub mod protocol;
pub mod serve;

pub use args::{Cli, Command, ParseError, USAGE};
pub use commands::run;
pub use input::{open_source, InputFormat, NotRegularFile};
pub use serve::{ServeConfig, ServeError, ServeReport, ServerHandle};
