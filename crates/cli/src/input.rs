//! Edge-file input for the CLI: the [`open_source`] entry point that
//! opens a trace once, detects its format and hands every command a
//! bounded-memory [`EdgeSource`] reader.
//!
//! The readers themselves live in `graphstream` ([`TsvEdgeSource`] for
//! text, [`FedgeReader`] for binary) — command paths never materialize a
//! trace; peak resident edge memory is O(chunk) regardless of file size.
//! The input is read front to back exactly once, so a pipe, a FIFO or a
//! process substitution (`<(zcat trace.tsv.gz)`) works like a file.

use graphstream::fedge::{is_fedge_prefix, FEDGE_HEADER_LEN};
use graphstream::{EdgeSource, FedgeReader, TsvEdgeSource};
use std::io::{Cursor, Read};

/// Hashes a string identifier into the u64 id space (the fixed-seed
/// xxhash64 every TSV read uses).
pub(crate) use graphstream::tsv::hash_id;

/// The two on-disk trace formats the CLI understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputFormat {
    /// Whitespace-separated `user item` text lines.
    Tsv,
    /// The binary `fedge` format (see [`graphstream::fedge`]).
    Fedge,
}

/// Opens a trace for streaming: reads its first [`FEDGE_HEADER_LEN`] bytes
/// (fewer if it is shorter), decides the format from them — `fedge` if
/// they look like its header ([`is_fedge_prefix`]: a text line that merely
/// starts with the magic letters does not), TSV otherwise — and returns
/// the matching bounded-memory reader over those bytes followed by the
/// rest of the input. Nothing is read twice, so the input may be a pipe.
///
/// # Errors
/// Open and read failures are reported with the path; a corrupt `fedge`
/// header surfaces as its typed [`graphstream::FedgeError`].
pub fn open_source(
    path: &str,
) -> Result<(Box<dyn EdgeSource + Send>, InputFormat), Box<dyn std::error::Error>> {
    let cannot_open = |e: std::io::Error| format!("cannot open `{path}`: {e}");
    let mut file = std::fs::File::open(path).map_err(cannot_open)?;
    let mut head = Vec::with_capacity(FEDGE_HEADER_LEN);
    (&mut file)
        .take(FEDGE_HEADER_LEN as u64)
        .read_to_end(&mut head)
        .map_err(cannot_open)?;
    let format = if is_fedge_prefix(&head) {
        InputFormat::Fedge
    } else {
        InputFormat::Tsv
    };
    let reader = std::io::BufReader::new(Cursor::new(head).chain(file));
    // `+ Send` so the serve daemon can hand the reader to a writer thread;
    // both concrete readers are plain owned state over a `File`.
    let source: Box<dyn EdgeSource + Send> = match format {
        InputFormat::Tsv => Box::new(TsvEdgeSource::new(reader)),
        InputFormat::Fedge => Box::new(FedgeReader::new(reader)?),
    };
    Ok((source, format))
}

/// A command that reads its input twice (`track`: once to count it, once
/// to replay it) was given something other than a regular file. A pipe
/// or FIFO is read once; its second pass would find no edges.
#[derive(Debug, PartialEq, Eq)]
pub struct NotRegularFile {
    /// The rejected input path.
    pub path: String,
}

impl std::fmt::Display for NotRegularFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "`{}` is not a regular file (track reads its input twice)",
            self.path
        )
    }
}

impl std::error::Error for NotRegularFile {}

#[cfg(test)]
mod tests {
    use super::*;
    use graphstream::Edge;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("freesketch-input-{}-{tag}", std::process::id()));
        p
    }

    fn drain(src: &mut dyn EdgeSource) -> Vec<Edge> {
        let mut all = Vec::new();
        let mut buf = Vec::new();
        while src.next_chunk(&mut buf, 16).expect("clean") > 0 {
            all.extend_from_slice(&buf);
        }
        all
    }

    fn fedge_bytes(edges: &[Edge]) -> Vec<u8> {
        let mut w = graphstream::FedgeWriter::new(Vec::new()).expect("header");
        w.write_edges(edges).expect("records");
        w.finish().expect("flush")
    }

    #[test]
    fn format_detection_and_open() {
        let tsv = temp_path("detect.tsv");
        std::fs::write(&tsv, "alice item1\nbob item2\n").expect("write");
        let fedge = temp_path("detect.fedge");
        std::fs::write(&fedge, fedge_bytes(&[Edge::new(1, 2)])).expect("write");
        // Short and empty files are TSV (and parse to empty streams).
        let empty = temp_path("detect.empty");
        std::fs::write(&empty, "").expect("write");
        // A text trace whose first id starts with the magic letters must
        // stay TSV — the regression the reserved-byte check prevents.
        let tricky = temp_path("detect.tricky");
        std::fs::write(&tricky, "FEDGE-host1 item1\nFEDGE-host1 item2\n").expect("write");

        for (path, want_fmt, want_edges) in [
            (&tsv, InputFormat::Tsv, 2usize),
            (&fedge, InputFormat::Fedge, 1),
            (&empty, InputFormat::Tsv, 0),
            (&tricky, InputFormat::Tsv, 2),
        ] {
            let (mut src, fmt) = open_source(path.to_str().expect("utf8")).expect("open");
            assert_eq!(fmt, want_fmt, "{path:?}");
            assert_eq!(drain(src.as_mut()).len(), want_edges, "{path:?}");
        }

        for p in [tsv, fedge, empty, tricky] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn open_source_reads_every_edge_through_a_pipe() {
        // The bytes format detection reads must reach the reader: a pipe
        // cannot be reopened or rewound.
        let edges = [Edge::new(7, 8), Edge::new(9, 10)];
        for (bytes, want) in [
            // The first line is exactly the 8 header bytes.
            (b"abc def\nxyz uvw\n".to_vec(), ("abc", "def", "xyz", "uvw")),
            (b"abcdefgh ij\nk l\n".to_vec(), ("abcdefgh", "ij", "k", "l")),
        ] {
            let got = read_through_pipe(bytes);
            let want = vec![
                Edge::new(hash_id(want.0), hash_id(want.1)),
                Edge::new(hash_id(want.2), hash_id(want.3)),
            ];
            assert_eq!(got, (InputFormat::Tsv, want));
        }
        assert_eq!(
            read_through_pipe(fedge_bytes(&edges)),
            (InputFormat::Fedge, edges.to_vec())
        );
    }

    /// Writes `bytes` into an anonymous pipe from another thread and
    /// streams the read end through [`open_source`].
    fn read_through_pipe(bytes: Vec<u8>) -> (InputFormat, Vec<Edge>) {
        use std::io::Write;
        use std::os::fd::AsRawFd;
        let (reader, mut writer) = std::io::pipe().expect("pipe");
        let feeder = std::thread::spawn(move || writer.write_all(&bytes).expect("feed"));
        let path = format!("/dev/fd/{}", reader.as_raw_fd());
        let (mut src, format) = open_source(&path).expect("open pipe");
        let edges = drain(src.as_mut());
        feeder.join().expect("feeder");
        (format, edges)
    }

    #[test]
    fn open_source_missing_file_mentions_path() {
        let Err(err) = open_source("/definitely/not/here.tsv") else {
            panic!("must fail")
        };
        assert!(err.to_string().contains("cannot open"));
        assert!(err.to_string().contains("/definitely/not/here.tsv"));
    }

    #[test]
    fn open_source_corrupt_fedge_header_is_typed() {
        // Correct magic but truncated header: detection says fedge, the
        // reader then reports the typed truncation instead of panicking.
        let p = temp_path("corrupt.fedge");
        std::fs::write(&p, b"FEDG\x01").expect("write");
        let Err(err) = open_source(p.to_str().expect("utf8")) else {
            panic!("must fail")
        };
        assert!(err.to_string().contains("truncated fedge header"), "{err}");
        std::fs::remove_file(p).ok();
    }
}
