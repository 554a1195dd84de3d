//! Streaming TSV edge reader: `user <ws> item` lines, string ids hashed
//! to `u64`.
//!
//! The text twin of [`fedge`](crate::fedge): identifiers may be arbitrary
//! strings (IP addresses, URLs, numeric ids) — they are hashed with
//! xxhash64 under a fixed seed, so the same file always produces the same
//! edge stream across runs and machines. [`TsvEdgeSource`] implements
//! [`EdgeSource`], yielding chunk-at-a-time in bounded memory.

use crate::source::{EdgeSource, EdgeStreamError};
use crate::Edge;
use hashkit::xxhash64;
use std::io::{BufRead, Read};

/// Seed for hashing string identifiers to `u64`. Fixed forever: changing
/// it would silently disconnect TSV traces from their `fedge` re-encodes.
pub const ID_SEED: u64 = 0x1D_5EED;

/// Longest accepted TSV line, its `\n` included: 1 MiB. A line that has
/// not ended within this many bytes fails as
/// [`EdgeStreamError::LineTooLong`] and the rest of it is never read, so
/// a file without line ends cannot grow the reader's line buffer past
/// this bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Longest slice of an offending line quoted in a
/// [`EdgeStreamError::Malformed`] message. A malformed multi-MB line must
/// not balloon the error.
const MALFORMED_CONTENT_MAX: usize = 80;

/// Hashes a string identifier into the u64 id space.
#[must_use]
pub fn hash_id(id: &str) -> u64 {
    xxhash64(ID_SEED, id.as_bytes())
}

/// Truncates error-message content to [`MALFORMED_CONTENT_MAX`]
/// characters, marking the cut with `…`.
fn truncate_content(s: &str) -> String {
    let mut out: String = s.chars().take(MALFORMED_CONTENT_MAX).collect();
    if s.chars().nth(MALFORMED_CONTENT_MAX).is_some() {
        out.push('…');
    }
    out
}

/// Parses one line into an edge; `None` for blanks and `#` comments.
///
/// # Errors
/// [`EdgeStreamError::Malformed`] when the line has fewer than two fields
/// (the quoted content is truncated to at most 80 characters).
fn parse_edge_line(line: &str, line_no: usize) -> Result<Option<Edge>, EdgeStreamError> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let mut fields = trimmed.split_whitespace();
    let (Some(user), Some(item)) = (fields.next(), fields.next()) else {
        return Err(EdgeStreamError::Malformed {
            line: line_no,
            content: truncate_content(trimmed),
        });
    };
    Ok(Some(Edge::new(hash_id(user), hash_id(item))))
}

/// Streaming TSV reader: one reused line buffer of at most
/// [`MAX_LINE_BYTES`], edges yielded chunk-at-a-time through
/// [`EdgeSource`].
#[derive(Debug)]
pub struct TsvEdgeSource<R: BufRead> {
    reader: R,
    line: Vec<u8>,
    line_no: usize,
}

impl<R: BufRead> TsvEdgeSource<R> {
    /// A source over any buffered reader (file, stdin, in-memory bytes).
    pub fn new(reader: R) -> Self {
        Self {
            reader,
            line: Vec::new(),
            line_no: 0,
        }
    }

    /// Lines consumed so far (including comments and blanks).
    #[must_use]
    pub fn lines_read(&self) -> usize {
        self.line_no
    }
}

impl<R: BufRead> EdgeSource for TsvEdgeSource<R> {
    fn next_chunk(&mut self, buf: &mut Vec<Edge>, max: usize) -> Result<usize, EdgeStreamError> {
        buf.clear();
        let max = max.max(1);
        while buf.len() < max {
            self.line.clear();
            let n = (&mut self.reader)
                .take(MAX_LINE_BYTES as u64)
                .read_until(b'\n', &mut self.line)?;
            if n == 0 {
                break;
            }
            self.line_no += 1;
            if n == MAX_LINE_BYTES && self.line.last() != Some(&b'\n') {
                return Err(EdgeStreamError::LineTooLong {
                    line: self.line_no,
                    max: MAX_LINE_BYTES,
                });
            }
            let text = std::str::from_utf8(&self.line)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            if let Some(edge) = parse_edge_line(text, self.line_no)? {
                buf.push(edge);
            }
        }
        Ok(buf.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every edge of `data`, read through [`TsvEdgeSource`] in chunks of
    /// 4,096 edges.
    fn read_all(data: &[u8]) -> Result<Vec<Edge>, EdgeStreamError> {
        let mut src = TsvEdgeSource::new(data);
        let mut edges = Vec::new();
        let mut buf = Vec::new();
        while src.next_chunk(&mut buf, 4096)? > 0 {
            edges.extend_from_slice(&buf);
        }
        Ok(edges)
    }

    #[test]
    fn parses_pairs_and_skips_noise() {
        let data = "\
# comment
10.0.0.1 example.com

10.0.0.1 example.org
10.0.0.2\texample.com
";
        let edges = read_all(data.as_bytes()).expect("parse");
        assert_eq!(edges.len(), 3);
        assert_eq!(edges[0].user, edges[1].user, "same user hashes equally");
        assert_ne!(edges[0].item, edges[1].item);
        assert_eq!(edges[0].item, edges[2].item, "same item hashes equally");
    }

    #[test]
    fn extra_fields_are_ignored() {
        let e = parse_edge_line("alice item42 extra stuff", 1)
            .expect("parse")
            .expect("edge");
        assert_eq!(e.user, hash_id("alice"));
        assert_eq!(e.item, hash_id("item42"));
    }

    #[test]
    fn malformed_line_reports_position() {
        let err = read_all(b"a b\nonly_one_field\n").unwrap_err();
        match err {
            EdgeStreamError::Malformed { line, content } => {
                assert_eq!(line, 2);
                assert_eq!(content, "only_one_field");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn malformed_huge_line_is_truncated_in_error() {
        // A malformed line of half a MiB must not be copied wholesale into
        // the error message.
        let huge = "x".repeat(MAX_LINE_BYTES / 2);
        let err = read_all(huge.as_bytes()).unwrap_err();
        match &err {
            EdgeStreamError::Malformed { line, content } => {
                assert_eq!(*line, 1);
                assert_eq!(content.chars().count(), MALFORMED_CONTENT_MAX + 1);
                assert!(content.ends_with('…'), "cut must be marked: {content}");
                assert!(content.starts_with("xxx"));
                assert!(err.to_string().len() < 200, "message stayed small");
            }
            other => panic!("wrong error: {other}"),
        }
        // Exactly at the limit: kept whole, no marker.
        let exact = "y".repeat(MALFORMED_CONTENT_MAX);
        match read_all(exact.as_bytes()).unwrap_err() {
            EdgeStreamError::Malformed { content, .. } => {
                assert_eq!(content, exact);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn a_line_without_an_end_fails_typed_within_the_cap() {
        /// 2 MiB of `x` and no newline, counting the bytes handed out.
        struct Endless {
            left: usize,
            read: std::rc::Rc<std::cell::Cell<usize>>,
        }
        impl Read for Endless {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                let n = out.len().min(self.left);
                out[..n].fill(b'x');
                self.left -= n;
                self.read.set(self.read.get() + n);
                Ok(n)
            }
        }
        let read = std::rc::Rc::default();
        let reader = std::io::BufReader::new(Endless {
            left: 2 * MAX_LINE_BYTES,
            read: std::rc::Rc::clone(&read),
        });
        let mut src = TsvEdgeSource::new(reader);
        let mut buf = Vec::new();
        match src.next_chunk(&mut buf, 16).expect_err("must fail") {
            EdgeStreamError::LineTooLong { line, max } => {
                assert_eq!((line, max), (1, MAX_LINE_BYTES));
            }
            other => panic!("wrong error: {other}"),
        }
        assert!(
            src.line.capacity() <= MAX_LINE_BYTES,
            "{}",
            src.line.capacity()
        );
        assert!(
            read.get() <= MAX_LINE_BYTES + 8192,
            "read {} bytes: the rest of the line was buffered",
            read.get()
        );
        // One byte under the cap, newline included, is still a line.
        let mut ok = "a ".to_string() + &"b".repeat(MAX_LINE_BYTES - 3);
        ok.push('\n');
        assert_eq!(ok.len(), MAX_LINE_BYTES);
        assert_eq!(read_all(ok.as_bytes()).expect("at the cap").len(), 1);
    }

    #[test]
    fn invalid_utf8_is_an_io_error() {
        let err = read_all(b"a b\n\xff c\n").unwrap_err();
        assert!(
            matches!(&err, EdgeStreamError::Io(e) if e.kind() == std::io::ErrorKind::InvalidData),
            "{err}"
        );
    }

    #[test]
    fn deterministic_hashing() {
        assert_eq!(hash_id("198.51.100.7"), hash_id("198.51.100.7"));
        assert_ne!(hash_id("a"), hash_id("b"));
    }

    #[test]
    fn empty_input_is_empty_stream() {
        assert!(read_all(b"").expect("parse").is_empty());
        assert!(read_all(b"# only comments\n").expect("parse").is_empty());
    }

    #[test]
    fn source_yields_the_same_edges_at_every_chunk_size() {
        let mut data = String::from("# header\n");
        for i in 0..100 {
            data.push_str(&format!("user{} item{}\n", i % 7, i));
        }
        let expected = read_all(data.as_bytes()).expect("parse");
        for chunk in [1usize, 3, 64, 1000] {
            let mut src = TsvEdgeSource::new(data.as_bytes());
            let mut buf = Vec::new();
            let mut out = Vec::new();
            loop {
                let n = src.next_chunk(&mut buf, chunk).expect("clean");
                assert!(n <= chunk);
                if n == 0 {
                    break;
                }
                out.extend_from_slice(&buf);
            }
            assert_eq!(out, expected, "chunk {chunk}");
            assert_eq!(src.lines_read(), 101);
        }
    }

    #[test]
    fn source_surfaces_malformed_with_line_number() {
        let data = "a b\nc d\nbroken\n";
        let mut src = TsvEdgeSource::new(data.as_bytes());
        let mut buf = Vec::new();
        let err = src.next_chunk(&mut buf, 100).expect_err("must fail");
        match err {
            EdgeStreamError::Malformed { line, content } => {
                assert_eq!(line, 3);
                assert_eq!(content, "broken");
            }
            other => panic!("wrong error: {other}"),
        }
    }
}
