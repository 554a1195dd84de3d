//! `EdgeSource` — the bounded-memory streaming seam.
//!
//! A source yields the stream chunk-at-a-time into a caller-owned buffer,
//! so every consumer (the estimators' batched ingest, the CLI, the replay
//! harnesses) runs in O(chunk) peak memory no matter how large the trace
//! is. Implemented by [`FedgeReader`](crate::FedgeReader) (binary files),
//! [`TsvEdgeSource`](crate::TsvEdgeSource) (text files) and
//! [`SynthStream`](crate::SynthStream) (in-memory replay).

use crate::fedge::FedgeError;
use crate::Edge;

/// A resumable, bounded-buffer producer of stream edges.
///
/// The contract mirrors `Read::read` lifted to edges: each call clears
/// `buf`, appends up to `max` edges in arrival order, and returns how many
/// were appended — `Ok(0)` means the stream is exhausted (and stays
/// exhausted). Errors are not resumable.
pub trait EdgeSource {
    /// Fills `buf` (cleared first) with up to `max` edges; `Ok(0)` = EOF.
    ///
    /// # Errors
    /// An [`EdgeStreamError`] describing the I/O or decode failure.
    fn next_chunk(&mut self, buf: &mut Vec<Edge>, max: usize) -> Result<usize, EdgeStreamError>;

    /// Edges remaining, when the source knows (in-memory replays do;
    /// file readers generally don't).
    fn len_hint(&self) -> Option<u64> {
        None
    }
}

/// Errors an [`EdgeSource`] can surface, unifying the binary decoder's
/// typed failures with text parsing and plain I/O.
#[derive(Debug)]
pub enum EdgeStreamError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Corrupt or unreadable `fedge` input.
    Fedge(FedgeError),
    /// A malformed text line (fewer than two fields).
    Malformed {
        /// 1-based line number.
        line: usize,
        /// The offending content, truncated for display.
        content: String,
    },
    /// A text line that does not end within `max` bytes; the reader
    /// stops there instead of buffering the rest of it.
    LineTooLong {
        /// 1-based line number.
        line: usize,
        /// The cap, [`crate::tsv::MAX_LINE_BYTES`].
        max: usize,
    },
}

impl std::fmt::Display for EdgeStreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "I/O error: {e}"),
            Self::Fedge(e) => write!(f, "{e}"),
            Self::Malformed { line, content } => {
                write!(f, "line {line}: expected `user item`, got `{content}`")
            }
            Self::LineTooLong { line, max } => {
                write!(f, "line {line}: no line end within {max} bytes")
            }
        }
    }
}

impl std::error::Error for EdgeStreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Fedge(e) => Some(e),
            Self::Malformed { .. } | Self::LineTooLong { .. } => None,
        }
    }
}

impl From<std::io::Error> for EdgeStreamError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<FedgeError> for EdgeStreamError {
    fn from(e: FedgeError) -> Self {
        // Don't double-wrap plain I/O failures.
        match e {
            FedgeError::Io(io) => Self::Io(io),
            other => Self::Fedge(other),
        }
    }
}

/// A borrowing source over an in-memory edge slice — the adapter that lets
/// already-loaded data (tests, synthetic streams) flow through the same
/// chunked consumers as file readers.
#[derive(Debug)]
pub struct SliceSource<'a> {
    edges: &'a [Edge],
    pos: usize,
}

impl<'a> SliceSource<'a> {
    /// A source replaying `edges` from the start.
    #[must_use]
    pub fn new(edges: &'a [Edge]) -> Self {
        Self { edges, pos: 0 }
    }
}

impl EdgeSource for SliceSource<'_> {
    fn next_chunk(&mut self, buf: &mut Vec<Edge>, max: usize) -> Result<usize, EdgeStreamError> {
        buf.clear();
        let n = max.max(1).min(self.edges.len() - self.pos);
        buf.extend_from_slice(&self.edges[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }

    fn len_hint(&self) -> Option<u64> {
        Some((self.edges.len() - self.pos) as u64)
    }
}

/// An owning source replaying its edges `passes` times over — sustained
/// ingest for long-running consumers (the serve daemon's writer threads,
/// stress harnesses) without a backing file, and `Send` so it can cross
/// into a writer thread, which the borrowing [`SliceSource`] cannot.
#[derive(Debug, Clone)]
pub struct CycleSource {
    edges: Vec<Edge>,
    passes: u64,
    pass: u64,
    pos: usize,
}

impl CycleSource {
    /// A source yielding `edges` in order, `passes` times end to end.
    /// Zero passes (or no edges) is an immediately-exhausted stream.
    #[must_use]
    pub fn new(edges: Vec<Edge>, passes: u64) -> Self {
        Self {
            edges,
            passes,
            pass: 0,
            pos: 0,
        }
    }
}

impl EdgeSource for CycleSource {
    fn next_chunk(&mut self, buf: &mut Vec<Edge>, max: usize) -> Result<usize, EdgeStreamError> {
        buf.clear();
        let max = max.max(1);
        if self.edges.is_empty() {
            return Ok(0);
        }
        while buf.len() < max && self.pass < self.passes {
            let take = (max - buf.len()).min(self.edges.len() - self.pos);
            buf.extend_from_slice(&self.edges[self.pos..self.pos + take]);
            self.pos += take;
            if self.pos == self.edges.len() {
                self.pos = 0;
                self.pass += 1;
            }
        }
        Ok(buf.len())
    }

    fn len_hint(&self) -> Option<u64> {
        if self.edges.is_empty() || self.pass >= self.passes {
            return Some(0);
        }
        let whole = (self.passes - self.pass - 1) * self.edges.len() as u64;
        Some(whole + (self.edges.len() - self.pos) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_source_replays_exactly_n_passes() {
        let edges: Vec<Edge> = (0..5u64).map(|i| Edge::new(i, i + 100)).collect();
        let mut src = CycleSource::new(edges.clone(), 3);
        assert_eq!(src.len_hint(), Some(15));
        let mut buf = Vec::new();
        let mut out = Vec::new();
        loop {
            // A chunk size that does not divide the stream length, so
            // chunks straddle pass boundaries.
            let n = src.next_chunk(&mut buf, 4).expect("infallible");
            if n == 0 {
                break;
            }
            out.extend_from_slice(&buf);
        }
        assert_eq!(out.len(), 15);
        let want: Vec<Edge> = edges.iter().cycle().take(15).copied().collect();
        assert_eq!(out, want);
        assert_eq!(src.len_hint(), Some(0));
        // Exhausted stays exhausted.
        assert_eq!(src.next_chunk(&mut buf, 4).expect("infallible"), 0);
    }

    #[test]
    fn cycle_source_degenerate_inputs() {
        let mut buf = Vec::new();
        let mut empty = CycleSource::new(Vec::new(), 10);
        assert_eq!(empty.next_chunk(&mut buf, 8).expect("infallible"), 0);
        assert_eq!(empty.len_hint(), Some(0));

        let mut zero_pass = CycleSource::new(vec![Edge::new(1, 2)], 0);
        assert_eq!(zero_pass.next_chunk(&mut buf, 8).expect("infallible"), 0);
        assert_eq!(zero_pass.len_hint(), Some(0));
    }

    #[test]
    fn slice_source_drains_in_chunks() {
        let edges: Vec<Edge> = (0..10u64).map(|i| Edge::new(i, i)).collect();
        let mut src = SliceSource::new(&edges);
        assert_eq!(src.len_hint(), Some(10));
        let mut buf = Vec::new();
        let mut out = Vec::new();
        loop {
            let n = src.next_chunk(&mut buf, 3).expect("infallible");
            if n == 0 {
                break;
            }
            out.extend_from_slice(&buf);
        }
        assert_eq!(out, edges);
        assert_eq!(src.len_hint(), Some(0));
    }

    #[test]
    fn error_display_and_conversion() {
        let e: EdgeStreamError = std::io::Error::other("boom").into();
        assert!(e.to_string().contains("boom"));
        let e: EdgeStreamError = FedgeError::BadMagic { found: *b"NOPE" }.into();
        assert!(matches!(e, EdgeStreamError::Fedge(_)));
        let e: EdgeStreamError = FedgeError::Io(std::io::Error::other("x")).into();
        assert!(matches!(e, EdgeStreamError::Io(_)), "io not double-wrapped");
        let e = EdgeStreamError::Malformed {
            line: 3,
            content: "bad".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }
}
