//! `fedge` — the freesketch binary edge format.
//!
//! Multi-GB traces parsed from TSV over and over waste most of their ingest
//! time in `split_whitespace` and string hashing. `fedge` stores the edge
//! stream post-hash: an 8-byte header (magic `FEDG`, version `u16`,
//! reserved `u16`) followed by fixed 16-byte little-endian records
//! `(user: u64, item: u64)` in arrival order. Fixed records make the format
//! seekable, cheap to validate (any trailing partial record is corruption,
//! not silence) and decodable at memory bandwidth.
//!
//! [`FedgeWriter`] encodes, [`FedgeReader`] decodes and implements
//! [`EdgeSource`], so readers hand the stream to the
//! estimators chunk-at-a-time without ever materializing the trace.

use crate::source::{EdgeSource, EdgeStreamError};
use crate::Edge;
use std::io::{Read, Write};

/// File magic: the first four bytes of every `fedge` file.
pub const FEDGE_MAGIC: [u8; 4] = *b"FEDG";

/// Current (and only) format version.
pub const FEDGE_VERSION: u16 = 1;

/// Header length: magic + version (`u16` LE) + reserved (`u16`, zero).
pub const FEDGE_HEADER_LEN: usize = 8;

/// Length of one `(user, item)` record: two little-endian `u64`s.
pub const FEDGE_RECORD_LEN: usize = 16;

/// Typed decode/IO failures. Corrupt input always surfaces as one of these —
/// never a panic, and never a silently dropped file tail.
#[derive(Debug)]
pub enum FedgeError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The first four bytes are not [`FEDGE_MAGIC`].
    BadMagic {
        /// The bytes actually found (zero-padded if the file is shorter).
        found: [u8; 4],
    },
    /// The header carries a version this build does not understand.
    UnsupportedVersion {
        /// The version actually found.
        found: u16,
    },
    /// EOF inside the 8-byte header.
    TruncatedHeader {
        /// How many header bytes were present.
        len: usize,
    },
    /// EOF in the middle of a 16-byte record.
    TruncatedRecord {
        /// 0-based index of the partial record.
        record: u64,
        /// How many of its bytes were present.
        len: usize,
    },
}

impl FedgeError {
    /// Byte offset into the file where the corruption was detected, when
    /// the error pins one down — operators can `dd`/hex-dump straight to
    /// the damage. `Io` errors carry no position.
    #[must_use]
    pub fn byte_offset(&self) -> Option<u64> {
        match self {
            Self::Io(_) => None,
            Self::BadMagic { .. } => Some(0),
            Self::UnsupportedVersion { .. } => Some(4),
            Self::TruncatedHeader { len } => Some(*len as u64),
            Self::TruncatedRecord { record, len } => {
                Some(FEDGE_HEADER_LEN as u64 + record * FEDGE_RECORD_LEN as u64 + *len as u64)
            }
        }
    }
}

impl std::fmt::Display for FedgeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "I/O error: {e}"),
            Self::BadMagic { found } => {
                write!(
                    f,
                    "not a fedge file: magic {found:02x?} != {FEDGE_MAGIC:02x?}"
                )
            }
            Self::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported fedge version {found} (this build reads {FEDGE_VERSION})"
                )
            }
            Self::TruncatedHeader { len } => {
                write!(
                    f,
                    "truncated fedge header: {len} of {FEDGE_HEADER_LEN} bytes"
                )
            }
            Self::TruncatedRecord { record, len } => write!(
                f,
                "truncated fedge record {record}: {len} of {FEDGE_RECORD_LEN} bytes \
                 (corrupt tail at byte offset {})",
                FEDGE_HEADER_LEN as u64 + record * FEDGE_RECORD_LEN as u64 + *len as u64,
            ),
        }
    }
}

impl std::error::Error for FedgeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FedgeError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Encodes one edge as its 16-byte record.
#[must_use]
pub fn encode_record(e: Edge) -> [u8; FEDGE_RECORD_LEN] {
    let mut rec = [0u8; FEDGE_RECORD_LEN];
    rec[..8].copy_from_slice(&e.user.to_le_bytes());
    rec[8..].copy_from_slice(&e.item.to_le_bytes());
    rec
}

/// Decodes one 16-byte record back into an edge.
#[must_use]
pub fn decode_record(rec: &[u8; FEDGE_RECORD_LEN]) -> Edge {
    let mut half = [0u8; 8];
    half.copy_from_slice(&rec[..8]);
    let user = u64::from_le_bytes(half);
    half.copy_from_slice(&rec[8..]);
    let item = u64::from_le_bytes(half);
    Edge::new(user, item)
}

/// Whether a file prefix (up to [`FEDGE_HEADER_LEN`] bytes) looks like a
/// `fedge` header. Used for format auto-detection.
///
/// The magic alone is not enough: a TSV trace whose first user id starts
/// with `FEDG` must not be misread as binary. So beyond the magic, the
/// version's high byte and the reserved bytes must be zero — NUL bytes
/// that cannot occur in a text line. A magic-matching prefix shorter than
/// the header is claimed as `fedge` so the reader reports the typed
/// truncation instead of a baffling parse error.
#[must_use]
pub fn is_fedge_prefix(prefix: &[u8]) -> bool {
    if prefix.len() < FEDGE_MAGIC.len() || prefix[..FEDGE_MAGIC.len()] != FEDGE_MAGIC {
        return false;
    }
    prefix.len() < FEDGE_HEADER_LEN || prefix[5..8] == [0, 0, 0]
}

/// Streaming `fedge` encoder: writes the header up front, then one record
/// per edge. Wrap the sink in a `BufWriter` for file output.
#[derive(Debug)]
pub struct FedgeWriter<W: Write> {
    inner: W,
    records: u64,
}

impl<W: Write> FedgeWriter<W> {
    /// Writes the header and returns the encoder.
    ///
    /// # Errors
    /// Propagates sink I/O errors.
    pub fn new(mut inner: W) -> std::io::Result<Self> {
        let mut header = [0u8; FEDGE_HEADER_LEN];
        header[..4].copy_from_slice(&FEDGE_MAGIC);
        header[4..6].copy_from_slice(&FEDGE_VERSION.to_le_bytes());
        inner.write_all(&header)?;
        Ok(Self { inner, records: 0 })
    }

    /// Appends one edge record.
    ///
    /// # Errors
    /// Propagates sink I/O errors.
    pub fn write_edge(&mut self, e: Edge) -> std::io::Result<()> {
        self.inner.write_all(&encode_record(e))?;
        self.records += 1;
        Ok(())
    }

    /// Appends a slice of edges in order.
    ///
    /// # Errors
    /// Propagates sink I/O errors.
    pub fn write_edges(&mut self, edges: &[Edge]) -> std::io::Result<()> {
        for &e in edges {
            self.write_edge(e)?;
        }
        Ok(())
    }

    /// Records written so far.
    #[must_use]
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// Flushes and returns the sink.
    ///
    /// # Errors
    /// Propagates sink I/O errors.
    pub fn finish(mut self) -> std::io::Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Streaming `fedge` decoder: validates the header on construction, then
/// yields edges chunk-at-a-time through [`EdgeSource`]. Peak memory is
/// O(chunk) regardless of file size.
#[derive(Debug)]
pub struct FedgeReader<R: Read> {
    inner: R,
    /// Raw byte staging area, reused across chunks.
    raw: Vec<u8>,
    records_read: u64,
}

impl<R: Read> FedgeReader<R> {
    /// Reads and validates the header.
    ///
    /// # Errors
    /// [`FedgeError::TruncatedHeader`], [`FedgeError::BadMagic`],
    /// [`FedgeError::UnsupportedVersion`], or an I/O error.
    pub fn new(mut inner: R) -> Result<Self, FedgeError> {
        let mut header = [0u8; FEDGE_HEADER_LEN];
        let got = read_up_to(&mut inner, &mut header)?;
        // Wrong magic outranks truncation: a short prefix of some other
        // format is "not a fedge file", not a damaged one.
        if got >= FEDGE_MAGIC.len() {
            let mut found = [0u8; 4];
            found.copy_from_slice(&header[..4]);
            if found != FEDGE_MAGIC {
                return Err(FedgeError::BadMagic { found });
            }
        }
        if got < FEDGE_HEADER_LEN {
            return Err(FedgeError::TruncatedHeader { len: got });
        }
        let version = u16::from_le_bytes([header[4], header[5]]);
        if version != FEDGE_VERSION {
            return Err(FedgeError::UnsupportedVersion { found: version });
        }
        Ok(Self {
            inner,
            raw: Vec::new(),
            records_read: 0,
        })
    }

    /// Records decoded so far.
    #[must_use]
    pub fn records_read(&self) -> u64 {
        self.records_read
    }

    /// Reads up to `max` records into `buf` (cleared first); `Ok(0)` = EOF.
    ///
    /// # Errors
    /// [`FedgeError::TruncatedRecord`] when EOF lands mid-record, or I/O.
    pub fn read_chunk(&mut self, buf: &mut Vec<Edge>, max: usize) -> Result<usize, FedgeError> {
        buf.clear();
        // Clamp so `max * FEDGE_RECORD_LEN` cannot overflow the byte
        // buffer's capacity on absurd chunk requests.
        let max = max.clamp(1, isize::MAX as usize / (2 * FEDGE_RECORD_LEN));
        self.raw.resize(max * FEDGE_RECORD_LEN, 0);
        let got = read_up_to(&mut self.inner, &mut self.raw)?;
        let whole = got / FEDGE_RECORD_LEN;
        let partial = got % FEDGE_RECORD_LEN;
        if partial != 0 {
            return Err(FedgeError::TruncatedRecord {
                record: self.records_read + whole as u64,
                len: partial,
            });
        }
        buf.reserve(whole);
        for rec in self.raw[..got].chunks_exact(FEDGE_RECORD_LEN) {
            let mut fixed = [0u8; FEDGE_RECORD_LEN];
            fixed.copy_from_slice(rec);
            buf.push(decode_record(&fixed));
        }
        self.records_read += whole as u64;
        Ok(whole)
    }
}

impl<R: Read> EdgeSource for FedgeReader<R> {
    fn next_chunk(&mut self, buf: &mut Vec<Edge>, max: usize) -> Result<usize, EdgeStreamError> {
        Ok(self.read_chunk(buf, max)?)
    }
}

/// Fills as much of `buf` as the reader can provide (EOF-tolerant
/// `read_exact`): loops over short reads, returns bytes read.
fn read_up_to<R: Read>(reader: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode_stream(edges: &[Edge]) -> Vec<u8> {
        let mut w = FedgeWriter::new(Vec::new()).expect("header");
        w.write_edges(edges).expect("records");
        w.finish().expect("flush")
    }

    fn decode_stream(bytes: &[u8], chunk: usize) -> Result<Vec<Edge>, FedgeError> {
        let mut r = FedgeReader::new(bytes)?;
        let mut out = Vec::new();
        let mut buf = Vec::new();
        loop {
            let n = r.read_chunk(&mut buf, chunk)?;
            if n == 0 {
                return Ok(out);
            }
            out.extend_from_slice(&buf);
        }
    }

    #[test]
    fn roundtrip_preserves_order_and_values() {
        let edges: Vec<Edge> = (0..1000u64)
            .map(|i| Edge::new(i.wrapping_mul(0x9E37), u64::MAX - i))
            .collect();
        let bytes = encode_stream(&edges);
        assert_eq!(
            bytes.len(),
            FEDGE_HEADER_LEN + edges.len() * FEDGE_RECORD_LEN
        );
        for chunk in [1, 7, 64, 4096] {
            assert_eq!(decode_stream(&bytes, chunk).expect("decode"), edges);
        }
    }

    #[test]
    fn empty_stream_roundtrips() {
        let bytes = encode_stream(&[]);
        assert_eq!(bytes.len(), FEDGE_HEADER_LEN);
        assert!(decode_stream(&bytes, 128).expect("decode").is_empty());
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = encode_stream(&[Edge::new(1, 2)]);
        bytes[0] = b'X';
        match FedgeReader::new(&bytes[..]).expect_err("must fail") {
            FedgeError::BadMagic { found } => assert_eq!(found, *b"XEDG"),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn wrong_version_is_typed() {
        let mut bytes = encode_stream(&[Edge::new(1, 2)]);
        bytes[4] = 0xFF;
        bytes[5] = 0x7F;
        match FedgeReader::new(&bytes[..]).expect_err("must fail") {
            FedgeError::UnsupportedVersion { found } => assert_eq!(found, 0x7FFF),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn truncated_header_is_typed() {
        let bytes = encode_stream(&[]);
        for len in 0..FEDGE_HEADER_LEN {
            match FedgeReader::new(&bytes[..len]).expect_err("must fail") {
                FedgeError::TruncatedHeader { len: got } => assert_eq!(got, len),
                other => panic!("len {len}: wrong error: {other}"),
            }
        }
    }

    #[test]
    fn mid_record_eof_is_typed_never_dropped() {
        let edges: Vec<Edge> = (0..10u64).map(|i| Edge::new(i, i + 100)).collect();
        let bytes = encode_stream(&edges);
        // Cut the file inside record 7 (1..15 bytes of it present).
        for cut in 1..FEDGE_RECORD_LEN {
            let end = FEDGE_HEADER_LEN + 7 * FEDGE_RECORD_LEN + cut;
            let err = decode_stream(&bytes[..end], 4).expect_err("must fail");
            match &err {
                FedgeError::TruncatedRecord { record, len } => {
                    assert_eq!(*record, 7, "cut {cut}");
                    assert_eq!(*len, cut, "cut {cut}");
                    // The reported byte offset is exactly where the file
                    // was cut, and the message localizes the damage.
                    assert_eq!(err.byte_offset(), Some(end as u64), "cut {cut}");
                    assert!(
                        err.to_string().contains(&format!("byte offset {end}")),
                        "cut {cut}: {err}"
                    );
                }
                other => panic!("cut {cut}: wrong error: {other}"),
            }
        }
    }

    #[test]
    fn byte_offsets_localize_header_damage() {
        let bytes = encode_stream(&[Edge::new(1, 2)]);
        let mut bad = bytes.clone();
        bad[0] = b'X';
        let err = FedgeReader::new(&bad[..]).expect_err("bad magic");
        assert_eq!(err.byte_offset(), Some(0));
        let mut skew = bytes.clone();
        skew[4] = 9;
        let err = FedgeReader::new(&skew[..]).expect_err("version skew");
        assert_eq!(err.byte_offset(), Some(4));
        let err = FedgeReader::new(&bytes[..5]).expect_err("short header");
        assert_eq!(err.byte_offset(), Some(5));
        assert_eq!(
            FedgeError::Io(std::io::Error::other("x")).byte_offset(),
            None
        );
    }

    #[test]
    fn record_codec_is_little_endian() {
        let rec = encode_record(Edge::new(0x0102_0304_0506_0708, 1));
        assert_eq!(rec[0], 0x08, "user LSB first");
        assert_eq!(rec[8], 0x01, "item LSB first");
        assert_eq!(decode_record(&rec), Edge::new(0x0102_0304_0506_0708, 1));
    }

    #[test]
    fn prefix_detection() {
        let real = encode_stream(&[Edge::new(1, 2)]);
        assert!(is_fedge_prefix(&real[..FEDGE_HEADER_LEN]));
        // Magic-matching but header-truncated prefixes are claimed so the
        // reader can report the typed truncation.
        assert!(is_fedge_prefix(&FEDGE_MAGIC));
        assert!(is_fedge_prefix(b"FEDG\x01"));
        // Text that merely starts with the magic letters is not fedge:
        // the version/reserved bytes would have to be NULs.
        assert!(!is_fedge_prefix(b"FEDGxxxx"));
        assert!(!is_fedge_prefix(b"FEDGE-host1 item1\n"));
        assert!(!is_fedge_prefix(b"FED"));
        assert!(!is_fedge_prefix(b"# comment\n"));
        assert!(!is_fedge_prefix(b""));
    }
}
