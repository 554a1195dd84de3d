//! `fsnp` — the checksummed binary container sketch snapshots live in.
//!
//! A snapshot file is a sequence of independently CRC-checked sections:
//!
//! ```text
//! magic "FSNP" (4) | version u16 LE | section count u16 LE      header, 8 B
//! tag (4) | crc32 u32 LE | payload length u64 LE | payload      per section
//! ```
//!
//! The container knows nothing about sketches: sections are `(tag, bytes)`
//! pairs, and the sketch layer (`freesketch::snapshot`) decides that one
//! section holds the config, one the bit/register arrays, one the counter
//! maps — so corruption is localized to a section and reported with its
//! tag. Every decode failure is a typed [`SnapshotError`]; corrupt input
//! must never panic, allocate unboundedly, or round-trip silently wrong
//! (the per-section CRC32 catches torn writes, truncation and bit flips
//! that the fixed-layout parse alone would miss).

use std::io::{Read, Write};

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"FSNP";

/// Current container version. Version 1 wrapped each section in a
/// generic tagged value encoding; version 2 sections are typed
/// fixed-layout payloads; version 3 gives every engine one `CONF` record,
/// so a sharded sketch's shards record their running totals as scalar
/// engines do; version 4 drops the scalar FreeRS record's growth count,
/// so a FreeRS engine records `Z` alone, scalar or shard; version 5 packs
/// a sharded FreeRS's registers in its `ARRY` section as the scalar one's
/// are, across word boundaries (version 4 kept `⌊64/w⌋` whole registers
/// per word). A reader accepts only its own version.
pub const SNAPSHOT_VERSION: u16 = 5;

/// Container header length in bytes: magic + version + section count.
pub const SNAPSHOT_HEADER_LEN: usize = 8;

/// Per-section header length in bytes: tag + CRC32 + payload length.
pub const SECTION_HEADER_LEN: usize = 16;

/// One decoded container section: its 4-byte tag and its payload bytes
/// (CRC already verified by [`read_sections`]).
pub type Section = ([u8; 4], Vec<u8>);

/// Errors reading or writing a snapshot. Every way a snapshot can be
/// corrupt — wrong file, version skew, truncation at any byte offset, bit
/// flips, shape drift, incompatible configurations — maps to a variant
/// here; corrupt input never panics.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic {
        /// The bytes found where the magic should be.
        found: [u8; 4],
    },
    /// The container version is not the one this build reads (older
    /// snapshots are rebuilt by re-running `checkpoint` on the trace).
    UnsupportedVersion {
        /// The version found in the header.
        found: u16,
    },
    /// The file ends inside the 8-byte container header.
    TruncatedHeader {
        /// How many header bytes were present.
        len: usize,
    },
    /// A section's payload (or its 16-byte header) ends early.
    TruncatedSection {
        /// The section's tag (`*` bytes for an unreadable tag).
        tag: [u8; 4],
        /// Bytes the section header promised.
        expected: u64,
        /// Bytes actually present.
        got: u64,
    },
    /// A section's payload does not match its stored CRC32 — a torn
    /// write, bit flip, or silent media error.
    CrcMismatch {
        /// The damaged section's tag.
        tag: [u8; 4],
    },
    /// A section the reader requires is absent.
    MissingSection {
        /// The absent section's tag.
        tag: [u8; 4],
    },
    /// The bytes checksum correctly but do not decode to a valid value
    /// (shape drift, out-of-range field, a count the payload cannot hold).
    Malformed {
        /// What failed to decode.
        detail: String,
    },
    /// Two sketches (or a sketch and the command line) disagree on
    /// configuration — merge and restore refuse rather than mix states.
    ConfigMismatch {
        /// Which parameter disagrees, with both values.
        detail: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "snapshot I/O error: {e}"),
            Self::BadMagic { found } => write!(
                f,
                "not a snapshot file: expected magic {:?} at byte offset 0, found {:?}",
                String::from_utf8_lossy(&SNAPSHOT_MAGIC),
                String::from_utf8_lossy(found),
            ),
            Self::UnsupportedVersion { found } => write!(
                f,
                "unsupported snapshot version {found} (this build reads \
                 {SNAPSHOT_VERSION})"
            ),
            Self::TruncatedHeader { len } => write!(
                f,
                "truncated snapshot header: {len} of {SNAPSHOT_HEADER_LEN} bytes"
            ),
            Self::TruncatedSection { tag, expected, got } => write!(
                f,
                "truncated snapshot section `{}`: {got} of {expected} payload bytes \
                 (file cut mid-section)",
                String::from_utf8_lossy(tag),
            ),
            Self::CrcMismatch { tag } => write!(
                f,
                "checksum mismatch in snapshot section `{}`: payload corrupt \
                 (torn write or bit flip)",
                String::from_utf8_lossy(tag),
            ),
            Self::MissingSection { tag } => write!(
                f,
                "snapshot is missing required section `{}`",
                String::from_utf8_lossy(tag),
            ),
            Self::Malformed { detail } => write!(f, "malformed snapshot: {detail}"),
            Self::ConfigMismatch { detail } => {
                write!(f, "snapshot configuration mismatch: {detail}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the checksum
/// guarding every section payload. Slicing-by-8 over tables built at
/// compile time; matches zlib's `crc32()`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_raw(!0u32, bytes)
}

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` advances the CRC
/// of byte `b` through `k` further zero bytes, so eight lookups fold one
/// 8-byte word. A `static`, not a `const`: an unoptimized build copies an
/// 8 KB `const` at every index.
static TABLES: [[u32; 256]; 8] = crc32_tables();

// Streaming form (pre/post inversion left to the caller) so a section's
// checksum can cover its tag and payload without concatenating them.
fn crc32_raw(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

// A section's checksum covers its 4-byte tag and its payload, so a bit
// flip in the tag is caught the same as one in the payload.
fn section_crc(tag: &[u8; 4], payload: &[u8]) -> u32 {
    !crc32_raw(crc32_raw(!0u32, tag), payload)
}

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut t = 1;
        while t < 8 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            t += 1;
        }
        i += 1;
    }
    tables
}

/// Writes a complete snapshot container: header, then each `(tag,
/// payload)` section with its CRC32.
///
/// # Errors
/// Propagates I/O failures from `w`; there are no other failure modes on
/// the write path.
pub fn write_sections(
    w: &mut dyn Write,
    sections: &[([u8; 4], &[u8])],
) -> Result<(), SnapshotError> {
    let mut header = [0u8; SNAPSHOT_HEADER_LEN];
    header[..4].copy_from_slice(&SNAPSHOT_MAGIC);
    header[4..6].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    let count = u16::try_from(sections.len()).map_err(|_| SnapshotError::Malformed {
        detail: format!("{} sections exceed the u16 section count", sections.len()),
    })?;
    header[6..8].copy_from_slice(&count.to_le_bytes());
    w.write_all(&header)?;
    for (tag, payload) in sections {
        let mut sh = [0u8; SECTION_HEADER_LEN];
        sh[..4].copy_from_slice(tag);
        sh[4..8].copy_from_slice(&section_crc(tag, payload).to_le_bytes());
        sh[8..16].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        w.write_all(&sh)?;
        w.write_all(payload)?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a complete snapshot container, validating the magic, the
/// version, every section's length and every section's CRC32.
///
/// Reads are incremental (`Read::take`), so a corrupt length field on a
/// short file surfaces as [`SnapshotError::TruncatedSection`] — never as
/// an allocation of the claimed size.
///
/// # Errors
/// Any [`SnapshotError`] variant describing where the container is
/// damaged.
pub fn read_sections(r: &mut dyn Read) -> Result<Vec<Section>, SnapshotError> {
    let mut header = [0u8; SNAPSHOT_HEADER_LEN];
    let got = read_up_to(r, &mut header)?;
    if got >= 4 {
        let mut magic = [0u8; 4];
        magic.copy_from_slice(&header[..4]);
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic { found: magic });
        }
    }
    if got < SNAPSHOT_HEADER_LEN {
        return Err(SnapshotError::TruncatedHeader { len: got });
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    let count = u16::from_le_bytes([header[6], header[7]]);
    let mut sections = Vec::with_capacity(usize::from(count));
    for _ in 0..count {
        let mut sh = [0u8; SECTION_HEADER_LEN];
        let got = read_up_to(r, &mut sh)?;
        if got < SECTION_HEADER_LEN {
            let mut tag = *b"****";
            if got >= 4 {
                tag.copy_from_slice(&sh[..4]);
            }
            return Err(SnapshotError::TruncatedSection {
                tag,
                expected: SECTION_HEADER_LEN as u64,
                got: got as u64,
            });
        }
        let mut tag = [0u8; 4];
        tag.copy_from_slice(&sh[..4]);
        let crc = u32::from_le_bytes([sh[4], sh[5], sh[6], sh[7]]);
        let len =
            u64::from_le_bytes([sh[8], sh[9], sh[10], sh[11], sh[12], sh[13], sh[14], sh[15]]);
        // Incremental read via `take`: a bogus multi-terabyte length on a
        // truncated file reads only what exists.
        let mut payload = Vec::new();
        r.take(len).read_to_end(&mut payload)?;
        if (payload.len() as u64) < len {
            return Err(SnapshotError::TruncatedSection {
                tag,
                expected: len,
                got: payload.len() as u64,
            });
        }
        if section_crc(&tag, &payload) != crc {
            return Err(SnapshotError::CrcMismatch { tag });
        }
        sections.push((tag, payload));
    }
    Ok(sections)
}

/// Finds a required section by tag in a read container.
///
/// # Errors
/// [`SnapshotError::MissingSection`] when absent.
pub fn find_section<'a>(sections: &'a [Section], tag: &[u8; 4]) -> Result<&'a [u8], SnapshotError> {
    sections
        .iter()
        .find(|(t, _)| t == tag)
        .map(|(_, p)| p.as_slice())
        .ok_or(SnapshotError::MissingSection { tag: *tag })
}

// Tolerates short reads and interrupts: loops until `buf` is full or EOF,
// returning how many bytes were read (mirrors `fedge::read_up_to`).
fn read_up_to(reader: &mut dyn Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn container(sections: &[([u8; 4], &[u8])]) -> Vec<u8> {
        let mut out = Vec::new();
        write_sections(&mut out, sections).expect("in-memory write");
        out
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check values (same as zlib / `cksum -o 3`).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn slicing_by_8_matches_the_bytewise_crc() {
        let bytewise = |bytes: &[u8]| {
            let mut crc = !0u32;
            for &b in bytes {
                crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
            }
            !crc
        };
        let data: Vec<u8> = (0..300u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "length {len}");
        }
    }

    #[test]
    fn round_trip_preserves_sections() {
        let bytes = container(&[
            (*b"AAAA", b"hello"),
            (*b"BBBB", b""),
            (*b"CCCC", &[0u8; 100]),
        ]);
        let sections = read_sections(&mut bytes.as_slice()).expect("clean read");
        assert_eq!(sections.len(), 3);
        assert_eq!(sections[0], (*b"AAAA", b"hello".to_vec()));
        assert_eq!(sections[1], (*b"BBBB", Vec::new()));
        assert_eq!(sections[2].1.len(), 100);
        assert_eq!(find_section(&sections, b"BBBB").expect("present"), b"");
        assert!(matches!(
            find_section(&sections, b"ZZZZ"),
            Err(SnapshotError::MissingSection { tag }) if &tag == b"ZZZZ"
        ));
    }

    #[test]
    fn bad_magic_is_typed() {
        let err = read_sections(&mut &b"FEDG\x01\x00\x00\x00"[..]).expect_err("bad magic");
        assert!(matches!(err, SnapshotError::BadMagic { found } if &found == b"FEDG"));
        assert!(err.to_string().contains("byte offset 0"), "{err}");
    }

    #[test]
    fn version_skew_is_typed() {
        let mut bytes = container(&[(*b"AAAA", b"x")]);
        bytes[4] = 9; // version 9
        let err = read_sections(&mut bytes.as_slice()).expect_err("version skew");
        assert!(matches!(
            err,
            SnapshotError::UnsupportedVersion { found: 9 }
        ));
        bytes[4] = 1; // the retired value-tree format
        let err = read_sections(&mut bytes.as_slice()).expect_err("old version");
        assert!(matches!(
            err,
            SnapshotError::UnsupportedVersion { found: 1 }
        ));
    }

    #[test]
    fn truncation_at_every_offset_is_typed() {
        // Cutting the container anywhere must yield a typed error — and
        // bad-magic outranks truncation only when the magic bytes are
        // actually wrong.
        let bytes = container(&[(*b"AAAA", b"payload-one"), (*b"BBBB", b"p2")]);
        for cut in 0..bytes.len() {
            let err = read_sections(&mut &bytes[..cut]).expect_err("truncated");
            match (cut, &err) {
                (0..=7, SnapshotError::TruncatedHeader { len }) => assert_eq!(*len, cut),
                (_, SnapshotError::TruncatedSection { .. }) => {}
                other => panic!("cut at {cut}: unexpected {other:?}"),
            }
        }
        // The full container still reads back.
        assert_eq!(
            read_sections(&mut bytes.as_slice()).expect("intact").len(),
            2
        );
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        // Flip each bit of a small container: the reader must return a
        // typed error or (for flips in the unused part of a length/crc
        // field that still parse) never a wrong payload. For payload and
        // CRC bytes specifically, the CRC must catch the flip.
        let bytes = container(&[(*b"AAAA", b"abcdefgh")]);
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut dam = bytes.clone();
                dam[byte] ^= 1 << bit;
                match read_sections(&mut dam.as_slice()) {
                    Err(_) => {}
                    Ok(sections) => {
                        // A flip that still parses cleanly may only be in
                        // the section count dropping sections, never a
                        // silently altered payload.
                        for (tag, payload) in &sections {
                            assert_eq!(tag, b"AAAA");
                            assert_eq!(payload, b"abcdefgh", "byte {byte} bit {bit}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn crc_mismatch_is_typed_and_names_the_section() {
        let mut bytes = container(&[(*b"CONF", b"configuration bytes")]);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40; // flip a payload bit
        let err = read_sections(&mut bytes.as_slice()).expect_err("corrupt");
        assert!(matches!(err, SnapshotError::CrcMismatch { tag } if &tag == b"CONF"));
        assert!(err.to_string().contains("CONF"), "{err}");
    }

    #[test]
    fn huge_declared_length_does_not_allocate() {
        // A section claiming 2^60 payload bytes on a tiny file must fail
        // as truncated, not attempt the allocation.
        let mut bytes = container(&[(*b"AAAA", b"xy")]);
        bytes[16..24].copy_from_slice(&(1u64 << 60).to_le_bytes());
        let err = read_sections(&mut bytes.as_slice()).expect_err("truncated");
        assert!(
            matches!(err, SnapshotError::TruncatedSection { expected, got, .. }
                if expected == 1 << 60 && got == 2),
            "{err}"
        );
    }
}
