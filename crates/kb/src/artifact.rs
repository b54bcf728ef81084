//! Versioned, checksummed binary container for persisted artifacts.
//!
//! MinoanER's blocking/similarity structures are built once and queried
//! many times, so they are worth persisting. This module provides the
//! *container* layer of that persistence: an append-only section file
//! with a fixed header and a checksummed section table. What goes *into*
//! the sections (interners, statements, CSR buffers, matchings) is
//! encoded by the layers that own those types; this module only guarantees that
//! a file either round-trips byte-for-byte or is rejected with a
//! structured [`ArtifactError`] — never a panic, never a torn read.
//!
//! # Wire layout
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"MINOANIX"
//! 8       4     format version (u32 LE)
//! 12      4     section count  (u32 LE)
//! 16      28×n  section table: tag u32 · offset u64 · len u64 · fnv1a u64
//! ...           section payloads (concatenated, in table order)
//! ```
//!
//! All integers are little-endian. Section offsets are absolute file
//! offsets; every section's FNV-1a checksum is validated on open, so a
//! flipped bit anywhere in a payload is caught before any decoding runs.
//! Reading is std-only: the file is read into one owned buffer (the
//! sanctioned fallback for mmap) and decoded spans borrow from it.

use std::fmt;
use std::io::{self, Read, Write};
use std::ops::Range;
use std::path::Path;

use minoan_exec::faults;

/// File magic: identifies a MinoanER index artifact.
pub const MAGIC: [u8; 8] = *b"MINOANIX";

/// Current artifact format version. Bump on any layout change; readers
/// reject every other version with
/// [`ArtifactError::UnsupportedVersion`] — one format, one reader; an
/// older file is rebuilt, not migrated. Version 2 embedded both KBs
/// whole in place of bare URI dictionaries (a patch re-runs the pipeline
/// over them) and added a content version to the meta section. Version
/// 3 stopped persisting what no reader of a loaded index reads — token
/// sets, both block collections, the two `neighborNSim` CSRs: 28 % of
/// the file on Rexa-DBLP ×2 (44.6 of 157.8 MB), 38 % on YAGO-IMDb ×2.
/// Version 4 keeps the same encoding but persists only the best 128
/// candidates of each value row (no match query reads further), so the
/// two candidate directions are no longer transposes of each other and a
/// longer row is corrupt: Rexa-DBLP ×2 shrinks from 113.2 to 18.9 MB,
/// from 29× to 4.9× its input.
pub const FORMAT_VERSION: u32 = 4;

/// Size of the fixed header preceding the section table.
pub const HEADER_BYTES: usize = 16;

/// Size of one section-table entry.
pub const SECTION_ENTRY_BYTES: usize = 28;

/// Named fault-injection site armed around every artifact read (see
/// [`minoan_exec::faults`]): `MINOAN_FAULTS=store.artifact.read:1:io`
/// makes [`ArtifactFile::open`] fail with an injected IO error.
pub const READ_FAULT_SITE: &str = "store.artifact.read";

/// Why an artifact could not be read.
///
/// Every variant is a clean, recoverable rejection — corrupt or
/// truncated files never panic the reader.
#[derive(Debug)]
pub enum ArtifactError {
    /// The underlying file could not be read or written.
    Io(io::Error),
    /// The file does not start with [`MAGIC`] — not an artifact.
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion {
        /// The version recorded in the file.
        found: u32,
    },
    /// The file ends before the advertised structure does.
    Truncated {
        /// Bytes the structure requires.
        needed: u64,
        /// Bytes actually present.
        have: u64,
    },
    /// A section's stored checksum does not match its payload.
    ChecksumMismatch {
        /// Tag of the damaged section.
        tag: u32,
    },
    /// A section the decoder requires is absent.
    MissingSection {
        /// Tag of the absent section.
        tag: u32,
    },
    /// A section payload decoded to something structurally invalid.
    Corrupt(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact io error: {e}"),
            ArtifactError::BadMagic => write!(f, "not a MinoanER artifact (bad magic)"),
            ArtifactError::UnsupportedVersion { found } => write!(
                f,
                "unsupported artifact format version {found} \
                 (reader supports {FORMAT_VERSION}): rebuild the index"
            ),
            ArtifactError::Truncated { needed, have } => {
                write!(f, "artifact truncated: need {needed} bytes, have {have}")
            }
            ArtifactError::ChecksumMismatch { tag } => {
                write!(f, "artifact section 0x{tag:08x} failed its checksum")
            }
            ArtifactError::MissingSection { tag } => {
                write!(f, "artifact is missing section 0x{tag:08x}")
            }
            ArtifactError::Corrupt(what) => write!(f, "artifact corrupt: {what}"),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ArtifactError {
    fn from(e: io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

/// 64-bit FNV-1a over `bytes` — the section checksum function.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// Accumulates tagged sections and writes them as one artifact file.
#[derive(Debug, Default)]
pub struct ArtifactWriter {
    sections: Vec<(u32, Vec<u8>)>,
}

impl ArtifactWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a section. Tags must be unique per file; duplicates are a
    /// caller bug and panic.
    pub fn push_section(&mut self, tag: u32, payload: Vec<u8>) {
        assert!(
            self.sections.iter().all(|&(t, _)| t != tag),
            "duplicate artifact section tag 0x{tag:08x}"
        );
        self.sections.push((tag, payload));
    }

    /// The one serializer: header and section table, then each payload
    /// straight through to `out` — no file-sized staging copy. Returns
    /// the number of bytes written.
    fn serialize(self, out: &mut impl Write) -> io::Result<u64> {
        let table_bytes = self.sections.len() * SECTION_ENTRY_BYTES;
        let mut head = Vec::with_capacity(HEADER_BYTES + table_bytes);
        head.extend_from_slice(&MAGIC);
        put_u32(&mut head, FORMAT_VERSION);
        put_u32(&mut head, self.sections.len() as u32);
        let mut offset = (HEADER_BYTES + table_bytes) as u64;
        for (tag, payload) in &self.sections {
            put_u32(&mut head, *tag);
            put_u64(&mut head, offset);
            put_u64(&mut head, payload.len() as u64);
            put_u64(&mut head, fnv1a(payload));
            offset += payload.len() as u64;
        }
        out.write_all(&head)?;
        for (_, payload) in self.sections {
            out.write_all(&payload)?;
        }
        Ok(offset)
    }

    /// Serializes header, section table and payloads into one buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        let mut out = Vec::new();
        self.serialize(&mut out).expect("a Vec write cannot fail");
        out
    }

    /// Writes the artifact to `path`, returning the file size in bytes.
    /// The write goes through a temp file in the same directory plus an
    /// atomic rename, so readers never observe a half-written artifact.
    pub fn write_to(self, path: &Path) -> io::Result<u64> {
        let _span = minoan_obs::trace::span(minoan_obs::Level::Debug, "artifact.write", || {
            path.display().to_string()
        });
        let tmp = path.with_extension("tmp");
        let mut f = std::fs::File::create(&tmp)?;
        let bytes = self.serialize(&mut f)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)?;
        Ok(bytes)
    }
}

/// An opened artifact: the file's bytes plus its validated section table.
///
/// Opening validates magic, version, table bounds and every section
/// checksum up front; [`ArtifactFile::section`] lookups afterwards are
/// pure slicing.
#[derive(Debug)]
pub struct ArtifactFile {
    buf: Vec<u8>,
    version: u32,
    sections: Vec<(u32, Range<usize>)>,
}

impl ArtifactFile {
    /// Reads and validates the artifact at `path`.
    pub fn open(path: &Path) -> Result<Self, ArtifactError> {
        let _span = minoan_obs::trace::span(minoan_obs::Level::Debug, "artifact.read", || {
            path.display().to_string()
        });
        faults::point(READ_FAULT_SITE)?;
        let mut buf = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut buf)?;
        Self::from_bytes(buf)
    }

    /// Validates an in-memory artifact image.
    pub fn from_bytes(buf: Vec<u8>) -> Result<Self, ArtifactError> {
        if buf.len() < HEADER_BYTES {
            if buf.len() >= MAGIC.len() && buf[..MAGIC.len()] != MAGIC {
                return Err(ArtifactError::BadMagic);
            }
            return Err(ArtifactError::Truncated {
                needed: HEADER_BYTES as u64,
                have: buf.len() as u64,
            });
        }
        if buf[..8] != MAGIC {
            return Err(ArtifactError::BadMagic);
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(ArtifactError::UnsupportedVersion { found: version });
        }
        let count = u32::from_le_bytes(buf[12..16].try_into().expect("4 bytes")) as usize;
        let table_end = HEADER_BYTES as u64 + (count as u64) * SECTION_ENTRY_BYTES as u64;
        if (buf.len() as u64) < table_end {
            return Err(ArtifactError::Truncated {
                needed: table_end,
                have: buf.len() as u64,
            });
        }
        let mut sections = Vec::with_capacity(count);
        for i in 0..count {
            let at = HEADER_BYTES + i * SECTION_ENTRY_BYTES;
            let tag = u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"));
            let offset = u64::from_le_bytes(buf[at + 4..at + 12].try_into().expect("8 bytes"));
            let len = u64::from_le_bytes(buf[at + 12..at + 20].try_into().expect("8 bytes"));
            let checksum = u64::from_le_bytes(buf[at + 20..at + 28].try_into().expect("8 bytes"));
            let end = offset
                .checked_add(len)
                .ok_or(ArtifactError::Corrupt(format!(
                    "section 0x{tag:08x} offset overflows"
                )))?;
            if end > buf.len() as u64 {
                return Err(ArtifactError::Truncated {
                    needed: end,
                    have: buf.len() as u64,
                });
            }
            let range = offset as usize..end as usize;
            if fnv1a(&buf[range.clone()]) != checksum {
                return Err(ArtifactError::ChecksumMismatch { tag });
            }
            sections.push((tag, range));
        }
        Ok(Self {
            buf,
            version,
            sections,
        })
    }

    /// The file's format version (always [`FORMAT_VERSION`] today).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Total file size in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.buf.len() as u64
    }

    /// Tags present, in file order.
    pub fn tags(&self) -> impl Iterator<Item = u32> + '_ {
        self.sections.iter().map(|&(t, _)| t)
    }

    /// The payload of section `tag`.
    pub fn section(&self, tag: u32) -> Result<&[u8], ArtifactError> {
        self.sections
            .iter()
            .find(|&&(t, _)| t == tag)
            .map(|(_, r)| &self.buf[r.clone()])
            .ok_or(ArtifactError::MissingSection { tag })
    }

    /// The payload length of section `tag`, if present.
    pub fn section_len(&self, tag: u32) -> Option<u64> {
        self.sections
            .iter()
            .find(|&&(t, _)| t == tag)
            .map(|(_, r)| r.len() as u64)
    }
}

// ---------------------------------------------------------------------
// Primitive encoding
// ---------------------------------------------------------------------

/// Appends a `u32` (LE).
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` (LE).
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its IEEE-754 bit pattern (LE) — bit-exact.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked reader over a section payload. Every read returns
/// [`ArtifactError::Corrupt`] instead of panicking when the payload is
/// shorter than its structure claims.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        if self.remaining() < n {
            return Err(ArtifactError::Corrupt(format!(
                "payload ends early: wanted {n} more bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a single tag byte.
    pub fn get_u8(&mut self) -> Result<u8, ArtifactError> {
        Ok(self.take(1)?[0])
    }

    /// Reads `n` raw bytes (a nested, length-prefixed payload).
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        self.take(n)
    }

    /// Reads a `u32` (LE).
    pub fn get_u32(&mut self) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a `u64` (LE).
    pub fn get_u64(&mut self) -> Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a `u64` and converts it to `usize`, rejecting values that
    /// do not fit the platform.
    pub fn get_len(&mut self) -> Result<usize, ArtifactError> {
        usize::try_from(self.get_u64()?)
            .map_err(|_| ArtifactError::Corrupt("length exceeds platform usize".into()))
    }

    /// Reads an `f64` bit pattern (LE).
    pub fn get_f64(&mut self) -> Result<f64, ArtifactError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, ArtifactError> {
        let len = self.get_len()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ArtifactError::Corrupt("string payload is not UTF-8".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bytes() -> Vec<u8> {
        let mut w = ArtifactWriter::new();
        w.push_section(0x10, b"hello".to_vec());
        w.push_section(0x20, vec![1, 2, 3, 4]);
        w.into_bytes()
    }

    #[test]
    fn sections_round_trip() {
        let f = ArtifactFile::from_bytes(sample_bytes()).unwrap();
        assert_eq!(f.version(), FORMAT_VERSION);
        assert_eq!(f.section(0x10).unwrap(), b"hello");
        assert_eq!(f.section(0x20).unwrap(), &[1, 2, 3, 4]);
        assert_eq!(f.section_len(0x10), Some(5));
        assert!(matches!(
            f.section(0x99),
            Err(ArtifactError::MissingSection { tag: 0x99 })
        ));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            ArtifactFile::from_bytes(bytes),
            Err(ArtifactError::BadMagic)
        ));
        // A short file that already disagrees with the magic reports
        // BadMagic, not Truncated.
        assert!(matches!(
            ArtifactFile::from_bytes(b"NOTMINOAN".to_vec()),
            Err(ArtifactError::BadMagic)
        ));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = sample_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            ArtifactFile::from_bytes(bytes),
            Err(ArtifactError::UnsupportedVersion { found: 99 })
        ));
    }

    #[test]
    fn truncation_is_rejected_at_every_cut() {
        let bytes = sample_bytes();
        for cut in 0..bytes.len() {
            let err = ArtifactFile::from_bytes(bytes[..cut].to_vec()).unwrap_err();
            assert!(
                matches!(
                    err,
                    ArtifactError::Truncated { .. } | ArtifactError::ChecksumMismatch { .. }
                ),
                "cut at {cut} gave {err}"
            );
        }
    }

    #[test]
    fn flipped_payload_bit_fails_checksum() {
        let mut bytes = sample_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(
            ArtifactFile::from_bytes(bytes),
            Err(ArtifactError::ChecksumMismatch { tag: 0x20 })
        ));
    }

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX - 3);
        put_f64(&mut buf, -0.125);
        put_str(&mut buf, "κνωσός");
        let mut c = Cursor::new(&buf);
        assert_eq!(c.get_u32().unwrap(), 7);
        assert_eq!(c.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(c.get_f64().unwrap(), -0.125);
        assert_eq!(c.get_str().unwrap(), "κνωσός");
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn cursor_overrun_is_a_clean_error() {
        let mut c = Cursor::new(&[1, 2]);
        assert!(matches!(c.get_u64(), Err(ArtifactError::Corrupt(_))));
        // A huge claimed string length must not allocate or panic.
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX);
        let mut c = Cursor::new(&buf);
        assert!(c.get_str().is_err());
    }

    #[test]
    fn write_to_disk_round_trips() {
        let dir = std::env::temp_dir().join("minoan-artifact-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("t-{}.idx", std::process::id()));
        let mut w = ArtifactWriter::new();
        w.push_section(1, b"payload".to_vec());
        let bytes = w.write_to(&path).unwrap();
        let f = ArtifactFile::open(&path).unwrap();
        assert_eq!(f.file_bytes(), bytes);
        assert_eq!(f.section(1).unwrap(), b"payload");
        std::fs::remove_file(&path).unwrap();
    }
}
