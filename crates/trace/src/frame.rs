//! The one record framing under every on-disk format: `.nsftrace`
//! traces, `.nsfs` store entries, the `.nsfx` explorer ledger and the
//! `.nsfm` result memo (plus the frontend cache's in-memory buffers,
//! which `.nsfs` persists verbatim).
//!
//! Every framing decision lives here, once:
//!
//! - **Checksum:** FNV-1a-64 ([`fnv64`], incremental [`Fnv64`]).
//! - **Varints:** LEB128 — `put_varint` under [`VarWriter`] to encode,
//!   one decode step (`read_varint`) under [`VarReader`] and the replay
//!   cursor. Decoding is strict:
//!   a varint wider than a `u64` or not in its shortest form is
//!   [`FrameError::BadVarint`], so every image that decodes re-encodes
//!   to the same bytes.
//! - **Header:** `magic[4] | version u8`, checked by `check_header`.
//! - **Two checksum layouts:**
//!   - a *sealed blob* ([`seal`] / `unseal`): header, body, then an
//!     8-byte little-endian FNV of everything before it (`.nsftrace`,
//!     `.nsfs`);
//!   - a *checksummed record log* ([`checked_record`] / [`parse_log`]):
//!     a header block and then records, each followed by the varint FNV
//!     of its own bytes. Parsing keeps the longest intact prefix and
//!     reports its length ([`RecordLog::valid_len`]), so a torn append
//!     costs only the torn record (`.nsfx`, `.nsfm`).
//! - **Files:** [`write_atomic`] (temporary sibling plus rename) and
//!   [`truncate_to`] (cut a log back to its valid prefix).
//!
//! | format      | magic  | version | checksum layout          | torn tail               |
//! |-------------|--------|---------|--------------------------|-------------------------|
//! | `.nsftrace` | `NSFT` | 1       | sealed                   | typed error             |
//! | `.nsfs`     | `NSFS` | 1       | sealed                   | typed error, recapture  |
//! | `.nsfx`     | `NSFX` | 1       | record log               | truncated to valid_len  |
//! | `.nsfm`     | `NSFM` | 1       | record log               | truncated to valid_len  |

use std::fmt;
use std::io;
use std::path::Path;

/// Width of the `magic | version` header.
pub(crate) const HEADER_LEN: usize = 5;
/// Width of a sealed blob's checksum trailer.
pub const SEAL_LEN: usize = 8;

/// Incremental FNV-1a-64, the checksum (and content hash) of every
/// format.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64::default()
    }

    /// Folds `bytes` in.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in `v` as its 8 little-endian bytes.
    #[inline]
    pub fn word(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// The hash of everything folded in so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a-64 of `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// A framing failure: the bytes are not an intact image of the format.
/// Each format's error type wraps it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The input ends mid-field (a torn write or truncation), or a
    /// length field disagrees with the bytes present.
    Truncated,
    /// The input does not start with the format's magic.
    BadMagic([u8; 4]),
    /// The format version is not the one this build reads.
    UnsupportedVersion(u8),
    /// A field is malformed: a varint wider than a `u64` or not in its
    /// shortest form, or a value out of its field's range.
    BadVarint,
    /// The stored checksum does not match the bytes it covers.
    ChecksumMismatch {
        /// Checksum stored in the image.
        stored: u64,
        /// Checksum computed over the received bytes.
        computed: u64,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "truncated mid-record"),
            FrameError::BadMagic(m) => write!(f, "foreign magic {m:02x?}"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            FrameError::BadVarint => write!(f, "malformed field"),
            FrameError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// Appends `v` to `out` as a LEB128 varint — the one encoder.
#[inline]
pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Decodes one LEB128 varint, pulling bytes from `next` — the one
/// decoder. Rejects, as [`FrameError::BadVarint`], a tenth byte that
/// carries more than bit 63 or a continuation bit (the value would not
/// fit a `u64`), and a zero final byte after the first (not the
/// shortest form, so it would not re-encode to the same bytes).
#[inline(always)]
pub(crate) fn read_varint<E: From<FrameError>>(
    mut next: impl FnMut() -> Result<u8, E>,
) -> Result<u64, E> {
    let first = next()?;
    if first < 0x80 {
        return Ok(u64::from(first));
    }
    let mut v = u64::from(first & 0x7F);
    let mut shift = 7u32;
    loop {
        let byte = next()?;
        if (shift == 63 && byte > 1) || byte == 0 {
            return Err(FrameError::BadVarint.into());
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte < 0x80 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// In-memory varint writer: the encoding every format's fields use.
/// Growing a `Vec<u8>` is the only allocation; there is no I/O.
#[derive(Debug, Default)]
pub struct VarWriter {
    buf: Vec<u8>,
}

impl VarWriter {
    /// An empty buffer.
    pub fn new() -> Self {
        VarWriter::default()
    }

    /// An empty buffer with `cap` bytes reserved — capture-sized streams
    /// (megabytes at `--scale 1`) skip the cold vector's doubling copies.
    pub fn with_capacity(cap: usize) -> Self {
        VarWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// A buffer that starts with the `magic | version` header.
    pub fn with_header(magic: [u8; 4], version: u8) -> Self {
        let mut w = VarWriter::new();
        w.put_bytes(&magic);
        w.put_u8(version);
        w
    }

    /// Appends a raw byte (event tags).
    #[inline]
    pub fn put_u8(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a LEB128 varint.
    #[inline]
    pub fn put_varint(&mut self, v: u64) {
        put_varint(&mut self.buf, v);
    }

    /// Appends a signed value zigzag-mapped into a varint (small
    /// magnitudes of either sign stay one byte).
    #[inline]
    pub fn put_varint_signed(&mut self, v: i64) {
        self.put_varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// In-memory reader matching [`VarWriter`]. Running past the end is
/// [`FrameError::Truncated`]; malformed varints are
/// [`FrameError::BadVarint`].
#[derive(Debug)]
pub struct VarReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> VarReader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        VarReader { bytes, pos: 0 }
    }

    /// `true` once every byte has been consumed.
    pub fn done(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    /// Byte offset of the next read.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The bytes not yet read.
    pub fn rest(&self) -> &'a [u8] {
        &self.bytes[self.pos..]
    }

    /// Reads one raw byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, FrameError> {
        let b = *self.bytes.get(self.pos).ok_or(FrameError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let bytes = self.rest().get(..n).ok_or(FrameError::Truncated)?;
        self.pos += n;
        Ok(bytes)
    }

    /// Reads a LEB128 varint.
    #[inline]
    pub fn get_varint(&mut self) -> Result<u64, FrameError> {
        read_varint(|| self.get_u8())
    }

    /// Reads a zigzag-encoded signed varint.
    #[inline]
    pub fn get_varint_signed(&mut self) -> Result<i64, FrameError> {
        let z = self.get_varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Reads a varint that must fit `T` (a field narrower than `u64`).
    #[inline]
    pub fn get_int<T: TryFrom<u64>>(&mut self) -> Result<T, FrameError> {
        T::try_from(self.get_varint()?).map_err(|_| FrameError::BadVarint)
    }
}

/// Checks that `bytes` opens with `magic | version`. A prefix too short
/// to decide is [`FrameError::Truncated`]; four foreign bytes are
/// [`FrameError::BadMagic`] even when the version byte is missing.
pub(crate) fn check_header(bytes: &[u8], magic: [u8; 4], version: u8) -> Result<(), FrameError> {
    match bytes.get(..4) {
        Some(m) if m != magic => Err(FrameError::BadMagic(m.try_into().expect("4 bytes"))),
        _ => match bytes.get(4) {
            None => Err(FrameError::Truncated),
            Some(&v) if v != version => Err(FrameError::UnsupportedVersion(v)),
            Some(_) => Ok(()),
        },
    }
}

/// Seals `blob` (which starts with its header): appends the 8-byte
/// little-endian FNV-1a-64 of every byte before the trailer.
pub fn seal(mut blob: Vec<u8>) -> Vec<u8> {
    let sum = fnv64(&blob);
    blob.extend_from_slice(&sum.to_le_bytes());
    blob
}

/// Opens a sealed blob: checks the length, the header and the trailer
/// checksum — before any field is parsed — and returns the body between
/// header and trailer.
pub(crate) fn unseal(bytes: &[u8], magic: [u8; 4], version: u8) -> Result<&[u8], FrameError> {
    if bytes.len() < HEADER_LEN + SEAL_LEN {
        return Err(FrameError::Truncated);
    }
    check_header(bytes, magic, version)?;
    let (covered, trailer) = bytes.split_at(bytes.len() - SEAL_LEN);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    let computed = fnv64(covered);
    if stored != computed {
        return Err(FrameError::ChecksumMismatch { stored, computed });
    }
    Ok(&covered[HEADER_LEN..])
}

/// Finishes one record of a checksummed log: the record's bytes
/// followed by the varint FNV-1a-64 of them.
pub fn checked_record(record: VarWriter) -> Vec<u8> {
    let mut out = record.into_bytes();
    let sum = fnv64(&out);
    put_varint(&mut out, sum);
    out
}

/// The valid prefix of a checksummed record log.
#[derive(Debug)]
pub struct RecordLog<H, T> {
    /// The decoded header block.
    pub header: H,
    /// Every intact record, in append order.
    pub records: Vec<T>,
    /// Byte length of the valid prefix. Anything past it is a torn or
    /// corrupt tail from an interrupted append; cut it off
    /// ([`truncate_to`]) before appending resumes.
    pub valid_len: usize,
}

impl<H, T> RecordLog<H, T> {
    /// `true` when the file carried bytes past the last intact record.
    pub fn truncated_tail(&self, file_len: usize) -> bool {
        self.valid_len < file_len
    }
}

/// Decodes one checksummed record whose checksum covers
/// `r.bytes[start..]` up to the end of what `decode` consumed.
fn read_checked<T>(
    r: &mut VarReader<'_>,
    start: usize,
    decode: impl FnOnce(&mut VarReader<'_>) -> Result<T, FrameError>,
) -> Result<T, FrameError> {
    let value = decode(r)?;
    let computed = fnv64(&r.bytes[start..r.pos]);
    let stored = r.get_varint()?;
    if stored != computed {
        return Err(FrameError::ChecksumMismatch { stored, computed });
    }
    Ok(value)
}

/// Parses a checksummed record log. The header block — `magic |
/// version`, the fields `header` decodes, and a checksum over all of
/// it — must be intact, or the whole log is rejected. Records follow,
/// each decoded by `record` and checked against its own checksum;
/// parsing stops at the first one that fails, and
/// [`RecordLog::valid_len`] marks where it began.
pub fn parse_log<H, T>(
    bytes: &[u8],
    magic: [u8; 4],
    version: u8,
    header: impl FnOnce(&mut VarReader<'_>) -> Result<H, FrameError>,
    mut record: impl FnMut(&mut VarReader<'_>) -> Result<T, FrameError>,
) -> Result<RecordLog<H, T>, FrameError> {
    check_header(bytes, magic, version)?;
    let mut r = VarReader {
        bytes,
        pos: HEADER_LEN,
    };
    let header = read_checked(&mut r, 0, header)?;
    let mut records = Vec::new();
    let mut valid_len = r.pos;
    while !r.done() {
        match read_checked(&mut r, valid_len, &mut record) {
            Ok(rec) => {
                records.push(rec);
                valid_len = r.pos;
            }
            Err(_) => break,
        }
    }
    Ok(RecordLog {
        header,
        records,
        valid_len,
    })
}

/// Writes `bytes` to `path` through a temporary sibling and an atomic
/// rename, so concurrent readers and a writer killed mid-write only
/// ever leave the old file or the complete new one. The temporary name
/// carries `.tmp` and the process id (stray ones are what
/// `store_tool gc` sweeps). It does not fsync: every file written this
/// way is checksummed, so one torn by a power loss is rejected on load,
/// never trusted.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Cuts the file at `path` back to `valid_len` bytes when it is longer:
/// drops the torn tail of a record log so appending resumes on a record
/// boundary.
pub fn truncate_to(path: &Path, valid_len: usize) -> io::Result<()> {
    let f = std::fs::OpenOptions::new().write(true).open(path)?;
    if f.metadata()?.len() > valid_len as u64 {
        f.set_len(valid_len as u64)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(bytes: &[u8]) -> Result<u64, FrameError> {
        VarReader::new(bytes).get_varint()
    }

    #[test]
    fn varint_round_trips_at_every_width() {
        for shift in 0..64 {
            for v in [1u64 << shift, (1u64 << shift) - 1, u64::MAX >> shift] {
                let mut buf = Vec::new();
                put_varint(&mut buf, v);
                assert_eq!(decode(&buf), Ok(v), "{v:#x}");
            }
        }
    }

    #[test]
    fn varint_rejects_overflow_overlength_and_padding() {
        // u64::MAX is the widest legal encoding (nine 0xFF, then 0x01).
        let mut max = vec![0xFFu8; 9];
        max.push(0x01);
        assert_eq!(decode(&max), Ok(u64::MAX));
        // A tenth byte above bit 0 overflows; a tenth continuation bit
        // is over-long; a zero final byte is a padded (non-shortest) form.
        let mut over = vec![0xFFu8; 9];
        over.push(0x03);
        assert_eq!(decode(&over), Err(FrameError::BadVarint));
        let mut eleven = vec![0xFFu8; 10];
        eleven.push(0x00);
        assert_eq!(decode(&eleven), Err(FrameError::BadVarint));
        assert_eq!(decode(&[0xFF; 16]), Err(FrameError::BadVarint));
        assert_eq!(decode(&[0x80, 0x00]), Err(FrameError::BadVarint));
        assert_eq!(decode(&[0x80]), Err(FrameError::Truncated));
        assert_eq!(decode(&[]), Err(FrameError::Truncated));
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.finish(), fnv64(b"foobar"));
    }

    #[test]
    fn header_check_is_typed() {
        let m = *b"NSFQ";
        assert_eq!(check_header(b"NSFQ\x01rest", m, 1), Ok(()));
        assert_eq!(check_header(b"NSF", m, 1), Err(FrameError::Truncated));
        assert_eq!(check_header(b"NSFQ", m, 1), Err(FrameError::Truncated));
        assert_eq!(
            check_header(b"XSFQ", m, 1),
            Err(FrameError::BadMagic(*b"XSFQ"))
        );
        assert_eq!(
            check_header(b"NSFQ\x02", m, 1),
            Err(FrameError::UnsupportedVersion(2))
        );
    }

    #[test]
    fn sealed_blob_round_trips_and_rejects_damage() {
        let mut w = VarWriter::with_header(*b"NSFQ", 1);
        w.put_varint(300);
        let sealed = seal(w.into_bytes());
        let body = unseal(&sealed, *b"NSFQ", 1).unwrap();
        assert_eq!(VarReader::new(body).get_varint(), Ok(300));
        for cut in 0..sealed.len() {
            assert!(unseal(&sealed[..cut], *b"NSFQ", 1).is_err());
        }
        let mut flipped = sealed.clone();
        flipped[HEADER_LEN] ^= 1;
        assert!(matches!(
            unseal(&flipped, *b"NSFQ", 1),
            Err(FrameError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn record_log_keeps_the_intact_prefix() {
        let head = checked_record(VarWriter::with_header(*b"NSFQ", 1));
        let rec = |v| {
            let mut w = VarWriter::new();
            w.put_varint(v);
            checked_record(w)
        };
        let mut bytes = head.clone();
        bytes.extend(rec(1));
        bytes.extend(rec(1000));
        let parse = |b: &[u8]| parse_log(b, *b"NSFQ", 1, |_| Ok(()), |r| r.get_varint());
        let log = parse(&bytes).unwrap();
        assert_eq!((log.records, log.valid_len), (vec![1, 1000], bytes.len()));
        let one = head.len() + rec(1).len();
        for cut in one..bytes.len() {
            let log = parse(&bytes[..cut]).unwrap();
            assert_eq!((log.records.len(), log.valid_len), (1, one), "cut {cut}");
            assert_eq!(log.truncated_tail(cut), cut > one);
        }
        assert_eq!(parse(&bytes[..2]).unwrap_err(), FrameError::Truncated);
    }

    #[test]
    fn write_atomic_and_truncate_to() {
        let dir = std::env::temp_dir().join(format!("nsf-frame-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.nsfq");
        write_atomic(&path, b"0123456789").unwrap();
        write_atomic(&path, b"abcdef").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"abcdef");
        truncate_to(&path, 4).unwrap();
        truncate_to(&path, 9).unwrap(); // never grows
        assert_eq!(std::fs::read(&path).unwrap(), b"abcd");
        let names: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(names.len(), 1, "no temporary left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
