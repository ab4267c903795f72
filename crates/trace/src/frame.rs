//! The one record framing under every on-disk format: `.nsftrace`
//! traces, `.nsfs` store entries, the `.nsfx` explorer ledger and the
//! `.nsfm` result memo (plus the frontend cache's in-memory buffers,
//! which `.nsfs` persists verbatim).
//!
//! Every framing decision lives here, once:
//!
//! - **Checksums:** two, one per layout.
//!   - [`seal_checksum`] seals blobs. It reads the image as 8-byte
//!     little-endian words in four independent lanes, so the multiply
//!     chains of neighbouring words overlap. A final avalanche folds
//!     together the lanes, the length and the tail bytes. Each lane's
//!     per-word round and each step of the fold is a bijection, so
//!     damage confined to one word is always detected ([`SealHasher`]
//!     takes it over several slices). Sealed blobs run to megabytes (a
//!     scale-1 `.nsfs` entry) and every store save and load checks a
//!     whole one, so this is the checksum whose speed shows: about
//!     16 times FNV-1a's bytes per second (`stream_store/seal`).
//!   - FNV-1a-64 ([`fnv64`], incremental [`Fnv64`]) checksums the
//!     records of a record log, and is the content hash behind every key
//!     (`stream_fingerprint`, `memo_key`, `ExploreSpec::fingerprint`).
//!     Those inputs are tens of bytes, where a byte loop costs nothing.
//! - **Varints:** LEB128 — `put_varint` under [`VarWriter`] to encode,
//!   one decode step (`read_varint`) under [`VarReader`] and the replay
//!   cursor. Decoding is strict:
//!   a varint wider than a `u64` or not in its shortest form is
//!   [`FrameError::BadVarint`], so every image that decodes re-encodes
//!   to the same bytes.
//! - **Header:** `magic[4] | version u8`, checked by `check_header`.
//! - **Two checksum layouts:**
//!   - a *sealed blob* ([`seal`] / [`unseal`]): header, body, then an
//!     8-byte little-endian [`seal_checksum`] of everything before it
//!     (`.nsftrace`, `.nsfs`);
//!   - a *checksummed record log* ([`checked_record`] / [`parse_log`]):
//!     a header block and then records, each followed by the varint FNV
//!     of its own bytes. Parsing keeps the longest intact prefix and
//!     reports its length ([`RecordLog::valid_len`]), so a torn append
//!     costs only the torn record (`.nsfx`, `.nsfm`).
//! - **Files:** [`write_atomic`] (temporary sibling plus rename, the
//!   image's parts written in turn) and [`truncate_to`] (cut a log back
//!   to its valid prefix).
//!
//! | format      | magic  | version | checksum layout          | checksum | torn tail               |
//! |-------------|--------|---------|--------------------------|----------|-------------------------|
//! | `.nsftrace` | `NSFT` | 3       | sealed                   | seal     | typed error             |
//! | `.nsfs`     | `NSFS` | 2       | sealed                   | seal     | typed error, recapture  |
//! | `.nsfx`     | `NSFX` | 1       | record log               | FNV-1a   | truncated to valid_len  |
//! | `.nsfm`     | `NSFM` | 1       | record log               | FNV-1a   | truncated to valid_len  |
//!
//! A change to either checksum function changes the bytes of every
//! format that uses it, so it needs a version bump of each; the
//! known-answer tests below pin both.

use std::fmt;
use std::io::{self, Write};
use std::path::Path;

/// Width of the `magic | version` header.
pub const HEADER_LEN: usize = 5;
/// Width of a sealed blob's checksum trailer.
pub const SEAL_LEN: usize = 8;

/// Incremental FNV-1a-64: the record-log checksum and the content hash
/// behind every key.
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

/// Odd multipliers of the seal checksum (XXH64's primes).
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;

/// One lane's per-word round (XXH64's). For a fixed lane it is a
/// bijection of the word, and for a fixed word a bijection of the lane,
/// so a change confined to one word leaves its lane changed through
/// every later unchanged word.
#[inline(always)]
fn lane_round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// A bijective avalanche: every input bit reaches every output bit.
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// The little-endian word at the start of `bytes`.
#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// [`seal_checksum`] taken incrementally: [`finish`](Self::finish) is
/// the checksum of every slice passed to [`update`](Self::update),
/// joined, so a head and a stream held apart seal without a copy.
#[derive(Clone, Debug)]
pub struct SealHasher {
    lanes: [u64; 4],
    /// Bytes taken in; the last `len % 32` of them wait in `stripe`.
    len: u64,
    stripe: [u8; 32],
}

impl Default for SealHasher {
    fn default() -> Self {
        let lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        SealHasher {
            lanes,
            len: 0,
            stripe: [0; 32],
        }
    }
}

impl SealHasher {
    /// Takes in `bytes` after everything before them.
    pub fn update(&mut self, mut bytes: &[u8]) {
        let fill = self.len as usize % 32;
        self.len += bytes.len() as u64;
        if fill > 0 {
            let take = bytes.len().min(32 - fill);
            self.stripe[fill..fill + take].copy_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if fill + take < 32 {
                return;
            }
            self.lanes = stripes(self.lanes, &self.stripe);
        }
        let whole = bytes.len() / 32 * 32;
        self.lanes = stripes(self.lanes, &bytes[..whole]);
        self.stripe[..bytes.len() - whole].copy_from_slice(&bytes[whole..]);
    }

    /// The checksum of every byte taken in.
    pub fn finish(&self) -> u64 {
        let mut h = avalanche(self.len);
        for lane in self.lanes {
            h = avalanche(h ^ lane);
        }
        let mut words = self.stripe[..self.len as usize % 32].chunks_exact(8);
        for word in &mut words {
            h = avalanche(h ^ le_word(word));
        }
        let mut last = [0u8; 8];
        last[..words.remainder().len()].copy_from_slice(words.remainder());
        avalanche(h ^ u64::from_le_bytes(last))
    }
}

/// Runs each whole 32-byte stripe of `bytes` through the four lanes, one
/// word per lane. The lanes are a local array, so they stay in registers.
#[inline(always)]
fn stripes(mut lanes: [u64; 4], bytes: &[u8]) -> [u64; 4] {
    for stripe in bytes.chunks_exact(32) {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = lane_round(*lane, le_word(&stripe[8 * i..]));
        }
    }
    lanes
}

/// The sealed-blob checksum: a word-parallel 64-bit hash, [`SealHasher`]
/// over one slice.
///
/// Each 32-byte stripe feeds one 8-byte little-endian word to each of
/// four independent lanes, so the lanes' multiply chains overlap. The
/// fold then starts from the length and takes in each lane, each
/// remaining whole word and the zero-padded last partial word, one at a
/// time, as `h = avalanche(h ^ x)`. Every step of the fold is a
/// bijection of `x` for a fixed `h` and of `h` for a fixed `x`, and a
/// lane round is a bijection of its word and of its lane, so damage
/// confined to one 8-byte word always changes the result. Damage spread
/// over several words is missed only if the changes cancel; the tests
/// below find no 1- or 2-bit flip of a 256-byte image that does.
///
/// The lane round is XXH64's, but the fold is not: XXH64 merges each
/// lane in two places at once, which is not a bijection of that lane.
pub fn seal_checksum(bytes: &[u8]) -> u64 {
    let mut h = SealHasher::default();
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
/// little-endian [`seal_checksum`] of every byte before the trailer.
pub fn seal(mut blob: Vec<u8>) -> Vec<u8> {
    let sum = seal_checksum(&blob);
    blob.extend_from_slice(&sum.to_le_bytes());
    blob
}

/// Opens a sealed blob: checks the length, the header and the trailer
/// checksum — before any field is parsed — and returns the body between
/// header and trailer.
pub fn unseal(bytes: &[u8], magic: [u8; 4], version: u8) -> Result<&[u8], FrameError> {
    if bytes.len() < HEADER_LEN + SEAL_LEN {
        return Err(FrameError::Truncated);
    }
    check_header(bytes, magic, version)?;
    let (covered, trailer) = bytes.split_at(bytes.len() - SEAL_LEN);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    let computed = seal_checksum(covered);
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

/// Writes `parts` in turn (an image need not be joined in memory) to
/// `path` through a temporary sibling and an atomic rename, so
/// concurrent readers and a writer killed mid-write only ever leave the
/// old file or the complete new one. The temporary name carries `.tmp`
/// and the process id (stray ones are what `store_tool gc` sweeps). It
/// does not fsync: every file written this way is checksummed, so one
/// torn by a power loss is rejected on load, never trusted.
pub fn write_atomic(path: &Path, parts: &[&[u8]]) -> io::Result<()> {
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    std::fs::File::create(&tmp)
        .and_then(|mut f| parts.iter().try_for_each(|part| f.write_all(part)))
        .and_then(|()| std::fs::rename(&tmp, path))
        .inspect_err(|_| {
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
    use proptest::prelude::*;

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
    fn seal_checksum_is_a_known_answer() {
        // Any change to the function moves these values, and with them
        // the bytes of every sealed format: bump their versions. The
        // inputs cover no stripe, a stripe with a partial tail, and
        // whole tail words.
        assert_eq!(seal_checksum(b""), 0x6625_9a45_582a_2066);
        assert_eq!(seal_checksum(b"abc"), 0xba29_0f26_1694_a6c3);
        assert_eq!(
            seal_checksum(b"Nobody inspects the spammish repetition"),
            0x5e3a_5aeb_70be_a473
        );
        assert_eq!(seal_checksum(&[0x5A; 56]), 0x872a_cba5_7586_4dd9);
    }

    proptest! {

        /// The incremental hasher over any split of an image is the
        /// one-shot checksum of the whole: every single split point
        /// (inside a stripe, on a stripe boundary, inside the unfinished
        /// tail), and a second split after it.
        #[test]
        fn hasher_over_any_split_is_the_one_shot_checksum(
            bytes in proptest::collection::vec(any::<u8>(), 0..301),
            second in 0usize..301,
        ) {
            let whole = seal_checksum(&bytes);
            for cut in 0..=bytes.len() {
                let (a, rest) = bytes.split_at(cut);
                let (b, c) = rest.split_at(second.min(rest.len()));
                let mut two = SealHasher::default();
                two.update(a);
                two.update(rest);
                prop_assert_eq!(two.finish(), whole, "cut {}", cut);
                let mut three = SealHasher::default();
                for part in [a, b, c] {
                    three.update(part);
                }
                prop_assert_eq!(three.finish(), whole, "cuts {} {}", cut, b.len());
            }
        }
    }

    #[test]
    fn hasher_takes_bytes_one_at_a_time() {
        // 300 bytes: nine whole stripes, then a tail of one whole word and
        // a half word, so single-byte updates fill and flush the pending
        // stripe 9 times and leave 12 bytes in it.
        let bytes: Vec<u8> = (0..300u32).map(|i| (i * 131 % 251) as u8).collect();
        let mut h = SealHasher::default();
        for b in &bytes {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finish(), seal_checksum(&bytes));
    }

    const MAGIC: [u8; 4] = *b"NSFQ";

    /// A 256-byte sealed image: header, 243 body bytes, trailer.
    fn sealed_256() -> Vec<u8> {
        let mut w = VarWriter::with_header(MAGIC, 1);
        for i in 0..256 - HEADER_LEN - SEAL_LEN {
            w.put_u8((i as u8).wrapping_mul(37) ^ 0x5A);
        }
        let sealed = seal(w.into_bytes());
        assert_eq!(sealed.len(), 256);
        sealed
    }

    #[test]
    fn seal_trailer_is_a_known_answer() {
        let sealed = sealed_256();
        let trailer = u64::from_le_bytes(sealed[256 - SEAL_LEN..].try_into().unwrap());
        assert_eq!(trailer, 0x5878_64d6_d2d9_0be1);
    }

    fn flip(bytes: &mut [u8], bit: usize) {
        bytes[bit / 8] ^= 1 << (bit % 8);
    }

    /// What `unseal` must report for `image` with `bits` flipped: header
    /// damage is classified before the checksum runs, and everything
    /// else is a checksum mismatch.
    fn assert_rejected(image: &[u8], bits: &[usize]) {
        let err = unseal(image, MAGIC, 1).unwrap_err();
        let first = bits.iter().map(|b| b / 8).min().unwrap();
        let ok = match first {
            0..=3 => matches!(err, FrameError::BadMagic(_)),
            4 => matches!(err, FrameError::UnsupportedVersion(_)),
            _ => matches!(err, FrameError::ChecksumMismatch { .. }),
        };
        assert!(ok, "bits {bits:?}: {err}");
    }

    #[test]
    fn every_one_and_two_bit_flip_of_a_sealed_image_is_rejected() {
        let mut image = sealed_256();
        let bits = image.len() * 8;
        for a in 0..bits {
            flip(&mut image, a);
            assert_rejected(&image, &[a]);
            for b in a + 1..bits {
                flip(&mut image, b);
                assert_rejected(&image, &[a, b]);
                flip(&mut image, b);
            }
            flip(&mut image, a);
        }
        assert_eq!(image, sealed_256());
    }

    #[test]
    fn a_flip_the_next_word_of_its_lane_could_cancel_is_caught() {
        // A lane round of xor, multiply and rotate-left by 29 turns a
        // flip of bit 63 of word i into exactly bit 28 of its lane, so a
        // flip of bit 28 of word i + 4 (the lane's next word) would
        // cancel it. A round that is a bijection of the lane must not.
        let mut image = sealed_256();
        let word = |i: usize, bit: usize| 64 * i + bit;
        for i in 1..image.len() / 8 - 5 {
            let pair = [word(i, 63), word(i + 4, 28)];
            for &b in &pair {
                flip(&mut image, b);
            }
            assert_rejected(&image, &pair);
            for &b in &pair {
                flip(&mut image, b);
            }
        }
    }

    #[test]
    fn every_truncation_of_a_sealed_image_is_rejected() {
        let image = sealed_256();
        for cut in 0..image.len() {
            let err = unseal(&image[..cut], MAGIC, 1).unwrap_err();
            assert!(
                matches!(
                    err,
                    FrameError::Truncated | FrameError::ChecksumMismatch { .. }
                ),
                "cut {cut}: {err}"
            );
        }
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
        write_atomic(&path, &[b"0123456789"]).unwrap();
        write_atomic(&path, &[b"abc", b"", b"def"]).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"abcdef");
        truncate_to(&path, 4).unwrap();
        truncate_to(&path, 9).unwrap(); // never grows
        assert_eq!(std::fs::read(&path).unwrap(), b"abcd");
        let names: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(names.len(), 1, "no temporary left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
