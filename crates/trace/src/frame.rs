//! The one record framing under every on-disk format: `.nsftrace`
//! traces, `.nsfs` store entries, the `.nsfx` explorer ledger and the
//! `.nsfm` result memo (plus the frontend cache's in-memory buffers,
//! which `.nsfs` persists verbatim).
//!
//! Every framing decision lives here, once:
//!
//! - **Stream buffers:** a frontend stream runs to megabytes, so it is
//!   never one allocation: `ChunkedBytes` holds it in chunks of at
//!   most `CHUNK_LEN` bytes, each well under glibc's 128 KiB mmap
//!   threshold. The recorder appends to one, a writer hands its chunks
//!   to [`write_atomic`] as parts, and `SealedImage` reads a sealed
//!   file or slice into one a chunk at a time, hashing each chunk as it
//!   arrives. No allocation is sized by a stream or a file, and no
//!   buffer is ever regrown past one chunk. A dropped buffer's whole
//!   chunks stay spare for the next one, up to one buffer's worth, so a
//!   stream does not fault freshly trimmed heap pages back in.
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
//! - **Varints:** LEB128 — `put_varint` under [`VarWriter`] and
//!   `ChunkedBytes` to encode, one decode step (`read_varint`) under
//!   [`VarReader`] and the replay cursor, both of which read across
//!   chunk edges. Decoding is strict:
//!   a varint wider than a `u64` or not in its shortest form is
//!   [`FrameError::BadVarint`], so every image that decodes re-encodes
//!   to the same bytes.
//! - **Header:** `magic[4] | version u8`, checked by `check_header`.
//! - **Two checksum layouts:**
//!   - a *sealed blob* ([`seal`] to write, `SealedImage` to open, from
//!     a file or a slice alike): header, body, then an 8-byte
//!     little-endian [`seal_checksum`] of everything before it
//!     (`.nsftrace`, `.nsfs`);
//!   - a *checksummed record log* ([`checked_record`] / [`parse_log`]):
//!     a header block and then records, each followed by the varint FNV
//!     of its own bytes. Parsing keeps the longest intact prefix and
//!     reports its length ([`RecordLog::valid_len`]), so a torn append
//!     costs only the torn record (`.nsfx`, `.nsfm`).
//! - **Files:** [`write_atomic`] (a temporary sibling of its own plus
//!   rename, the image's parts written in turn), `SealedImage::read`
//!   and [`truncate_to`] (cut a log back to its valid prefix).
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
use std::io::{self, IoSlice, Read, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

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
        self.put_varint(zigzag(v));
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bytes per chunk of a [`ChunkedBytes`]. Half of glibc's 128 KiB mmap
/// threshold, so every chunk comes from the heap, where a stream-sized
/// buffer is mapped whole, or regrown through copies; freeing such a
/// buffer raises glibc's threshold to its size and leaves the heap
/// holding and fragmenting megabytes.
pub(crate) const CHUNK_LEN: usize = 64 << 10;

/// The most whole chunks ever kept spare: 32 MiB, the most a stream
/// buffer glibc's own dynamic mmap threshold would keep on the heap.
const MAX_SPARE_CHUNKS: usize = 512;

/// Whole chunks that no buffer holds any more, kept for the next buffer.
/// A chunk handed back to the allocator is trimmed off the top of the
/// heap with its neighbours, so the next stream would fault every page
/// of its chunks in afresh (about a tenth of simbench `figure-narrow`'s
/// throughput); a spare chunk is resident already. One buffer's worth is
/// kept, as many chunks as the largest buffer dropped so far held (at
/// most [`MAX_SPARE_CHUNKS`]): the next stream of that size faults
/// nothing in, and memory held spare never exceeds one stream.
struct Spare {
    chunks: Vec<Vec<u8>>,
    /// Whole chunks in the largest buffer dropped so far.
    most: usize,
}

static SPARE: Mutex<Spare> = Mutex::new(Spare {
    chunks: Vec::new(),
    most: 0,
});

/// The spare chunks. Every update leaves them valid, so ones a
/// panicking thread held are still good.
fn spare_chunks() -> MutexGuard<'static, Spare> {
    SPARE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An empty chunk with room for [`CHUNK_LEN`] bytes, a spare one if any.
fn whole_chunk() -> Vec<u8> {
    spare_chunks()
        .chunks
        .pop()
        .unwrap_or_else(|| Vec::with_capacity(CHUNK_LEN))
}

/// Keeps the whole chunks among `chunks`, one dropped buffer's, spare
/// while there is room.
fn recycle(chunks: impl IntoIterator<Item = Vec<u8>>) {
    let whole: Vec<Vec<u8>> = chunks
        .into_iter()
        .filter(|c| c.capacity() == CHUNK_LEN)
        .collect();
    if whole.is_empty() {
        return;
    }
    let mut spare = spare_chunks();
    spare.most = spare.most.max(whole.len()).min(MAX_SPARE_CHUNKS);
    let room = spare.most.saturating_sub(spare.chunks.len());
    for mut chunk in whole.into_iter().take(room) {
        chunk.clear();
        spare.chunks.push(chunk);
    }
}

/// The chunks of a [`ChunkedBytes`], in order, as slices.
pub(crate) type Chunks<'a> = std::iter::Chain<
    std::iter::Map<std::slice::Iter<'a, Vec<u8>>, fn(&Vec<u8>) -> &[u8]>,
    std::iter::Once<&'a [u8]>,
>;

/// An append-only byte buffer held in chunks of at most [`CHUNK_LEN`]
/// bytes: the one buffer behind every frontend stream, recorded, loaded
/// or decoded. Appending never copies a whole chunk: the first chunk
/// grows by doubling up to [`CHUNK_LEN`], so a stream shorter than one
/// chunk pays for its own length only, and every later chunk is one
/// whole chunk, spare or newly allocated. A chunk is closed when the
/// next write would not fit it, so a write never straddles two chunks
/// the buffer appended itself, but a buffer read from a file or built
/// from a slice is cut at fixed offsets, so its readers ([`VarReader`],
/// the replay cursor) read across any chunk edge. Dropping a buffer
/// keeps its whole chunks spare. Equality is of the bytes, whatever
/// the chunk edges.
#[derive(Clone, Default)]
pub(crate) struct ChunkedBytes {
    /// The closed chunks, none of them empty.
    full: Vec<Vec<u8>>,
    /// Bytes in `full`.
    full_len: usize,
    /// The open chunk appends go to.
    tail: Vec<u8>,
}

impl ChunkedBytes {
    /// An empty buffer; it allocates on the first append.
    pub(crate) fn new() -> Self {
        ChunkedBytes::default()
    }

    /// A copy of `bytes`, cut into chunks of [`CHUNK_LEN`] bytes and a
    /// last one of the rest.
    #[cfg(test)]
    pub(crate) fn from_slice(bytes: &[u8]) -> Self {
        let mut out = ChunkedBytes::new();
        for piece in bytes.chunks(CHUNK_LEN) {
            let mut chunk = if piece.len() == CHUNK_LEN {
                whole_chunk()
            } else {
                Vec::with_capacity(piece.len())
            };
            chunk.extend_from_slice(piece);
            out.full.push(chunk);
        }
        out.full_len = bytes.len();
        out
    }

    /// A buffer cut at the given chunk edges, for tests of readers at
    /// every edge.
    #[cfg(test)]
    pub(crate) fn from_chunks(chunks: Vec<Vec<u8>>) -> Self {
        let full: Vec<Vec<u8>> = chunks.into_iter().filter(|c| !c.is_empty()).collect();
        ChunkedBytes {
            full_len: full.iter().map(Vec::len).sum(),
            full,
            tail: Vec::new(),
        }
    }

    /// Number of bytes held.
    pub(crate) fn len(&self) -> usize {
        self.full_len + self.tail.len()
    }

    /// The chunks in order (the open one last, possibly empty).
    pub(crate) fn chunks(&self) -> Chunks<'_> {
        let as_slice: fn(&Vec<u8>) -> &[u8] = Vec::as_slice;
        self.full
            .iter()
            .map(as_slice)
            .chain(std::iter::once(self.tail.as_slice()))
    }

    /// The bytes joined into one vector: a stream-sized copy, for tests.
    #[cfg(test)]
    pub(crate) fn to_vec(&self) -> Vec<u8> {
        self.chunks().collect::<Vec<_>>().concat()
    }

    /// The open chunk, with room for `n` more bytes (`n` at most 128):
    /// one write of up to `n` bytes pushed onto it never regrows it. How
    /// the recorder appends an event, with one check for all its fields.
    #[inline(always)]
    pub(crate) fn open_chunk(&mut self, n: usize) -> &mut Vec<u8> {
        if self.tail.capacity() - self.tail.len() < n {
            self.make_room(n);
        }
        &mut self.tail
    }

    /// Grows a short open chunk by doubling, up to [`CHUNK_LEN`], or
    /// closes a chunk too full for `n` more bytes and opens a whole one.
    #[cold]
    #[inline(never)]
    fn make_room(&mut self, n: usize) {
        let (len, cap) = (self.tail.len(), self.tail.capacity());
        if cap < CHUNK_LEN && len + n <= CHUNK_LEN {
            let want = (2 * cap).clamp(256, CHUNK_LEN);
            self.tail.reserve_exact(want - len);
        } else {
            let closed = std::mem::replace(&mut self.tail, whole_chunk());
            if !closed.is_empty() {
                self.full_len += closed.len();
                self.full.push(closed);
            }
        }
    }

    /// Keeps the bytes in `range` and drops the rest, in place: chunks
    /// outside it are freed, and only the first kept chunk moves its
    /// bytes (at most [`CHUNK_LEN`] of them). How a loaded file becomes
    /// its stream without a copy of the stream.
    pub(crate) fn into_range(mut self, range: Range<usize>) -> Self {
        let mut out = ChunkedBytes::new();
        let mut dropped = Vec::new();
        let mut at = 0;
        let chunks = std::mem::take(&mut self.full);
        for mut chunk in chunks.into_iter().chain([std::mem::take(&mut self.tail)]) {
            let start = at;
            at += chunk.len();
            if at <= range.start || start >= range.end {
                dropped.push(chunk);
                continue;
            }
            chunk.truncate(range.end.min(at) - start);
            chunk.drain(..range.start.saturating_sub(start));
            if !chunk.is_empty() {
                out.full_len += chunk.len();
                out.full.push(chunk);
            }
        }
        recycle(dropped);
        out
    }
}

impl Drop for ChunkedBytes {
    fn drop(&mut self) {
        recycle(self.full.drain(..).chain([std::mem::take(&mut self.tail)]));
    }
}

#[cfg(test)]
impl From<Vec<u8>> for ChunkedBytes {
    /// [`ChunkedBytes::from_slice`] of the vector.
    fn from(bytes: Vec<u8>) -> Self {
        ChunkedBytes::from_slice(&bytes)
    }
}

impl PartialEq for ChunkedBytes {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.chunks().flatten().eq(other.chunks().flatten())
    }
}

impl Eq for ChunkedBytes {}

impl fmt::Debug for ChunkedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChunkedBytes")
            .field("len", &self.len())
            .field("chunks", &(self.full.len() + 1))
            .finish()
    }
}

/// No chunks at all: what follows the one slice of a reader over a
/// slice.
fn no_chunks<'a>() -> Chunks<'a> {
    let as_slice: fn(&Vec<u8>) -> &[u8] = Vec::as_slice;
    [].iter().map(as_slice).chain(std::iter::once(&[][..]))
}

/// The zigzag map of a signed value into a varint's range: small
/// magnitudes of either sign stay one byte.
#[inline(always)]
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Reader matching [`VarWriter`] and `ChunkedBytes`, over one slice or
/// across the chunks of a buffer. Running past the end is
/// [`FrameError::Truncated`]; malformed varints are
/// [`FrameError::BadVarint`].
#[derive(Debug)]
pub struct VarReader<'a> {
    /// The chunk being read, cut at the end of the readable bytes.
    bytes: &'a [u8],
    pos: usize,
    /// Bytes in the chunks before `bytes`.
    before: usize,
    /// The chunks after `bytes`, of which `after` bytes are readable.
    later: Chunks<'a>,
    after: usize,
}

impl<'a> VarReader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        VarReader {
            bytes,
            pos: 0,
            before: 0,
            later: no_chunks(),
            after: 0,
        }
    }

    /// A reader at the start of `chunks`, over their first `len` bytes.
    fn over(chunks: Chunks<'a>, len: usize) -> Self {
        let mut r = VarReader {
            bytes: &[],
            pos: 0,
            before: 0,
            later: chunks,
            after: len,
        };
        r.next_chunk();
        r
    }

    /// Moves to the next readable chunk; `false` when none is left.
    #[cold]
    fn next_chunk(&mut self) -> bool {
        while self.after > 0 {
            let Some(chunk) = self.later.next() else {
                self.after = 0;
                break;
            };
            let take = chunk.len().min(self.after);
            if take > 0 {
                self.before += self.bytes.len();
                self.bytes = &chunk[..take];
                self.pos = 0;
                self.after -= take;
                return true;
            }
        }
        false
    }

    /// `true` once every byte has been consumed.
    pub fn done(&self) -> bool {
        self.remaining() == 0
    }

    /// Byte offset of the next read from the start.
    pub fn pos(&self) -> usize {
        self.before + self.pos
    }

    /// How many bytes are left to read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos + self.after
    }

    /// Reads one raw byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, FrameError> {
        if let Some(&b) = self.bytes.get(self.pos) {
            self.pos += 1;
            return Ok(b);
        }
        if !self.next_chunk() {
            return Err(FrameError::Truncated);
        }
        self.pos = 1;
        Ok(self.bytes[0])
    }

    /// Reads `n` raw bytes into a vector of their own; `n` beyond the
    /// bytes left is [`FrameError::Truncated`] before anything is
    /// allocated.
    pub fn get_bytes(&mut self, n: usize) -> Result<Vec<u8>, FrameError> {
        if n > self.remaining() {
            return Err(FrameError::Truncated);
        }
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            if self.pos == self.bytes.len() {
                self.next_chunk();
            }
            let take = (n - out.len()).min(self.bytes.len() - self.pos);
            out.extend_from_slice(&self.bytes[self.pos..self.pos + take]);
            self.pos += take;
        }
        Ok(out)
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

/// A sealed blob read a chunk at a time, with the [`seal_checksum`] of
/// every byte before its trailer, taken as each chunk arrived. It is the
/// one opener of sealed blobs, in memory or in a file:
/// [`body`](Self::body) checks the length, then the header, then the
/// trailer, before any field is parsed.
#[derive(Debug)]
pub(crate) struct SealedImage {
    bytes: ChunkedBytes,
    computed: u64,
}

impl SealedImage {
    /// Reads the file at `path` ([`SealedImage::read_from`] over its
    /// length).
    pub(crate) fn read(path: &Path) -> io::Result<Self> {
        let file = std::fs::File::open(path)?;
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large"))?;
        Self::read_from(file, len)
    }

    /// Reads the `len` bytes of a sealed blob from `src` in chunks of
    /// [`CHUNK_LEN`] bytes (a shorter blob in one allocation of its own
    /// length), hashing each chunk while it is hot. A source that ends
    /// early is [`io::ErrorKind::UnexpectedEof`].
    pub(crate) fn read_from(mut src: impl Read, len: usize) -> io::Result<Self> {
        let covered = len.saturating_sub(SEAL_LEN);
        let mut hasher = SealHasher::default();
        let mut bytes = ChunkedBytes::new();
        bytes.full.reserve_exact(len.div_ceil(CHUNK_LEN));
        while bytes.full_len < len {
            let n = (len - bytes.full_len).min(CHUNK_LEN);
            let mut chunk = if n == CHUNK_LEN {
                whole_chunk()
            } else {
                Vec::with_capacity(n)
            };
            // The chunk has room for exactly `n` bytes, so reading them
            // never regrows it.
            Read::by_ref(&mut src)
                .take(n as u64)
                .read_to_end(&mut chunk)?;
            if chunk.len() < n {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let at = bytes.full_len;
            hasher.update(&chunk[..covered.saturating_sub(at).min(n)]);
            bytes.full_len += n;
            bytes.full.push(chunk);
        }
        Ok(SealedImage {
            bytes,
            computed: hasher.finish(),
        })
    }

    /// The sealed blob in `bytes`, copied into chunks.
    pub(crate) fn of_slice(bytes: &[u8]) -> Self {
        Self::read_from(bytes, bytes.len()).expect("a slice holds its own length")
    }

    /// The blob's length in bytes.
    pub(crate) fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Checks the length, the header and the trailer checksum, in that
    /// order, and returns a reader over the body: its
    /// [`pos`](VarReader::pos) counts from the start of the blob. A blob
    /// shorter than header and trailer is [`FrameError::Truncated`];
    /// header damage is classified ([`check_header`]) before the
    /// checksum runs.
    pub(crate) fn body(&self, magic: [u8; 4], version: u8) -> Result<VarReader<'_>, FrameError> {
        let len = self.bytes.len();
        if len < HEADER_LEN + SEAL_LEN {
            return Err(FrameError::Truncated);
        }
        let mut r = VarReader::over(self.bytes.chunks(), len - SEAL_LEN);
        let mut header = [0; HEADER_LEN];
        for b in &mut header {
            *b = r.get_u8()?;
        }
        check_header(&header, magic, version)?;
        let mut trailer = [0; SEAL_LEN];
        let mut need = SEAL_LEN;
        for chunk in self.bytes.chunks().rev() {
            let take = need.min(chunk.len());
            trailer[need - take..need].copy_from_slice(&chunk[chunk.len() - take..]);
            need -= take;
        }
        let stored = u64::from_le_bytes(trailer);
        if stored != self.computed {
            return Err(FrameError::ChecksumMismatch {
                stored,
                computed: self.computed,
            });
        }
        Ok(r)
    }

    /// The file's bytes in `range`, cut out of its chunks in place
    /// ([`ChunkedBytes::into_range`]).
    pub(crate) fn into_range(self, range: Range<usize>) -> ChunkedBytes {
        self.bytes.into_range(range)
    }
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
/// `r.bytes[start..]` up to the end of what `decode` consumed. A record
/// log is parsed from one slice, so `r.bytes` is all of it.
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
    let mut r = VarReader::new(bytes);
    r.pos = HEADER_LEN;
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
/// old file or the complete new one. The temporary name carries `.tmp`,
/// the process id and a count of the process's writes, so it is this
/// writer's own: two threads saving one entry at once never write into
/// each other's temporary, and the last rename wins whole (stray
/// temporaries are what `store_tool gc` sweeps). It does not fsync:
/// every file written this way is checksummed, so one torn by a power
/// loss is rejected on load, never trusted.
pub fn write_atomic(path: &Path, parts: &[&[u8]]) -> io::Result<()> {
    static WRITES: AtomicU64 = AtomicU64::new(0);
    let nth = WRITES.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp{}-{nth}", std::process::id()));
    std::fs::File::create(&tmp)
        .and_then(|mut f| write_all_parts(&mut f, parts))
        .and_then(|()| std::fs::rename(&tmp, path))
        .inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
}

/// Writes `parts` in turn with vectored writes: a stream's chunks go
/// out in a few system calls, not one each.
fn write_all_parts(out: &mut impl Write, parts: &[&[u8]]) -> io::Result<()> {
    let mut slices: Vec<IoSlice<'_>> = parts.iter().map(|part| IoSlice::new(part)).collect();
    let mut rest = &mut slices[..];
    IoSlice::advance_slices(&mut rest, 0);
    while !rest.is_empty() {
        match out.write_vectored(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
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

    /// Opens `image` as a sealed blob; its body's length.
    fn open(image: &[u8]) -> Result<usize, FrameError> {
        let image = SealedImage::of_slice(image);
        let body = image.body(MAGIC, 1);
        body.map(|r| r.remaining())
    }

    /// What opening `image` with `bits` flipped must report: header
    /// damage is classified before the checksum runs, and everything
    /// else is a checksum mismatch.
    fn assert_rejected(image: &[u8], bits: &[usize]) {
        let err = open(image).unwrap_err();
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
            let err = open(&image[..cut]).unwrap_err();
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
        let mut w = VarWriter::with_header(MAGIC, 1);
        w.put_varint(300);
        let sealed = seal(w.into_bytes());
        let image = SealedImage::of_slice(&sealed);
        let mut body = image.body(MAGIC, 1).unwrap();
        assert_eq!(body.get_varint(), Ok(300));
        assert!(body.done());
        for cut in 0..sealed.len() {
            assert!(open(&sealed[..cut]).is_err());
        }
        let mut flipped = sealed.clone();
        flipped[HEADER_LEN] ^= 1;
        assert!(matches!(
            open(&flipped),
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

    #[test]
    fn concurrent_writers_of_one_path_never_tear_it() {
        // Two threads of one process save different 1 MiB images to one
        // path at once, in 4 KiB parts, as two frontend groups with one
        // fingerprint save one store entry. Every save must succeed, and
        // the file must then hold one of the images whole.
        let dir = std::env::temp_dir().join(format!("nsf-frame-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry.nsfq");
        let images: Vec<Vec<u8>> = (0..2u8)
            .map(|k| {
                (0..1u32 << 20)
                    .map(|i| (i % 251) as u8 ^ (0x5A * k))
                    .collect()
            })
            .collect();
        let barrier = std::sync::Barrier::new(images.len());
        for round in 0..200 {
            std::thread::scope(|s| {
                for image in &images {
                    let (barrier, path) = (&barrier, &path);
                    s.spawn(move || {
                        let parts: Vec<&[u8]> = image.chunks(4096).collect();
                        barrier.wait();
                        write_atomic(path, &parts)
                            .unwrap_or_else(|e| panic!("round {round}: save failed: {e}"));
                    });
                }
            });
            let got = std::fs::read(&path).unwrap();
            assert!(images.contains(&got), "round {round}: the entry is torn");
        }
        let names: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(names.len(), 1, "no temporary left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The widest varint.
    const VARINT_LEN: usize = 10;

    /// Varints of every width, and raw bytes, as both writers encode them.
    fn mixed_fields(n: u64, w: &mut impl FnMut(Option<u8>, u64)) {
        for i in 0..n {
            w(Some((i % 13) as u8), 0);
            w(None, i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (i % 64));
        }
    }

    #[test]
    fn chunked_appends_match_the_flat_writer_in_bounded_chunks() {
        let mut flat = VarWriter::new();
        let mut chunked = ChunkedBytes::new();
        mixed_fields(150_000, &mut |byte, v| match byte {
            Some(b) => {
                flat.put_u8(b);
                chunked.open_chunk(1).push(b);
            }
            None => {
                flat.put_varint(v);
                put_varint(chunked.open_chunk(VARINT_LEN), v);
            }
        });
        let flat = flat.into_bytes();
        assert!(flat.len() > 10 * CHUNK_LEN, "{}", flat.len());
        assert_eq!(chunked.len(), flat.len());
        assert_eq!(chunked.to_vec(), flat);
        assert_eq!(
            chunked,
            ChunkedBytes::from_slice(&flat),
            "equal across edges"
        );
        // Closed chunks are full but for the room a varint did not find.
        for chunk in &chunked.full {
            assert!(chunk.capacity() <= CHUNK_LEN, "{}", chunk.capacity());
            assert!(chunk.len() > CHUNK_LEN - VARINT_LEN, "{}", chunk.len());
        }
        assert!(chunked.tail.capacity() <= CHUNK_LEN);
    }

    #[test]
    fn a_short_buffer_pays_for_its_own_length_only() {
        let mut short = ChunkedBytes::new();
        for i in 0..100 {
            put_varint(short.open_chunk(VARINT_LEN), i);
        }
        assert_eq!(short.len(), 100);
        assert_eq!(short.tail.capacity(), 256);
        let copied = ChunkedBytes::from_slice(&[7; 300]);
        assert_eq!(copied.full.iter().map(Vec::capacity).sum::<usize>(), 300);
        assert!(ChunkedBytes::from_slice(&[]).full.is_empty());
    }

    #[test]
    fn into_range_keeps_exactly_the_range_in_place() {
        let bytes: Vec<u8> = (0..1000u32).map(|i| (i * 7) as u8).collect();
        let edges = [0, 1, 2, 5, 64, 300, 301, 999, 1000];
        let chunked = || {
            let cuts = [0, 3, 4, 200, 513, 1000];
            ChunkedBytes::from_chunks(
                cuts.windows(2)
                    .map(|w| bytes[w[0]..w[1]].to_vec())
                    .collect(),
            )
        };
        for &start in &edges {
            for &end in edges.iter().filter(|&&e| e >= start) {
                let kept = chunked().into_range(start..end);
                assert_eq!(kept.to_vec(), &bytes[start..end], "{start}..{end}");
                assert_eq!(kept.len(), end - start);
                assert!(kept.full.iter().all(|c| !c.is_empty()));
            }
        }
    }

    #[test]
    fn reader_reads_across_every_chunk_edge() {
        let mut w = VarWriter::new();
        let mut want = Vec::new();
        mixed_fields(20, &mut |byte, v| match byte {
            Some(b) => w.put_u8(b),
            None => {
                w.put_varint(v);
                want.push(v);
            }
        });
        w.put_bytes(b"tail bytes");
        let bytes = w.into_bytes();
        let read_all = |chunks: Vec<Vec<u8>>| {
            let stream = ChunkedBytes::from_chunks(chunks);
            let mut r = VarReader::over(stream.chunks(), stream.len());
            let mut got = Vec::new();
            for i in 0..want.len() {
                assert_eq!(r.get_u8(), Ok((i % 13) as u8));
                got.push(r.get_varint().unwrap());
            }
            assert_eq!(r.remaining(), 10);
            assert_eq!(r.pos(), bytes.len() - 10);
            assert_eq!(r.get_bytes(11), Err(FrameError::Truncated));
            assert_eq!(r.get_bytes(10).unwrap(), b"tail bytes");
            assert!(r.done());
            assert_eq!(r.get_u8(), Err(FrameError::Truncated));
            got
        };
        for cut in 0..=bytes.len() {
            let (a, b) = bytes.split_at(cut);
            assert_eq!(read_all(vec![a.to_vec(), b.to_vec()]), want, "cut {cut}");
        }
        for width in 1..8 {
            let chunks = bytes.chunks(width).map(<[u8]>::to_vec).collect();
            assert_eq!(read_all(chunks), want, "width {width}");
        }
        // A reader over a prefix stops at its end, whatever follows.
        let stream = ChunkedBytes::from_chunks(vec![bytes[..3].to_vec(), bytes[3..].to_vec()]);
        let mut r = VarReader::over(stream.chunks(), 5);
        assert_eq!(r.get_bytes(5).unwrap(), &bytes[..5]);
        assert_eq!(r.get_u8(), Err(FrameError::Truncated));
    }

    #[test]
    fn a_sealed_file_opens_as_its_bytes_open() {
        let dir = std::env::temp_dir().join(format!("nsf-frame-sealed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("image.nsfq");
        let mut w = VarWriter::with_header(MAGIC, 1);
        for i in 0..3 * CHUNK_LEN as u32 / 2 {
            w.put_u8(i as u8);
        }
        let image = seal(w.into_bytes());
        let chunk_edge = CHUNK_LEN;
        let mut cases = vec![image.clone(), image[..chunk_edge].to_vec(), Vec::new()];
        for cut in [3, 5, 12, 13, chunk_edge + 1, image.len() - 1] {
            cases.push(image[..cut].to_vec());
        }
        for at in [
            0,
            4,
            5,
            chunk_edge - 1,
            chunk_edge,
            image.len() - 5,
            image.len() - 1,
        ] {
            let mut flipped = image.clone();
            flipped[at] ^= 0x10;
            cases.push(flipped);
        }
        for bytes in cases {
            std::fs::write(&path, &bytes).unwrap();
            let read = SealedImage::read(&path).unwrap();
            assert_eq!(read.len(), bytes.len());
            let want = match bytes.len() {
                n if n < HEADER_LEN + SEAL_LEN => Err(FrameError::Truncated),
                _ if bytes[..4] != MAGIC => {
                    Err(FrameError::BadMagic(bytes[..4].try_into().unwrap()))
                }
                _ if bytes[4] != 1 => Err(FrameError::UnsupportedVersion(bytes[4])),
                n if bytes != image => Err(FrameError::ChecksumMismatch {
                    stored: u64::from_le_bytes(bytes[n - SEAL_LEN..].try_into().unwrap()),
                    computed: seal_checksum(&bytes[..n - SEAL_LEN]),
                }),
                n => Ok(n - HEADER_LEN - SEAL_LEN),
            };
            let got = read.body(MAGIC, 1).map(|r| r.remaining());
            assert_eq!(got, want, "{} bytes", bytes.len());
            assert_eq!(open(&bytes), want, "{} bytes in memory", bytes.len());
            if got.is_ok() {
                let end = bytes.len() - SEAL_LEN;
                assert_eq!(
                    read.into_range(HEADER_LEN..end).to_vec(),
                    &bytes[HEADER_LEN..end]
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
