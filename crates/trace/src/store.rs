//! Persistent content-addressed store for captured frontend streams.
//!
//! [`crate::fcache`] pays each workload's frontend once *per process*;
//! this module makes that capture an artifact that outlives the process.
//! A [`StreamStore`] is a directory (by convention `results/store/`) of
//! `.nsfs` files, one per captured [`FrontendBuffer`], each named by and
//! keyed on a **content fingerprint** over everything that determines
//! the event stream:
//!
//! * the workload's full content — name, encoded program words, entry
//!   point, and every staged memory block (workload id + seed + scale
//!   are all reflected here, since the generators are deterministic);
//! * every frontend-relevant [`SimConfig`] field, exactly the
//!   [`SimConfig::frontend_eq`] set, via
//!   [`SimConfig::frontend_fingerprint_fields`];
//! * the store format and fingerprint-schema versions.
//!
//! Two sweep points agree on the fingerprint **iff** a stream captured
//! for one is a valid replay source for the other, so any binary or run
//! that captured a stream earlier can serve any later one — including
//! singleton and narrow frontend groups that are too small to amortize
//! a live capture on their own.
//!
//! ## Trust: never
//!
//! A store entry is an optimization, never an authority. The file is the
//! sealed stream container `.nsftrace` files use too, with the
//! fingerprint as its identity block; its seal
//! ([`crate::frame::seal_checksum`]) is checked before any field is
//! parsed, and every failure mode (foreign magic, unknown version,
//! truncation, bit corruption, a field or stream length that does not
//! decode, fingerprint mismatch) is a typed [`StoreError`]; callers fall
//! back to live capture. [`validate_stream_file`] runs the loader's
//! chunked read and decoder without keeping the stream, so `store_tool`
//! counts an entry as intact exactly when it loads.
//!
//! ## Memory: one stream, in chunks
//!
//! A stream is never one allocation. [`StreamStore::save_stream`] seals
//! and writes the captured `crate::frame::ChunkedBytes` chunk by
//! chunk; [`StreamStore::load_stream`] reads the file a 64 KiB chunk at
//! a time, hashing each as it arrives, and cuts the stream out of the
//! file's own chunks in place. So a warm hit holds one copy of its
//! stream and no allocation is the size of a stream or a file. Even a
//! loaded stream is still subject to the full equivalence wall: replay
//! checks every value-bearing event against the recording
//! ([`nsf_sim::SimError::LaneDivergence`]) and every lane against the
//! workload's output check, so a corrupted-but-checksummed entry can
//! never silently produce statistics.

use crate::fcache::FrontendBuffer;
use crate::frame::{
    write_atomic, ChunkedBytes, Fnv64, FrameError, SealHasher, SealedImage, VarReader, VarWriter,
    SEAL_LEN,
};
use nsf_mem::CacheStats;
use nsf_sim::{OccupancySummary, RunReport, SimConfig};
use nsf_workloads::Workload;
use std::fmt;
use std::io::{self, ErrorKind};
use std::path::{Path, PathBuf};

/// File magic for persisted stream entries ("Named-State File Stream").
pub const STORE_MAGIC: [u8; 4] = *b"NSFS";

/// Store format version. Bump on any change to the entry layout —
/// including the frontend cache's event encoding, which entries persist
/// verbatim; old entries are then rejected as
/// [`FrameError::UnsupportedVersion`] and recaptured live. The version
/// also feeds [`stream_fingerprint`], so a bump changes every key as
/// well. Version 2 seals with [`crate::frame::seal_checksum`] instead of
/// FNV-1a-64; the body after the fingerprint is byte-identical to
/// version 1's.
pub const STORE_VERSION: u8 = 2;

/// Everything that can go wrong loading or validating a store entry.
/// Every variant is a *reject and recapture live* signal — none is
/// fatal to the run that hits it.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure (not "file absent" — that is a plain miss).
    Io(io::Error),
    /// The entry's framing is damaged: foreign magic, unknown version,
    /// truncation (a torn write, or fields that do not add up to the
    /// body), a malformed field, or a checksum mismatch.
    Frame(FrameError),
    /// The entry's embedded fingerprint is not the requested one (a
    /// renamed or misfiled entry).
    FingerprintMismatch {
        /// Fingerprint the caller asked for.
        expected: u64,
        /// Fingerprint found in the entry.
        found: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Frame(e) => write!(f, "corrupt stream-store entry: {e}"),
            StoreError::FingerprintMismatch { expected, found } => write!(
                f,
                "stream-store fingerprint mismatch: expected {expected:#018x}, \
                 entry holds {found:#018x}"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Frame(e) => Some(e),
            StoreError::FingerprintMismatch { .. } => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<FrameError> for StoreError {
    fn from(e: FrameError) -> Self {
        StoreError::Frame(e)
    }
}

/// Content fingerprint for `workload`'s frontend event stream under
/// `cfg`: an FNV-1a-64 over the store version, the workload's full
/// content (name, program words, entry point, staged memory), and the
/// [`SimConfig::frontend_fingerprint_fields`] sequence. Returns `None`
/// when the program cannot be encoded to words (such a workload simply
/// bypasses the store). Any change to a fingerprint input — workload
/// generator output, frontend configuration, either format version —
/// produces a new key, which is the store's entire invalidation rule.
pub fn stream_fingerprint(workload: &Workload, cfg: &SimConfig) -> Option<u64> {
    let words = workload.program.to_words().ok()?;
    let mut h = Fnv64::new();
    h.word(u64::from(STORE_VERSION));
    h.word(workload.name.len() as u64);
    h.update(workload.name.as_bytes());
    h.word(words.len() as u64);
    for w in &words {
        h.word(u64::from(*w));
    }
    h.word(u64::from(workload.program.entry()));
    h.word(workload.mem_init.len() as u64);
    for (addr, block) in &workload.mem_init {
        h.word(u64::from(*addr));
        h.word(block.len() as u64);
        for w in block {
            h.word(u64::from(*w));
        }
    }
    cfg.frontend_fingerprint_fields(&mut |v| h.word(v));
    Some(h.finish())
}

/// A sealed stream image, the one container of `.nsfs` entries and
/// `.nsftrace` files: a head of `magic | version | identity | events |
/// shared cycles | report | stream length`, the stream, and the seal
/// over both. Only the identity block is the format's own. The stream
/// is borrowed: the seal is taken over the head and then the stream
/// chunk by chunk, and a file gets the head, each chunk and the seal in
/// turn as [`parts`](Self::parts).
pub(crate) struct SealedStream<'a> {
    head: Vec<u8>,
    stream: &'a ChunkedBytes,
    seal: [u8; SEAL_LEN],
}

impl<'a> SealedStream<'a> {
    /// Encodes the container; `identity` writes the identity block.
    pub(crate) fn new(
        (magic, version): ([u8; 4], u8),
        identity: impl FnOnce(&mut VarWriter),
        events: u64,
        shared_cycles: u64,
        report: &RunReport,
        stream: &'a ChunkedBytes,
    ) -> Self {
        let mut w = VarWriter::with_header(magic, version);
        identity(&mut w);
        w.put_varint(events);
        w.put_varint(shared_cycles);
        encode_report(&mut w, report);
        w.put_varint(stream.len() as u64);
        let head = w.into_bytes();
        let mut seal = SealHasher::default();
        seal.update(&head);
        stream.chunks().for_each(|chunk| seal.update(chunk));
        let seal = seal.finish().to_le_bytes();
        SealedStream { head, stream, seal }
    }

    /// The image as the slices it is made of, in order.
    pub(crate) fn parts(&self) -> Vec<&[u8]> {
        let mut parts = vec![self.head.as_slice()];
        parts.extend(self.stream.chunks());
        parts.push(&self.seal);
        parts
    }
}

/// The fields of a sealed stream image between identity and stream.
pub(crate) struct StreamTail {
    pub(crate) events: u64,
    pub(crate) shared_cycles: u64,
    pub(crate) report: RunReport,
}

/// The one decoder, on `body`, a reader over an image's bytes after its
/// header and before its seal, both already checked: decodes the
/// identity block with `identity`, then the tail, and checks that the
/// stream runs exactly to the end of the body. Returns, beside the
/// fields, the reader's [`pos`](VarReader::pos) where the stream starts.
fn open_sealed_stream<I, E: From<FrameError>>(
    mut body: VarReader<'_>,
    identity: impl FnOnce(&mut VarReader<'_>) -> Result<I, E>,
) -> Result<(I, StreamTail, usize), E> {
    let id = identity(&mut body)?;
    let tail = StreamTail {
        events: body.get_varint()?,
        shared_cycles: body.get_varint()?,
        report: decode_report(&mut body)?,
    };
    // Compared, not added, so no length can overflow.
    let stream_len = body.get_varint()?;
    if stream_len != body.remaining() as u64 {
        return Err(FrameError::Truncated.into());
    }
    Ok((id, tail, body.pos()))
}

/// [`open_sealed_stream`] on an image read a chunk at a time
/// ([`SealedImage`], from a file or a slice); the stream is cut out of
/// the image's own chunks in place, so a loaded stream holds one copy of
/// it and no allocation is the size of the image.
pub(crate) fn decode_sealed_image<I, E: From<FrameError>>(
    image: SealedImage,
    (magic, version): ([u8; 4], u8),
    identity: impl FnOnce(&mut VarReader<'_>) -> Result<I, E>,
) -> Result<(I, StreamTail, ChunkedBytes), E> {
    let (id, tail, start) = open_sealed_stream(image.body(magic, version)?, identity)?;
    let end = image.len() - SEAL_LEN;
    Ok((id, tail, image.into_range(start..end)))
}

/// The `.nsfs` magic and version.
const STORE_FORMAT: ([u8; 4], u8) = (STORE_MAGIC, STORE_VERSION);

/// The `.nsfs` identity block: the fingerprint, which must be `expected`.
fn fingerprint_is(expected: u64) -> impl FnOnce(&mut VarReader<'_>) -> Result<(), StoreError> {
    move |r| match r.get_varint()? {
        found if found == expected => Ok(()),
        found => Err(StoreError::FingerprintMismatch { expected, found }),
    }
}

/// `buf` as the store entry for `fingerprint`.
fn sealed_entry(fingerprint: u64, buf: &FrontendBuffer) -> SealedStream<'_> {
    SealedStream::new(
        STORE_FORMAT,
        |w| w.put_varint(fingerprint),
        buf.events,
        buf.shared_cycles,
        &buf.report,
        &buf.bytes,
    )
}

/// The buffer a decoded entry holds, under the caller's `cfg`.
fn buffer(cfg: &SimConfig, tail: StreamTail, bytes: ChunkedBytes) -> FrontendBuffer {
    FrontendBuffer {
        cfg: *cfg,
        bytes,
        events: tail.events,
        shared_cycles: tail.shared_cycles,
        report: tail.report,
    }
}

/// Serializes `buf` into a self-checking store entry for `fingerprint`.
pub fn encode_stream(fingerprint: u64, buf: &FrontendBuffer) -> Vec<u8> {
    sealed_entry(fingerprint, buf).parts().concat()
}

/// Runs the checks [`StreamStore::load_stream`] runs on a raw entry,
/// without keeping the stream: an entry passes here exactly when it
/// loads.
pub fn validate_stream_bytes(bytes: &[u8], expected: u64) -> Result<(), StoreError> {
    decode_sealed_image(
        SealedImage::of_slice(bytes),
        STORE_FORMAT,
        fingerprint_is(expected),
    )
    .map(drop)
}

/// [`validate_stream_bytes`] on the entry file at `path`, read a chunk
/// at a time as [`StreamStore::load_stream`] reads it (what `store_tool`
/// runs over every file). An unreadable file is [`StoreError::Io`].
pub fn validate_stream_file(path: &Path, expected: u64) -> Result<(), StoreError> {
    decode_sealed_image(
        SealedImage::read(path)?,
        STORE_FORMAT,
        fingerprint_is(expected),
    )
    .map(drop)
}

/// Decodes a store entry back into a [`FrontendBuffer`], copying the
/// stream out of `bytes` into chunks. `cfg` becomes
/// the buffer's configuration: the fingerprint covers exactly the
/// [`SimConfig::frontend_eq`] field set, so a fingerprint match proves
/// the entry was captured under a frontend-equal configuration and the
/// caller's own is interchangeable with the original.
pub fn decode_stream(
    bytes: &[u8],
    expected: u64,
    cfg: &SimConfig,
) -> Result<FrontendBuffer, StoreError> {
    let image = SealedImage::of_slice(bytes);
    let ((), tail, stream) = decode_sealed_image(image, STORE_FORMAT, fingerprint_is(expected))?;
    Ok(buffer(cfg, tail, stream))
}

fn encode_report(w: &mut VarWriter, r: &RunReport) {
    w.put_varint(r.regfile_desc.len() as u64);
    w.put_bytes(r.regfile_desc.as_bytes());
    w.put_varint(u64::from(r.regfile_capacity));
    w.put_varint(r.instructions);
    w.put_varint(r.cycles);
    w.put_varint(r.idle_cycles);
    for c in &r.class_counts {
        w.put_varint(*c);
    }
    w.put_varint(r.context_switches);
    w.put_varint(r.thread_switches);
    w.put_varint(r.calls);
    w.put_varint(r.returns);
    w.put_varint(r.spawns);
    w.put_varint(r.static_instructions as u64);
    for (_, v) in r.regfile.fields() {
        w.put_varint(v);
    }
    encode_cache(w, &r.dcache);
    w.put_varint(r.occupancy.samples);
    w.put_varint(r.occupancy.sum_valid_regs);
    w.put_varint(r.occupancy.sum_contexts);
    w.put_varint(u64::from(r.occupancy.max_valid_regs));
    w.put_varint(u64::from(r.occupancy.max_contexts));
    w.put_varint(r.thread_instructions.len() as u64);
    for t in &r.thread_instructions {
        w.put_varint(*t);
    }
    match &r.icache {
        None => w.put_u8(0),
        Some(c) => {
            w.put_u8(1);
            encode_cache(w, c);
        }
    }
}

fn encode_cache(w: &mut VarWriter, c: &CacheStats) {
    w.put_varint(c.accesses);
    w.put_varint(c.hits);
    w.put_varint(c.misses);
    w.put_varint(c.writebacks);
}

fn decode_report(r: &mut VarReader<'_>) -> Result<RunReport, FrameError> {
    let mut rep = RunReport::default();
    let desc_len: usize = r.get_int()?;
    let desc = r.get_bytes(desc_len)?;
    rep.regfile_desc = String::from_utf8(desc).map_err(|_| FrameError::BadVarint)?;
    rep.regfile_capacity = r.get_int()?;
    rep.instructions = r.get_varint()?;
    rep.cycles = r.get_varint()?;
    rep.idle_cycles = r.get_varint()?;
    for c in &mut rep.class_counts {
        *c = r.get_varint()?;
    }
    rep.context_switches = r.get_varint()?;
    rep.thread_switches = r.get_varint()?;
    rep.calls = r.get_varint()?;
    rep.returns = r.get_varint()?;
    rep.spawns = r.get_varint()?;
    rep.static_instructions = r.get_int()?;
    for (_, v) in rep.regfile.fields_mut() {
        *v = r.get_varint()?;
    }
    rep.dcache = decode_cache(r)?;
    rep.occupancy = OccupancySummary {
        samples: r.get_varint()?,
        sum_valid_regs: r.get_varint()?,
        sum_contexts: r.get_varint()?,
        max_valid_regs: r.get_int()?,
        max_contexts: r.get_int()?,
    };
    let threads: usize = r.get_int()?;
    let mut ti = Vec::with_capacity(threads.min(1 << 16));
    for _ in 0..threads {
        ti.push(r.get_varint()?);
    }
    rep.thread_instructions = ti;
    rep.icache = match r.get_u8()? {
        0 => None,
        1 => Some(decode_cache(r)?),
        _ => return Err(FrameError::BadVarint),
    };
    Ok(rep)
}

fn decode_cache(r: &mut VarReader<'_>) -> Result<CacheStats, FrameError> {
    Ok(CacheStats {
        accesses: r.get_varint()?,
        hits: r.get_varint()?,
        misses: r.get_varint()?,
        writebacks: r.get_varint()?,
    })
}

/// A directory of persisted stream entries, one `.nsfs` file per
/// fingerprint. Opening is lazy — the directory is created on the first
/// save, so a read-only consumer never writes anything.
#[derive(Clone, Debug)]
pub struct StreamStore {
    dir: PathBuf,
}

impl StreamStore {
    /// A store rooted at `dir` (typically `results/store/`).
    pub fn open(dir: impl Into<PathBuf>) -> Self {
        StreamStore { dir: dir.into() }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the entry for `fingerprint`.
    pub fn stream_path(&self, fingerprint: u64) -> PathBuf {
        self.dir.join(format!("{fingerprint:016x}.nsfs"))
    }

    /// Loads the entry for `fingerprint`, if present and intact.
    /// `Ok(None)` is a plain miss (no file); any present-but-unusable
    /// entry is a typed error so the caller can decide to delete it.
    ///
    /// The file is read a chunk at a time (`SealedImage::read`), each
    /// chunk hashed as it arrives; the seal is checked before any field
    /// is parsed, and the stream is then cut out of the file's own
    /// chunks in place. Every damaged entry fails with the error
    /// [`decode_stream`] gives on its bytes.
    pub fn load_stream(
        &self,
        fingerprint: u64,
        cfg: &SimConfig,
    ) -> Result<Option<FrontendBuffer>, StoreError> {
        let image = match SealedImage::read(&self.stream_path(fingerprint)) {
            Ok(image) => image,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::Io(e)),
        };
        let ((), tail, stream) =
            decode_sealed_image(image, STORE_FORMAT, fingerprint_is(fingerprint))?;
        Ok(Some(buffer(cfg, tail, stream)))
    }

    /// Persists `buf` as the entry for `fingerprint` with
    /// [`write_atomic`], its stream written chunk by chunk, so concurrent
    /// readers, concurrent savers and a crash mid-write can only ever
    /// observe a complete entry or none.
    pub fn save_stream(&self, fingerprint: u64, buf: &FrontendBuffer) -> Result<(), StoreError> {
        std::fs::create_dir_all(&self.dir)?;
        let entry = sealed_entry(fingerprint, buf);
        Ok(write_atomic(
            &self.stream_path(fingerprint),
            &entry.parts(),
        )?)
    }

    /// Removes the entry for `fingerprint` (used when a loaded entry
    /// fails replay: delete, recapture live, re-save). Absence is fine.
    pub fn remove_stream(&self, fingerprint: u64) {
        let _ = std::fs::remove_file(self.stream_path(fingerprint));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fcache::{capture_frontend, replay_frontend};
    use crate::frame::seal;
    use nsf_sim::RegFileSpec;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// One capture shared across every test/proptest case: capture is
    /// the expensive part and the tests only mutate encoded copies.
    fn captured() -> &'static (Workload, SimConfig, FrontendBuffer, u64) {
        static CAP: OnceLock<(Workload, SimConfig, FrontendBuffer, u64)> = OnceLock::new();
        CAP.get_or_init(|| {
            let w = nsf_workloads::gatesim::build(0);
            let cfg = SimConfig::with_regfile(RegFileSpec::paper_nsf(80));
            let buf = capture_frontend(&w, cfg).unwrap();
            let fp = stream_fingerprint(&w, &cfg).unwrap();
            (w, cfg, buf, fp)
        })
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let (_, cfg, buf, fp) = captured();
        let bytes = encode_stream(*fp, buf);
        let back = decode_stream(&bytes, *fp, cfg).unwrap();
        assert_eq!(back.bytes, buf.bytes, "stream bytes must survive");
        assert_eq!(back.events, buf.events);
        assert_eq!(back.shared_cycles, buf.shared_cycles);
        assert_eq!(back.report, buf.report);
        assert_eq!(encode_stream(*fp, &back), bytes, "re-encode is stable");
    }

    #[test]
    fn save_load_through_a_directory() {
        let (_, cfg, buf, fp) = captured();
        let dir = std::env::temp_dir().join(format!("nsfs-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = StreamStore::open(&dir);
        assert!(store.load_stream(*fp, cfg).unwrap().is_none(), "cold miss");
        store.save_stream(*fp, buf).unwrap();
        let back = store.load_stream(*fp, cfg).unwrap().expect("warm hit");
        assert_eq!(back.bytes, buf.bytes);
        assert_eq!(back.report, buf.report);
        store.remove_stream(*fp);
        assert!(store.load_stream(*fp, cfg).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A buffer under `cfg` whose stream is exactly `len` bytes: when
    /// there is room, a switch, a write and a read of the written value
    /// (10 bytes), then one-byte occupancy samples.
    fn stream_of_len(cfg: &SimConfig, len: usize) -> FrontendBuffer {
        use nsf_core::{LaneOp, RegAddr};
        use nsf_sim::FrontendProbe;
        let mut rec = crate::fcache::FrontendRecorder::default();
        if len >= 10 {
            let reg = RegAddr::new(1, 3);
            rec.reg_op(LaneOp::SwitchTo(1), None);
            rec.reg_op(LaneOp::Write(reg, 5), None);
            rec.reg_op(LaneOp::Read(reg), Some(5));
        }
        while rec.stream_len() < len {
            rec.occupancy_sample();
        }
        let stream = rec.into_stream(Vec::new());
        assert_eq!(stream.encoded_len(), len);
        FrontendBuffer {
            cfg: *cfg,
            bytes: stream.bytes,
            events: stream.events,
            shared_cycles: 0,
            report: RunReport::default(),
        }
    }

    fn temp_store(name: &str) -> StreamStore {
        let dir = std::env::temp_dir().join(format!("nsfs-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        StreamStore::open(dir)
    }

    #[test]
    fn loaded_entries_replay_like_the_captured_buffer_at_every_length() {
        use crate::frame::CHUNK_LEN;
        let (_, cfg, _, fp) = captured();
        let w = Workload {
            name: "chunk_lengths",
            parallel: false,
            program: nsf_isa::asm::assemble("main: halt").unwrap(),
            source_lines: 0,
            mem_init: Vec::new(),
            check: Box::new(|_| Ok(())),
        };
        let cfgs = [
            *cfg,
            SimConfig {
                regfile: RegFileSpec::paper_segmented(4, 32),
                ..*cfg
            },
        ];
        let store = temp_store("lengths");
        for len in [
            0,
            1,
            CHUNK_LEN - 1,
            CHUNK_LEN,
            CHUNK_LEN + 1,
            3 * CHUNK_LEN + 5,
        ] {
            let buf = stream_of_len(cfg, len);
            store.save_stream(*fp, &buf).unwrap();
            let loaded = store.load_stream(*fp, cfg).unwrap().expect("hit");
            assert!(loaded.bytes == buf.bytes, "{len} bytes");
            assert_eq!(
                replay_frontend(&loaded, &w, &cfgs).unwrap(),
                replay_frontend(&buf, &w, &cfgs).unwrap(),
                "{len} bytes"
            );
        }
        // A real multi-chunk stream, every engine family.
        let zip = nsf_workloads::zipfile::build(0);
        let buf = capture_frontend(&zip, *cfg).unwrap();
        assert!(buf.encoded_len() > 4 * CHUNK_LEN, "{}", buf.encoded_len());
        let zfp = stream_fingerprint(&zip, cfg).unwrap();
        store.save_stream(zfp, &buf).unwrap();
        let loaded = store.load_stream(zfp, cfg).unwrap().expect("hit");
        let cfgs: Vec<SimConfig> = [
            RegFileSpec::paper_nsf(64),
            RegFileSpec::paper_segmented(4, 32),
            RegFileSpec::sparc_windows(32),
            RegFileSpec::Oracle,
        ]
        .into_iter()
        .map(|regfile| SimConfig { regfile, ..*cfg })
        .collect();
        assert_eq!(
            replay_frontend(&loaded, &zip, &cfgs).unwrap(),
            replay_frontend(&buf, &zip, &cfgs).unwrap()
        );
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn chunked_load_fails_like_decode_stream() {
        use crate::frame::CHUNK_LEN;
        let (_, cfg, buf, fp) = captured();
        let store = temp_store("damage");
        store.save_stream(*fp, buf).unwrap();
        let path = store.stream_path(*fp);
        let good = std::fs::read(&path).unwrap();
        let loaded = store.load_stream(*fp, cfg).unwrap().expect("hit");
        let decoded = decode_stream(&good, *fp, cfg).unwrap();
        assert!(loaded.bytes == decoded.bytes);
        assert!(loaded.bytes == buf.bytes);
        assert_eq!(
            (loaded.events, loaded.shared_cycles, &loaded.report),
            (decoded.events, decoded.shared_cycles, &decoded.report)
        );
        assert!(loaded.cfg.frontend_eq(&decoded.cfg));
        // Damaged entries fail through all three paths with the same
        // typed error: foreign magic, a torn write, a flipped bit, a stream
        // length that disagrees with the body, and a misfiled entry; and
        // on a multi-chunk entry, a tear at a chunk edge and a flip in the
        // seal.
        let mut magic = good.clone();
        magic[0] ^= 0xFF;
        let mut flipped = good.clone();
        flipped[good.len() / 2] ^= 0x10;
        let mut body = good[..good.len() - SEAL_LEN].to_vec();
        body.push(0);
        let misfiled = encode_stream(fp.wrapping_add(1), buf);
        let big = encode_stream(*fp, &stream_of_len(cfg, 2 * CHUNK_LEN + 100));
        let mut big_seal = big.clone();
        big_seal[big.len() - 3] ^= 0x01;
        for bad in [
            magic,
            good[..good.len() - 3].to_vec(),
            flipped,
            seal(body),
            misfiled,
            big[..CHUNK_LEN].to_vec(),
            big[..2 * CHUNK_LEN].to_vec(),
            big_seal,
        ] {
            std::fs::write(&path, &bad).unwrap();
            let via_load = store.load_stream(*fp, cfg).unwrap_err();
            let via_file = validate_stream_file(&path, *fp).unwrap_err();
            let via_decode = decode_stream(&bad, *fp, cfg).unwrap_err();
            let via_validate = validate_stream_bytes(&bad, *fp).unwrap_err();
            assert_eq!(format!("{via_load:?}"), format!("{via_decode:?}"));
            assert_eq!(format!("{via_load:?}"), format!("{via_validate:?}"));
            assert_eq!(format!("{via_load:?}"), format!("{via_file:?}"));
        }
        std::fs::write(&path, &big).unwrap();
        assert!(validate_stream_file(&path, *fp).is_ok());
        assert!(matches!(
            validate_stream_file(&store.stream_path(0), 0),
            Err(StoreError::Io(_))
        ));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn fingerprint_separates_frontends_not_engines() {
        let (w, cfg, _, fp) = captured();
        // A different register file is frontend-equal: same stream key.
        let other_engine = SimConfig {
            regfile: RegFileSpec::paper_segmented(4, 32),
            ..*cfg
        };
        assert_eq!(stream_fingerprint(w, &other_engine), Some(*fp));
        // Any frontend_eq field change must change the key.
        let other_frontend = SimConfig {
            sample_interval: cfg.sample_interval + 1,
            ..*cfg
        };
        assert_ne!(stream_fingerprint(w, &other_frontend), Some(*fp));
        // And so must workload content.
        let w2 = nsf_workloads::gatesim::build(1);
        assert_ne!(stream_fingerprint(&w2, cfg), Some(*fp));
    }

    #[test]
    fn every_frontend_field_breaks_frontend_eq_and_the_fingerprint() {
        let w = nsf_workloads::gatesim::build(0);
        // Every option present, so each of its leaf fields can be moved.
        let base = SimConfig {
            quantum: Some(16),
            channel_capacity: Some(4),
            icache: Some(nsf_mem::CacheConfig::sparc2_dcache()),
            ..SimConfig::default()
        };
        let fp = stream_fingerprint(&w, &base).unwrap();
        type Mutation = (&'static str, fn(&mut SimConfig));
        let mutations: [Mutation; 37] = [
            ("dcache.capacity_words", |c| {
                c.mem.dcache.capacity_words *= 2
            }),
            ("dcache.line_words", |c| c.mem.dcache.line_words *= 2),
            ("dcache.ways", |c| c.mem.dcache.ways += 1),
            ("dcache.hit_cycles", |c| c.mem.dcache.hit_cycles += 1),
            ("dcache.miss_penalty", |c| c.mem.dcache.miss_penalty += 1),
            ("mem.ctable_slots", |c| c.mem.ctable_slots += 1),
            ("sched.max_threads", |c| c.sched.max_threads += 1),
            ("sched.cid_capacity", |c| c.sched.cid_capacity += 1),
            ("sched.stack_words", |c| c.sched.stack_words += 1),
            ("sched.stack_base", |c| c.sched.stack_base += 1),
            ("cycles.alu", |c| c.cycles.alu += 1),
            ("cycles.control", |c| c.cycles.control += 1),
            ("cycles.taken_extra", |c| c.cycles.taken_extra += 1),
            ("cycles.mem_base", |c| c.cycles.mem_base += 1),
            ("cycles.thread_op", |c| c.cycles.thread_op += 1),
            ("cycles.proc_op", |c| c.cycles.proc_op += 1),
            ("cycles.misc", |c| c.cycles.misc += 1),
            ("cycles.switch_overhead", |c| c.cycles.switch_overhead += 1),
            ("remote_latency", |c| c.remote_latency += 1),
            ("msg_latency", |c| c.msg_latency += 1),
            ("sample_interval", |c| c.sample_interval += 1),
            ("max_instructions", |c| c.max_instructions += 1),
            ("quantum value", |c| c.quantum = Some(17)),
            ("quantum presence", |c| c.quantum = None),
            ("backing_base", |c| c.backing_base += 64),
            ("trace_depth", |c| c.trace_depth += 1),
            ("channel_capacity value", |c| c.channel_capacity = Some(5)),
            ("channel_capacity presence", |c| c.channel_capacity = None),
            ("icache.capacity_words", |c| {
                c.icache.as_mut().unwrap().capacity_words *= 2
            }),
            ("icache.line_words", |c| {
                c.icache.as_mut().unwrap().line_words *= 2
            }),
            ("icache.ways", |c| c.icache.as_mut().unwrap().ways += 1),
            ("icache.hit_cycles", |c| {
                c.icache.as_mut().unwrap().hit_cycles += 1
            }),
            ("icache.miss_penalty", |c| {
                c.icache.as_mut().unwrap().miss_penalty += 1
            }),
            ("icache presence", |c| c.icache = None),
            ("issue_width", |c| c.issue_width += 1),
            ("read_ports", |c| c.read_ports += 1),
            ("write_ports", |c| c.write_ports += 1),
        ];
        for (name, mutate) in mutations {
            let mut cfg = base;
            mutate(&mut cfg);
            assert!(!cfg.frontend_eq(&base), "{name}: still frontend_eq");
            assert!(!base.frontend_eq(&cfg), "{name}: frontend_eq not symmetric");
            assert_ne!(stream_fingerprint(&w, &cfg), Some(fp), "{name}");
        }
        // The register file is the one field outside the frontend.
        let other_engine = SimConfig {
            regfile: RegFileSpec::sparc_windows(16),
            ..base
        };
        assert!(other_engine.frontend_eq(&base));
        assert_eq!(stream_fingerprint(&w, &other_engine), Some(fp));
    }

    #[test]
    fn foreign_magic_and_version_are_typed() {
        let (_, cfg, buf, fp) = captured();
        let good = encode_stream(*fp, buf);
        let mut magic = good.clone();
        magic[0] = b'X';
        assert!(matches!(
            decode_stream(&magic, *fp, cfg),
            Err(StoreError::Frame(FrameError::BadMagic(_)))
        ));
        let mut version = good.clone();
        version[4] = STORE_VERSION + 1;
        assert!(matches!(
            decode_stream(&version, *fp, cfg),
            Err(StoreError::Frame(FrameError::UnsupportedVersion(v))) if v == STORE_VERSION + 1
        ));
        assert!(matches!(
            decode_stream(&good, fp.wrapping_add(1), cfg),
            Err(StoreError::FingerprintMismatch { .. })
        ));
        assert!(validate_stream_bytes(&good, *fp).is_ok());
        assert!(matches!(
            validate_stream_bytes(&good, fp.wrapping_add(1)),
            Err(StoreError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn version_one_entry_is_unsupported_not_a_checksum_mismatch() {
        // A version-1 entry: the same body under version byte 1 and an
        // FNV-1a-64 trailer. It is rejected for its version before any
        // checksum runs, so it is recaptured like any foreign entry.
        let (_, cfg, buf, fp) = captured();
        let mut v1 = encode_stream(*fp, buf);
        v1.truncate(v1.len() - SEAL_LEN);
        v1[4] = 1;
        let sum = crate::frame::fnv64(&v1);
        v1.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            decode_stream(&v1, *fp, cfg),
            Err(StoreError::Frame(FrameError::UnsupportedVersion(1)))
        ));
        assert!(matches!(
            validate_stream_bytes(&v1, *fp),
            Err(StoreError::Frame(FrameError::UnsupportedVersion(1)))
        ));
    }

    #[test]
    fn huge_stream_length_is_typed_not_panic() {
        // A checksum-valid entry whose stream-length field is near
        // u64::MAX must be rejected, not overflow an offset.
        let (_, cfg, _, fp) = captured();
        let empty = FrontendBuffer {
            cfg: *cfg,
            bytes: ChunkedBytes::new(),
            events: 0,
            shared_cycles: 0,
            report: RunReport::default(),
        };
        let good = encode_stream(*fp, &empty);
        // The body ends with the one-byte length 0; swap in a huge one.
        let mut body = good[..good.len() - SEAL_LEN - 1].to_vec();
        crate::frame::put_varint(&mut body, u64::MAX - 2);
        assert!(matches!(
            decode_stream(&seal(body), *fp, cfg),
            Err(StoreError::Frame(FrameError::Truncated))
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Torn-tail truncation at any length is a typed reject.
        #[test]
        fn truncation_is_always_typed(cut in 0usize..2048) {
            let (_, cfg, buf, fp) = captured();
            let bytes = encode_stream(*fp, buf);
            let cut = cut.min(bytes.len().saturating_sub(1));
            let torn = &bytes[..cut];
            let err = decode_stream(torn, *fp, cfg).unwrap_err();
            prop_assert!(matches!(
                err,
                StoreError::Frame(
                    FrameError::Truncated
                        | FrameError::ChecksumMismatch { .. }
                        | FrameError::BadMagic(_)
                        | FrameError::UnsupportedVersion(_)
                )
            ));
            prop_assert!(validate_stream_bytes(torn, *fp).is_err());
        }

        /// A single flipped bit anywhere is caught — by the checksum,
        /// or (if it lands in the trailer itself) as a mismatch against
        /// the intact body. Never a silent success with altered data.
        #[test]
        fn bit_flips_are_always_caught(idx in 0usize..1 << 20, bit in 0u8..8) {
            let (_, cfg, buf, fp) = captured();
            let mut bytes = encode_stream(*fp, buf);
            let idx = idx % bytes.len();
            bytes[idx] ^= 1 << bit;
            let err = decode_stream(&bytes, *fp, cfg).unwrap_err();
            if idx > STORE_MAGIC.len() {
                // Magic/version damage is classified before the
                // checksum runs; everything else must be a checksum
                // failure (the fingerprint field is inside the body).
                prop_assert!(
                    matches!(err, StoreError::Frame(FrameError::ChecksumMismatch { .. })),
                    "byte {idx} bit {bit}: {err}"
                );
            }
        }
    }
}
