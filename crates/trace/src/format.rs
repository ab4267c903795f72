//! The `.nsftrace` on-disk format: one sealed blob of [`crate::frame`]
//! holding a recorded frontend stream.
//!
//! ```text
//! magic    b"NSFT"                        4 bytes
//! version  u8 (= 3)
//! meta     workload  varint len + UTF-8
//!          engine    varint len + UTF-8   (trace_tool engine spec)
//!          scale     varint
//!          instructions / cycles / context_switches   varints
//! staged   block count varint
//!          per block: address varint | word count varint | words varints
//! stream   events varint | shared cycles varint
//! report   the recording run's RunReport (the `.nsfs` report codec)
//! bytes    stream length varint | the frontend stream (fcache encoding)
//! seal     checksum u64 LE
//! ```
//!
//! All integers are LEB128 varints. The stream bytes are the encoding
//! the sweep's frontend cache records and the [`crate::store`] persists,
//! so one tile decoder and one replay loop read all three. The checksum
//! is [`crate::frame::seal_checksum`] over every byte from the magic
//! through the stream: [`Trace::to_bytes`] builds the image in one
//! [`VarWriter`] and [`seal`]s it, and [`Trace::from_vec`] checks
//! length, header and checksum before it parses any field. So
//! truncation and bit rot surface as typed [`TraceError`]s. The stream's
//! events are decoded lazily, a tile at a time, by whatever reads them
//! ([`crate::replay_events`], [`TraceStream::kind_counts`]); a malformed
//! event is a typed error there.

use crate::fcache::TraceStream;
use crate::frame::{seal, unseal, write_atomic, FrameError, VarReader, VarWriter, SEAL_LEN};
use crate::store::{decode_report, encode_report};
use nsf_mem::{Addr, Word};
use nsf_sim::{RunReport, SimError};
use std::fmt;
use std::io;
use std::path::Path;

/// Leading magic of every `.nsftrace` image.
pub const MAGIC: [u8; 4] = *b"NSFT";
/// Current format version. Version 3 holds the frontend stream, the
/// staged memory and the recording run's report; versions 1 and 2 held
/// the retired per-event register codec. An older image is
/// [`FrameError::UnsupportedVersion`].
pub const FORMAT_VERSION: u8 = 3;

/// Stream-level description stored in the header.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceMeta {
    /// Benchmark name (Table 1 naming, or a synthetic generator's).
    pub workload: String,
    /// Engine spec string the trace was recorded under (parseable by
    /// [`crate::spec::parse_engine`], e.g. `nsf:80`).
    pub engine: String,
    /// Workload scale the trace was recorded at.
    pub scale: u32,
    /// Instructions the recorded run executed.
    pub instructions: u64,
    /// Cycles the recorded run took.
    pub cycles: u64,
    /// Context switches the recorded run performed.
    pub context_switches: u64,
}

/// Typed failure of trace encoding, decoding or replay. Corrupt input
/// (truncation, bad magic, version skew, checksum mismatch, malformed
/// events) is always an error, never a panic.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The image's framing is damaged: truncated, foreign magic,
    /// unsupported version, checksum mismatch, a malformed varint, or a
    /// length that disagrees with the body.
    Frame(FrameError),
    /// A header string is not valid UTF-8.
    BadString,
    /// The stream failed to decode or replay: a malformed event or event
    /// count ([`SimError::BadConfig`]), an unbuildable organization, a
    /// register-file error, or a value that differs from the recording
    /// ([`SimError::LaneDivergence`]).
    Stream(SimError),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o failed: {e}"),
            TraceError::Frame(e) => write!(f, "corrupt nsftrace stream: {e}"),
            TraceError::BadString => write!(f, "header string is not valid UTF-8"),
            TraceError::Stream(e) => write!(f, "trace stream: {e}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Frame(e) => Some(e),
            TraceError::Stream(e) => Some(e),
            TraceError::BadString => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl From<FrameError> for TraceError {
    fn from(e: FrameError) -> Self {
        TraceError::Frame(e)
    }
}

impl From<SimError> for TraceError {
    fn from(e: SimError) -> Self {
        TraceError::Stream(e)
    }
}

/// A recorded run: header, the frontend stream with its staged memory,
/// and the run's report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// Stream header.
    pub meta: TraceMeta,
    /// The recorded operation stream and the staged memory it ran over.
    pub events: TraceStream,
    /// The recording run's report ([`RunReport::default`] for a stream
    /// no run produced, such as a checker repro).
    pub report: RunReport,
}

impl Trace {
    /// Serializes to an in-memory `.nsftrace` image.
    pub fn to_bytes(&self) -> Vec<u8> {
        let (m, s) = (&self.meta, &self.events);
        let mut w = VarWriter::with_capacity(s.bytes.len() + 256);
        w.put_bytes(&MAGIC);
        w.put_u8(FORMAT_VERSION);
        for text in [&m.workload, &m.engine] {
            w.put_varint(text.len() as u64);
            w.put_bytes(text.as_bytes());
        }
        for v in [
            u64::from(m.scale),
            m.instructions,
            m.cycles,
            m.context_switches,
        ] {
            w.put_varint(v);
        }
        w.put_varint(s.mem_init.len() as u64);
        for (addr, words) in &s.mem_init {
            w.put_varint(u64::from(*addr));
            w.put_varint(words.len() as u64);
            for &word in words {
                w.put_varint(u64::from(word));
            }
        }
        w.put_varint(s.events);
        w.put_varint(s.shared_cycles);
        encode_report(&mut w, &self.report);
        w.put_varint(s.bytes.len() as u64);
        w.put_bytes(&s.bytes);
        seal(w.into_bytes())
    }

    /// Decodes a complete `.nsftrace` image, taking ownership of it:
    /// the image's own allocation becomes the stream (header, fields and
    /// seal are trimmed in place), so a decoded trace holds one copy of
    /// it. Length, header and checksum are checked before any field is
    /// parsed.
    pub fn from_vec(mut image: Vec<u8>) -> Result<Self, TraceError> {
        let mut r = VarReader::new(unseal(&image, MAGIC, FORMAT_VERSION)?);
        let meta = TraceMeta {
            workload: get_str(&mut r)?,
            engine: get_str(&mut r)?,
            scale: r.get_int()?,
            instructions: r.get_varint()?,
            cycles: r.get_varint()?,
            context_switches: r.get_varint()?,
        };
        let mem_init = get_blocks(&mut r)?;
        let events = r.get_varint()?;
        let shared_cycles = r.get_varint()?;
        let report = decode_report(&mut r)?;
        // The stream runs to the end of the body: compared, not added, so
        // no length can overflow.
        let stream_len = r.get_varint()?;
        if r.rest().len() as u64 != stream_len {
            return Err(FrameError::Truncated.into());
        }
        let end = image.len() - SEAL_LEN;
        let start = end - r.rest().len();
        image.truncate(end);
        image.drain(..start);
        Ok(Trace {
            meta,
            events: TraceStream {
                mem_init,
                events,
                shared_cycles,
                bytes: image,
            },
            report,
        })
    }

    /// Decodes a complete in-memory `.nsftrace` image (a copy of it).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceError> {
        Self::from_vec(bytes.to_vec())
    }

    /// Writes the trace to `path` atomically ([`write_atomic`]).
    pub fn write_file(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        Ok(write_atomic(path.as_ref(), &self.to_bytes())?)
    }

    /// Reads and decodes the trace at `path`.
    pub fn read_file(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        Self::from_vec(std::fs::read(path)?)
    }
}

fn get_str(r: &mut VarReader<'_>) -> Result<String, TraceError> {
    let len: usize = r.get_int()?;
    String::from_utf8(r.get_bytes(len)?.to_vec()).map_err(|_| TraceError::BadString)
}

/// The staged memory blocks. Every word is at least one byte, so a word
/// count beyond the bytes left is rejected before anything is allocated
/// for it.
fn get_blocks(r: &mut VarReader<'_>) -> Result<Vec<(Addr, Vec<Word>)>, FrameError> {
    let count: u64 = r.get_varint()?;
    let mut blocks = Vec::new();
    for _ in 0..count {
        let addr: Addr = r.get_int()?;
        let len: usize = r.get_int()?;
        if len > r.rest().len() {
            return Err(FrameError::Truncated);
        }
        let mut words = Vec::with_capacity(len);
        for _ in 0..len {
            words.push(r.get_int()?);
        }
        blocks.push((addr, words));
    }
    Ok(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::HEADER_LEN;
    use nsf_core::{LaneOp, RegAddr};

    fn sample() -> Trace {
        let a = RegAddr::new(0, 3);
        let mut events = TraceStream::from_reg_ops([
            (LaneOp::ThreadSwitch(0), None),
            (LaneOp::Write(a, 0xDEAD_BEEF), None),
            (LaneOp::Read(a), Some(0xDEAD_BEEF)),
            (LaneOp::CallPush(1), None),
            (LaneOp::FreeContext(1), None),
            (LaneOp::SwitchTo(0), None),
        ]);
        events.mem_init = vec![(0x0010_0000, vec![1, 2, 0xFFFF_FFFF]), (0x200, vec![])];
        events.shared_cycles = 77;
        Trace {
            meta: TraceMeta {
                workload: "GateSim".into(),
                engine: "nsf:80".into(),
                scale: 1,
                instructions: 12_345,
                cycles: 23_456,
                context_switches: 78,
            },
            events,
            report: RunReport {
                regfile_desc: "NSF".into(),
                instructions: 12_345,
                thread_instructions: vec![12_345],
                ..RunReport::default()
            },
        }
    }

    /// The sample's image with its seal stripped, so a test can forge
    /// the body and re-seal it.
    fn sample_body() -> Vec<u8> {
        let mut body = sample().to_bytes();
        body.truncate(body.len() - SEAL_LEN);
        body
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample();
        let bytes = t.to_bytes();
        assert_eq!(t.to_bytes(), bytes, "encoding is deterministic");
        let back = Trace::from_bytes(&bytes).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.events.len(), 6);
        assert_eq!(Trace::from_vec(bytes).unwrap(), t);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace::default();
        assert!(t.events.is_empty());
        assert_eq!(Trace::from_bytes(&t.to_bytes()).unwrap(), t);
    }

    #[test]
    fn overflowing_header_varint_is_typed() {
        let mut w = VarWriter::with_header(MAGIC, FORMAT_VERSION);
        w.put_varint(0); // empty workload string
        w.put_varint(0); // empty engine string
        w.put_bytes(&[0xFF; 9]); // scale varint whose tenth byte
        w.put_u8(0x7F); // overflows a u64
        let forged = seal(w.into_bytes());
        assert!(matches!(
            Trace::from_bytes(&forged),
            Err(TraceError::Frame(FrameError::BadVarint))
        ));
    }

    #[test]
    fn bad_magic_and_older_versions_are_typed() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Trace::from_bytes(&bytes),
            Err(TraceError::Frame(FrameError::BadMagic(_)))
        ));
        // Version 2 used this seal too; its image is rejected for its
        // version before the checksum runs, never read as damage.
        for version in [1, 2, 99] {
            let mut body = sample_body();
            body[4] = version;
            assert!(matches!(
                Trace::from_bytes(&seal(body)),
                Err(TraceError::Frame(FrameError::UnsupportedVersion(v))) if v == version
            ));
        }
    }

    #[test]
    fn truncation_is_typed_not_panic() {
        let bytes = sample().to_bytes();
        // A prefix too short to hold header and seal is truncated; any
        // longer proper prefix fails its checksum before a field is read.
        for cut in 0..bytes.len() {
            let err = Trace::from_bytes(&bytes[..cut]).unwrap_err();
            let expected = if cut < HEADER_LEN + SEAL_LEN {
                matches!(err, TraceError::Frame(FrameError::Truncated))
            } else {
                matches!(err, TraceError::Frame(FrameError::ChecksumMismatch { .. }))
            };
            assert!(expected, "prefix {cut}: unexpected {err}");
        }
    }

    #[test]
    fn checksum_mismatch_is_typed() {
        let bytes = sample().to_bytes();
        for flip in HEADER_LEN..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[flip] ^= 0x40;
            let err = Trace::from_bytes(&corrupt).unwrap_err();
            assert!(
                matches!(err, TraceError::Frame(FrameError::ChecksumMismatch { .. })),
                "flip at {flip}: unexpected {err}"
            );
        }
    }

    #[test]
    fn stream_length_disagreeing_with_the_body_is_typed() {
        // A byte forged after the stream inside the seal, and a body cut
        // short of its stream, both under a recomputed seal.
        let mut long = sample_body();
        long.push(0);
        let mut short = sample_body();
        short.pop();
        for forged in [long, short] {
            assert!(matches!(
                Trace::from_bytes(&seal(forged)),
                Err(TraceError::Frame(FrameError::Truncated))
            ));
        }
    }

    #[test]
    fn staged_block_length_beyond_the_body_is_typed_before_allocating() {
        // An empty header, one block at 0 claiming u32::MAX words, and
        // nothing after: rejected from the length alone.
        let mut w = VarWriter::with_header(MAGIC, FORMAT_VERSION);
        for v in [0, 0, 0, 0, 0, 0, 1, 0, u64::from(u32::MAX)] {
            w.put_varint(v);
        }
        assert!(matches!(
            Trace::from_bytes(&seal(w.into_bytes())),
            Err(TraceError::Frame(FrameError::Truncated))
        ));
    }

    #[test]
    fn malformed_events_surface_when_the_stream_is_read() {
        // Framing is checked at decode; events are checked by the tile
        // decoder when something reads them.
        let mut t = sample();
        t.events.bytes.push(0xEE);
        t.events.events += 1;
        let back = Trace::from_bytes(&t.to_bytes()).unwrap();
        let err = back.events.kind_counts().unwrap_err();
        assert!(
            matches!(&err, TraceError::Stream(SimError::BadConfig(m)) if m.contains("tag 238")),
            "{err}"
        );
        t.events.bytes.pop();
        assert!(matches!(
            t.events.lane_ops(),
            Err(TraceError::Stream(SimError::BadConfig(_)))
        ));
    }

    #[test]
    fn kinds_and_lane_ops_read_back_through_the_tile_decoder() {
        let t = sample();
        assert_eq!(
            t.events.kind_counts().unwrap(),
            [
                ("read", 1),
                ("write", 1),
                ("switch", 1),
                ("call_push", 1),
                ("thread_switch", 1),
                ("free_context", 1)
            ]
        );
        let a = RegAddr::new(0, 3);
        assert_eq!(
            t.events.lane_ops().unwrap(),
            [
                LaneOp::ThreadSwitch(0),
                LaneOp::Write(a, 0xDEAD_BEEF),
                LaneOp::Read(a),
                LaneOp::CallPush(1),
                LaneOp::FreeContext(1),
                LaneOp::SwitchTo(0),
            ]
        );
    }

    #[test]
    fn errors_display_and_chain() {
        let e = TraceError::from(io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(matches!(e, TraceError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
        let e = TraceError::from(SimError::BadConfig("bad".into()));
        assert!(e.to_string().contains("bad"), "{e}");
        assert!(std::error::Error::source(&e).is_some());
    }
}
