//! The `.nsftrace` on-disk format: a versioned compact binary encoding,
//! stored as one sealed blob of [`crate::frame`].
//!
//! ```text
//! magic    b"NSFT"                        4 bytes
//! version  u8 (= 2)
//! meta     workload  varint len + UTF-8
//!          engine    varint len + UTF-8   (trace_tool engine spec)
//!          scale     varint
//!          instructions / cycles / context_switches   varints
//! events   repeated:  tag u8 | cycle-delta varint | fields varints
//! trailer  tag 0xFF | event-count varint | checksum u64 LE
//! ```
//!
//! All integers are LEB128 varints (cids and offsets are tiny, values
//! and addresses usually short), cycle stamps are delta-encoded against
//! the previous event, and the checksum is
//! [`crate::frame::seal_checksum`] over every byte from the magic
//! through the event-count varint — the sealed-blob layout of
//! [`crate::frame`]: [`Trace::to_bytes`] builds the image in
//! one [`VarWriter`] and [`seal`]s it, and [`Trace::from_bytes`]
//! checks length, header and checksum before it parses any field. So
//! truncation, bit rot and miscounted streams all surface as typed
//! [`TraceError`]s, never as garbage events.

use crate::event::{RegEvent, TimedEvent};
use crate::frame::{seal, unseal, write_atomic, FrameError, VarReader, VarWriter};
use nsf_core::{RegAddr, RegFileError};
use nsf_sim::SimError;
use std::fmt;
use std::io;
use std::path::Path;

/// Leading magic of every `.nsftrace` image.
pub const MAGIC: [u8; 4] = *b"NSFT";
/// Current format version. Version 2 seals with
/// [`crate::frame::seal_checksum`] instead of FNV-1a-64; its payload is
/// byte-identical to version 1's. A version-1 image is
/// [`FrameError::UnsupportedVersion`].
pub const FORMAT_VERSION: u8 = 2;
/// Trailer tag terminating the event list.
const TRAILER_TAG: u8 = 0xFF;

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
/// (truncation, bad magic, version skew, checksum mismatch) is always
/// an error, never a panic.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The image's framing is damaged: truncated, foreign magic,
    /// unsupported version, checksum mismatch, or a malformed varint
    /// (including cycle stamps that overflow a `u64`).
    Frame(FrameError),
    /// An event record carries an unknown tag.
    BadTag(u8),
    /// A header string is not valid UTF-8.
    BadString,
    /// Bytes follow the trailer's event count inside the sealed body.
    TrailingBytes,
    /// The trailer event count does not match the events decoded.
    CountMismatch {
        /// Count stored in the trailer.
        stored: u64,
        /// Events actually decoded.
        read: u64,
    },
    /// Replay failed at event `index` with a register-file error.
    Replay {
        /// Index of the failing event in the stream.
        index: u64,
        /// The engine's error.
        source: RegFileError,
    },
    /// The replay's organization cannot be built
    /// ([`nsf_sim::RegFileSpec::build`]).
    BadEngine(SimError),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o failed: {e}"),
            TraceError::Frame(e) => write!(f, "corrupt nsftrace stream: {e}"),
            TraceError::BadTag(t) => write!(f, "unknown event tag {t:#04x}"),
            TraceError::BadString => write!(f, "header string is not valid UTF-8"),
            TraceError::TrailingBytes => write!(f, "bytes follow the trailer"),
            TraceError::CountMismatch { stored, read } => write!(
                f,
                "event count mismatch: trailer says {stored}, stream held {read}"
            ),
            TraceError::Replay { index, source } => {
                write!(f, "replay failed at event {index}: {source}")
            }
            TraceError::BadEngine(e) => write!(f, "cannot replay: {e}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Frame(e) => Some(e),
            TraceError::Replay { source, .. } => Some(source),
            TraceError::BadEngine(e) => Some(e),
            _ => None,
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

/// Event tags (kept dense so `info` can histogram by tag).
const TAG_READ: u8 = 1;
const TAG_WRITE: u8 = 2;
const TAG_SWITCH: u8 = 3;
const TAG_CALL_PUSH: u8 = 4;
const TAG_THREAD_SWITCH: u8 = 5;
const TAG_FREE_CONTEXT: u8 = 6;
const TAG_FREE_REG: u8 = 7;
const TAG_MEM_READ: u8 = 8;
const TAG_MEM_WRITE: u8 = 9;

/// A fully decoded trace: header plus the complete event list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// Stream header.
    pub meta: TraceMeta,
    /// The recorded operation stream, in capture order.
    pub events: Vec<TimedEvent>,
}

impl Trace {
    /// Serializes to an in-memory `.nsftrace` image.
    pub fn to_bytes(&self) -> Vec<u8> {
        let m = &self.meta;
        let mut w = VarWriter::with_header(MAGIC, FORMAT_VERSION);
        for s in [&m.workload, &m.engine] {
            w.put_varint(s.len() as u64);
            w.put_bytes(s.as_bytes());
        }
        for v in [
            u64::from(m.scale),
            m.instructions,
            m.cycles,
            m.context_switches,
        ] {
            w.put_varint(v);
        }
        // Stamps are nondecreasing (the recorder's clock only moves
        // forward); a stamp behind its predecessor encodes as delta 0.
        let reg = |a: RegAddr, v: u64| [u64::from(a.cid), u64::from(a.offset), v];
        let mut last_cycle = 0;
        for e in &self.events {
            let (tag, fields, n) = match e.event {
                RegEvent::Read { addr } => (TAG_READ, reg(addr, 0), 2),
                RegEvent::Write { addr, value } => (TAG_WRITE, reg(addr, u64::from(value)), 3),
                RegEvent::SwitchTo { cid } => (TAG_SWITCH, [u64::from(cid), 0, 0], 1),
                RegEvent::CallPush { cid } => (TAG_CALL_PUSH, [u64::from(cid), 0, 0], 1),
                RegEvent::ThreadSwitch { cid } => (TAG_THREAD_SWITCH, [u64::from(cid), 0, 0], 1),
                RegEvent::FreeContext { cid } => (TAG_FREE_CONTEXT, [u64::from(cid), 0, 0], 1),
                RegEvent::FreeReg { addr } => (TAG_FREE_REG, reg(addr, 0), 2),
                RegEvent::MemRead { addr } => (TAG_MEM_READ, [u64::from(addr), 0, 0], 1),
                RegEvent::MemWrite { addr } => (TAG_MEM_WRITE, [u64::from(addr), 0, 0], 1),
            };
            w.put_u8(tag);
            w.put_varint(e.cycle.saturating_sub(last_cycle));
            last_cycle = last_cycle.max(e.cycle);
            for &v in &fields[..n] {
                w.put_varint(v);
            }
        }
        w.put_u8(TRAILER_TAG);
        w.put_varint(self.events.len() as u64);
        seal(w.into_bytes())
    }

    /// Decodes a complete in-memory `.nsftrace` image. Length, header
    /// and checksum are checked before any field is parsed.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceError> {
        let mut r = VarReader::new(unseal(bytes, MAGIC, FORMAT_VERSION)?);
        let meta = TraceMeta {
            workload: get_str(&mut r)?,
            engine: get_str(&mut r)?,
            scale: r.get_int()?,
            instructions: r.get_varint()?,
            cycles: r.get_varint()?,
            context_switches: r.get_varint()?,
        };
        let mut events = Vec::new();
        let mut cycle = 0u64;
        loop {
            let tag = r.get_u8()?;
            if tag == TRAILER_TAG {
                break;
            }
            // Corrupt deltas can sum past u64::MAX: a malformed stamp.
            cycle = cycle
                .checked_add(r.get_varint()?)
                .ok_or(FrameError::BadVarint)?;
            let event = match tag {
                TAG_READ => RegEvent::Read {
                    addr: get_reg_addr(&mut r)?,
                },
                TAG_WRITE => RegEvent::Write {
                    addr: get_reg_addr(&mut r)?,
                    value: r.get_int()?,
                },
                TAG_SWITCH => RegEvent::SwitchTo { cid: r.get_int()? },
                TAG_CALL_PUSH => RegEvent::CallPush { cid: r.get_int()? },
                TAG_THREAD_SWITCH => RegEvent::ThreadSwitch { cid: r.get_int()? },
                TAG_FREE_CONTEXT => RegEvent::FreeContext { cid: r.get_int()? },
                TAG_FREE_REG => RegEvent::FreeReg {
                    addr: get_reg_addr(&mut r)?,
                },
                TAG_MEM_READ => RegEvent::MemRead { addr: r.get_int()? },
                TAG_MEM_WRITE => RegEvent::MemWrite { addr: r.get_int()? },
                other => return Err(TraceError::BadTag(other)),
            };
            events.push(TimedEvent { cycle, event });
        }
        let stored = r.get_varint()?;
        let read = events.len() as u64;
        if stored != read {
            return Err(TraceError::CountMismatch { stored, read });
        }
        if !r.done() {
            return Err(TraceError::TrailingBytes);
        }
        Ok(Trace { meta, events })
    }

    /// Writes the trace to `path` atomically ([`write_atomic`]).
    pub fn write_file(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        Ok(write_atomic(path.as_ref(), &self.to_bytes())?)
    }

    /// Reads and decodes the trace at `path`.
    pub fn read_file(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

fn get_str(r: &mut VarReader<'_>) -> Result<String, TraceError> {
    let len: usize = r.get_int()?;
    if len > 1 << 20 {
        return Err(FrameError::BadVarint.into()); // absurd header length ⇒ corrupt
    }
    String::from_utf8(r.get_bytes(len)?.to_vec()).map_err(|_| TraceError::BadString)
}

fn get_reg_addr(r: &mut VarReader<'_>) -> Result<RegAddr, FrameError> {
    Ok(RegAddr::new(r.get_int()?, r.get_int()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{HEADER_LEN, SEAL_LEN};

    fn sample_meta() -> TraceMeta {
        TraceMeta {
            workload: "GateSim".into(),
            engine: "nsf:80".into(),
            scale: 1,
            instructions: 12_345,
            cycles: 23_456,
            context_switches: 78,
        }
    }

    fn sample_events() -> Vec<TimedEvent> {
        use RegEvent::*;
        let ev = |cycle, event| TimedEvent { cycle, event };
        vec![
            ev(0, ThreadSwitch { cid: 0 }),
            ev(
                1,
                Write {
                    addr: RegAddr::new(0, 3),
                    value: 0xDEAD_BEEF,
                },
            ),
            ev(
                1,
                Read {
                    addr: RegAddr::new(0, 3),
                },
            ),
            ev(4, MemWrite { addr: 0x0020_0000 }),
            ev(9, CallPush { cid: 1 }),
            ev(
                9,
                Write {
                    addr: RegAddr::new(1, 0),
                    value: 7,
                },
            ),
            ev(12, MemRead { addr: 0x0010_0004 }),
            ev(
                12,
                FreeReg {
                    addr: RegAddr::new(1, 0),
                },
            ),
            ev(13, SwitchTo { cid: 0 }),
            ev(13, FreeContext { cid: 1 }),
        ]
    }

    /// The sample trace's image with its seal stripped, so a test can
    /// forge the body and re-seal it.
    fn sample_body() -> Vec<u8> {
        let mut body = Trace {
            meta: sample_meta(),
            events: sample_events(),
        }
        .to_bytes();
        body.truncate(body.len() - SEAL_LEN);
        body
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
    fn roundtrip_preserves_everything() {
        let t = Trace {
            meta: sample_meta(),
            events: sample_events(),
        };
        let bytes = t.to_bytes();
        let back = Trace::from_bytes(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn encoding_is_deterministic_and_compact() {
        let t = Trace {
            meta: sample_meta(),
            events: sample_events(),
        };
        assert_eq!(t.to_bytes(), t.to_bytes());
        // 10 events in well under 10 bytes/event plus the small header.
        assert!(t.to_bytes().len() < 64 + 10 * 10, "{}", t.to_bytes().len());
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace {
            meta: TraceMeta::default(),
            events: vec![],
        };
        assert_eq!(Trace::from_bytes(&t.to_bytes()).unwrap(), t);
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = Trace {
            meta: sample_meta(),
            events: vec![],
        }
        .to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Trace::from_bytes(&bytes),
            Err(TraceError::Frame(FrameError::BadMagic(_)))
        ));
    }

    #[test]
    fn version_one_image_is_unsupported_not_a_checksum_mismatch() {
        // A version-1 image: the same payload under version byte 1 and
        // an FNV-1a-64 trailer. The version is checked before the
        // checksum, so it is reported as such, never as damage.
        let mut v1 = sample_body();
        v1[4] = 1;
        let sum = crate::frame::fnv64(&v1);
        v1.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Trace::from_bytes(&v1),
            Err(TraceError::Frame(FrameError::UnsupportedVersion(1)))
        ));
    }

    #[test]
    fn wrong_version_is_typed() {
        let mut bytes = Trace {
            meta: sample_meta(),
            events: vec![],
        }
        .to_bytes();
        bytes[4] = 99;
        assert!(matches!(
            Trace::from_bytes(&bytes),
            Err(TraceError::Frame(FrameError::UnsupportedVersion(99)))
        ));
    }

    #[test]
    fn truncation_is_typed_not_panic() {
        let bytes = Trace {
            meta: sample_meta(),
            events: sample_events(),
        }
        .to_bytes();
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
        let t = Trace {
            meta: sample_meta(),
            events: sample_events(),
        };
        let bytes = t.to_bytes();
        // Any flipped bit past the magic and version fails the checksum.
        for flip in HEADER_LEN..bytes.len() - SEAL_LEN {
            let mut corrupt = bytes.clone();
            corrupt[flip] ^= 0x40;
            let err = Trace::from_bytes(&corrupt).unwrap_err();
            assert!(
                matches!(err, TraceError::Frame(FrameError::ChecksumMismatch { .. })),
                "flip at {flip}: unexpected {err}"
            );
        }
        // A flipped checksum byte itself is always a checksum mismatch.
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        assert!(matches!(
            Trace::from_bytes(&corrupt),
            Err(TraceError::Frame(FrameError::ChecksumMismatch { .. }))
        ));
    }

    #[test]
    fn bytes_after_the_trailer_are_typed() {
        // A byte appended after the seal shifts the checksum window.
        let mut appended = Trace {
            meta: sample_meta(),
            events: sample_events(),
        }
        .to_bytes();
        appended.push(0);
        assert!(matches!(
            Trace::from_bytes(&appended),
            Err(TraceError::Frame(FrameError::ChecksumMismatch { .. }))
        ));
        // A tail forged inside the seal passes the checksum and is
        // caught after the trailer's count.
        let mut body = sample_body();
        body.push(0);
        assert!(matches!(
            Trace::from_bytes(&seal(body)),
            Err(TraceError::TrailingBytes)
        ));
    }

    #[test]
    fn unknown_tag_under_the_original_seal_is_a_checksum_mismatch() {
        // The first event's tag follows the header and metadata, which
        // an event-free trace encodes as everything before its 2-byte
        // trailer.
        let first_tag = Trace {
            meta: sample_meta(),
            events: vec![],
        }
        .to_bytes()
        .len()
            - SEAL_LEN
            - 2;
        let mut bytes = Trace {
            meta: sample_meta(),
            events: sample_events(),
        }
        .to_bytes();
        assert_eq!(bytes[first_tag], TAG_THREAD_SWITCH, "first event located");
        bytes[first_tag] = 0x7E;
        assert!(matches!(
            Trace::from_bytes(&bytes),
            Err(TraceError::Frame(FrameError::ChecksumMismatch { .. }))
        ));
        // Re-sealed, the same tag reaches the event decoder.
        let resealed = seal(bytes[..bytes.len() - SEAL_LEN].to_vec());
        assert!(matches!(
            Trace::from_bytes(&resealed),
            Err(TraceError::BadTag(0x7E))
        ));
    }

    #[test]
    fn count_mismatch_is_typed() {
        // A trailer claiming one extra event under a recomputed seal (so
        // only the count is wrong).
        let mut forged = sample_body();
        assert_eq!(forged[forged.len() - 2], TRAILER_TAG, "trailer located");
        *forged.last_mut().unwrap() = 11; // says 11, the trace holds 10
        let forged = seal(forged);
        assert!(matches!(
            Trace::from_bytes(&forged),
            Err(TraceError::CountMismatch {
                stored: 11,
                read: 10
            })
        ));
    }

    #[test]
    fn overflowing_cycle_deltas_are_typed_not_panic() {
        // Two checksum-valid events whose deltas sum past u64::MAX.
        let mut w = VarWriter::with_header(MAGIC, FORMAT_VERSION);
        for v in [0, 0, 0, 0, 0, 0] {
            w.put_varint(v); // empty strings, scale and counts
        }
        for delta in [u64::MAX, 1] {
            w.put_u8(TAG_SWITCH);
            w.put_varint(delta);
            w.put_varint(0);
        }
        w.put_u8(TRAILER_TAG);
        w.put_varint(2);
        let forged = seal(w.into_bytes());
        assert!(matches!(
            Trace::from_bytes(&forged),
            Err(TraceError::Frame(FrameError::BadVarint))
        ));
    }

    #[test]
    fn errors_display_and_chain() {
        let e = TraceError::from(io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(matches!(e, TraceError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
        let e = TraceError::Replay {
            index: 5,
            source: RegFileError::ReadUndefined(RegAddr::new(1, 2)),
        };
        assert!(e.to_string().contains("event 5"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(TraceError::BadTag(0x7E).to_string().contains("0x7e"));
    }

    #[test]
    fn cycle_deltas_reconstruct_monotone_stamps() {
        let t = Trace {
            meta: TraceMeta::default(),
            events: vec![
                TimedEvent {
                    cycle: 100,
                    event: RegEvent::SwitchTo { cid: 1 },
                },
                TimedEvent {
                    cycle: 100,
                    event: RegEvent::Read {
                        addr: RegAddr::new(1, 0),
                    },
                },
                TimedEvent {
                    cycle: 250,
                    event: RegEvent::SwitchTo { cid: 2 },
                },
            ],
        };
        let back = Trace::from_bytes(&t.to_bytes()).unwrap();
        let cycles: Vec<u64> = back.events.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![100, 100, 250]);
    }
}
