//! The `.nsftrace` on-disk format: a versioned, length-delimited
//! compact binary encoding with a streaming writer and reader, framed
//! by [`crate::frame`].
//!
//! ```text
//! magic    b"NSFT"                        4 bytes
//! version  u8 (= 1)
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
//! the previous event, and the checksum is FNV-1a-64 over every byte
//! from the magic through the event-count varint — the sealed-blob
//! layout of [`crate::frame`], written and verified as a stream. So
//! truncation, bit rot and miscounted streams all surface as typed
//! [`TraceError`]s, never as garbage events. The write path encodes
//! each event into one reused buffer: no allocation per event.

use crate::event::{RegEvent, TimedEvent};
use crate::frame::{
    check_header, put_varint, read_varint, write_atomic, Fnv64, FrameError, HEADER_LEN,
};
use nsf_core::{RegAddr, RegFileError};
use nsf_sim::SimError;
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, Read, Write};
use std::path::Path;

/// Leading magic of every `.nsftrace` stream.
pub const MAGIC: [u8; 4] = *b"NSFT";
/// Current format version.
pub const FORMAT_VERSION: u8 = 1;
/// Trailer tag terminating the event stream.
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
    /// The stream's framing is damaged: truncated, foreign magic,
    /// unsupported version, malformed varint (including cycle stamps
    /// that overflow a `u64`) or a trailer checksum mismatch.
    Frame(FrameError),
    /// An event record carries an unknown tag.
    BadTag(u8),
    /// A header string is not valid UTF-8.
    BadString,
    /// Bytes follow the trailer, which must end the stream.
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
        if e.kind() == io::ErrorKind::UnexpectedEof {
            TraceError::Frame(FrameError::Truncated)
        } else {
            TraceError::Io(e)
        }
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

/// Streaming `.nsftrace` encoder over any [`Write`] target.
///
/// Events are appended with [`TraceWriter::event`]; [`TraceWriter::finish`]
/// writes the trailer and returns the target. Each event is encoded into
/// one reused buffer, so the write path does not allocate per event.
pub struct TraceWriter<W: Write> {
    out: W,
    hash: Fnv64,
    buf: Vec<u8>,
    count: u64,
    last_cycle: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a stream: writes magic, version and `meta` to `out`.
    pub fn new(out: W, meta: &TraceMeta) -> Result<Self, TraceError> {
        let mut w = TraceWriter {
            out,
            hash: Fnv64::new(),
            buf: Vec::with_capacity(64),
            count: 0,
            last_cycle: 0,
        };
        w.buf.extend_from_slice(&MAGIC);
        w.buf.push(FORMAT_VERSION);
        for s in [&meta.workload, &meta.engine] {
            put_varint(&mut w.buf, s.len() as u64);
            w.buf.extend_from_slice(s.as_bytes());
        }
        for v in [
            u64::from(meta.scale),
            meta.instructions,
            meta.cycles,
            meta.context_switches,
        ] {
            put_varint(&mut w.buf, v);
        }
        w.emit()?;
        Ok(w)
    }

    /// Hashes and writes the encoded buffer, leaving it empty.
    fn emit(&mut self) -> Result<(), TraceError> {
        self.hash.update(&self.buf);
        self.out.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }

    /// Appends one event observed at clock `cycle` (stamps must be
    /// nondecreasing — the recorder's clock only moves forward).
    pub fn event(&mut self, cycle: u64, event: &RegEvent) -> Result<(), TraceError> {
        let delta = cycle.saturating_sub(self.last_cycle);
        self.last_cycle = self.last_cycle.max(cycle);
        let reg = |a: RegAddr, v: u64| [u64::from(a.cid), u64::from(a.offset), v];
        let (tag, fields, n) = match *event {
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
        self.buf.push(tag);
        put_varint(&mut self.buf, delta);
        for &v in &fields[..n] {
            put_varint(&mut self.buf, v);
        }
        self.count += 1;
        self.emit()
    }

    /// Writes the trailer (event count + checksum) and returns the
    /// underlying writer.
    pub fn finish(mut self) -> Result<W, TraceError> {
        self.buf.push(TRAILER_TAG);
        put_varint(&mut self.buf, self.count);
        self.emit()?;
        self.out.write_all(&self.hash.finish().to_le_bytes())?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Streaming `.nsftrace` decoder over any [`Read`] source.
///
/// Construction parses and validates the header; [`TraceReader::next_event`]
/// yields events until the trailer, whose event count and checksum are
/// verified — and that nothing follows it — before the final `None`.
pub struct TraceReader<R: Read> {
    src: R,
    meta: TraceMeta,
    hash: Fnv64,
    count: u64,
    last_cycle: u64,
    done: bool,
}

impl<R: Read> TraceReader<R> {
    /// Opens a stream: reads and validates magic, version and header.
    pub fn new(mut src: R) -> Result<Self, TraceError> {
        let mut head = Vec::with_capacity(HEADER_LEN);
        (&mut src).take(HEADER_LEN as u64).read_to_end(&mut head)?;
        check_header(&head, MAGIC, FORMAT_VERSION)?;
        let mut hash = Fnv64::new();
        hash.update(&head);
        let mut r = TraceReader {
            src,
            meta: TraceMeta::default(),
            hash,
            count: 0,
            last_cycle: 0,
            done: false,
        };
        r.meta = TraceMeta {
            workload: r.get_str()?,
            engine: r.get_str()?,
            scale: r.get_int()?,
            instructions: r.get_varint()?,
            cycles: r.get_varint()?,
            context_switches: r.get_varint()?,
        };
        Ok(r)
    }

    /// The stream's header.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Events decoded so far.
    pub fn events_read(&self) -> u64 {
        self.count
    }

    fn get(&mut self, buf: &mut [u8]) -> Result<(), TraceError> {
        self.src.read_exact(buf)?;
        self.hash.update(buf);
        Ok(())
    }

    fn get_byte(&mut self) -> Result<u8, TraceError> {
        let mut b = [0u8; 1];
        self.get(&mut b)?;
        Ok(b[0])
    }

    fn get_varint(&mut self) -> Result<u64, TraceError> {
        read_varint(|| self.get_byte())
    }

    fn get_str(&mut self) -> Result<String, TraceError> {
        let len: usize = self.get_int()?;
        if len > 1 << 20 {
            return Err(FrameError::BadVarint.into()); // absurd header length ⇒ corrupt
        }
        let mut bytes = vec![0u8; len];
        self.get(&mut bytes)?;
        String::from_utf8(bytes).map_err(|_| TraceError::BadString)
    }

    /// Decodes the next event, or `Ok(None)` once the (verified) trailer
    /// is reached.
    pub fn next_event(&mut self) -> Result<Option<TimedEvent>, TraceError> {
        if self.done {
            return Ok(None);
        }
        let tag = self.get_byte()?;
        if tag == TRAILER_TAG {
            let stored_count = self.get_varint()?;
            let computed = self.hash.finish();
            let mut sum = [0u8; 8];
            self.src.read_exact(&mut sum)?; // checksum hashes everything before itself
            let stored = u64::from_le_bytes(sum);
            if stored != computed {
                return Err(FrameError::ChecksumMismatch { stored, computed }.into());
            }
            if stored_count != self.count {
                return Err(TraceError::CountMismatch {
                    stored: stored_count,
                    read: self.count,
                });
            }
            if self.src.read(&mut sum)? != 0 {
                return Err(TraceError::TrailingBytes);
            }
            self.done = true;
            return Ok(None);
        }
        let delta = self.get_varint()?;
        // Corrupt deltas can sum past u64::MAX: a malformed stamp.
        self.last_cycle = self
            .last_cycle
            .checked_add(delta)
            .ok_or(FrameError::BadVarint)?;
        let event = match tag {
            TAG_READ => RegEvent::Read {
                addr: self.get_reg_addr()?,
            },
            TAG_WRITE => RegEvent::Write {
                addr: self.get_reg_addr()?,
                value: self.get_int()?,
            },
            TAG_SWITCH => RegEvent::SwitchTo {
                cid: self.get_int()?,
            },
            TAG_CALL_PUSH => RegEvent::CallPush {
                cid: self.get_int()?,
            },
            TAG_THREAD_SWITCH => RegEvent::ThreadSwitch {
                cid: self.get_int()?,
            },
            TAG_FREE_CONTEXT => RegEvent::FreeContext {
                cid: self.get_int()?,
            },
            TAG_FREE_REG => RegEvent::FreeReg {
                addr: self.get_reg_addr()?,
            },
            TAG_MEM_READ => RegEvent::MemRead {
                addr: self.get_int()?,
            },
            TAG_MEM_WRITE => RegEvent::MemWrite {
                addr: self.get_int()?,
            },
            other => return Err(TraceError::BadTag(other)),
        };
        self.count += 1;
        Ok(Some(TimedEvent {
            cycle: self.last_cycle,
            event,
        }))
    }

    fn get_int<T: TryFrom<u64>>(&mut self) -> Result<T, TraceError> {
        Ok(T::try_from(self.get_varint()?).map_err(|_| FrameError::BadVarint)?)
    }

    fn get_reg_addr(&mut self) -> Result<RegAddr, TraceError> {
        Ok(RegAddr::new(self.get_int()?, self.get_int()?))
    }
}

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
        let mut w =
            TraceWriter::new(Vec::new(), &self.meta).expect("Vec<u8> writes are infallible");
        for e in &self.events {
            w.event(e.cycle, &e.event)
                .expect("Vec<u8> writes are infallible");
        }
        w.finish().expect("Vec<u8> writes are infallible")
    }

    /// Decodes a complete in-memory `.nsftrace` image.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceError> {
        Self::read_from(bytes)
    }

    /// Decodes a complete stream from any reader.
    pub fn read_from<R: Read>(src: R) -> Result<Self, TraceError> {
        let mut r = TraceReader::new(src)?;
        let mut events = Vec::new();
        while let Some(e) = r.next_event()? {
            events.push(e);
        }
        Ok(Trace {
            meta: r.meta().clone(),
            events,
        })
    }

    /// Writes the trace to `path` atomically ([`write_atomic`]).
    pub fn write_file(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        Ok(write_atomic(path.as_ref(), &self.to_bytes())?)
    }

    /// Reads a trace from `path` (buffered).
    pub fn read_file(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        Self::read_from(BufReader::new(File::open(path)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{fnv64, VarWriter};

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

    #[test]
    fn streaming_reader_rejects_overflowing_header_varint() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(FORMAT_VERSION);
        bytes.push(0); // empty workload string
        bytes.push(0); // empty engine string
                       // Scale varint whose tenth byte overflows a u64.
        bytes.extend_from_slice(&[0xFF; 9]);
        bytes.push(0x7F);
        let Err(err) = TraceReader::new(&bytes[..]) else {
            panic!("overflowing header varint accepted");
        };
        assert!(matches!(err, TraceError::Frame(FrameError::BadVarint)));
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
    fn streaming_reader_reports_meta_before_events() {
        let t = Trace {
            meta: sample_meta(),
            events: sample_events(),
        };
        let bytes = t.to_bytes();
        let mut r = TraceReader::new(&bytes[..]).unwrap();
        assert_eq!(r.meta().workload, "GateSim");
        let mut n = 0;
        while r.next_event().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 10);
        assert_eq!(r.events_read(), 10);
        // After the trailer, the reader stays exhausted.
        assert!(r.next_event().unwrap().is_none());
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
        // Every proper prefix must fail cleanly (truncated or, for very
        // short prefixes that cut the magic itself, still typed).
        for cut in 0..bytes.len() {
            let err = Trace::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    TraceError::Frame(FrameError::Truncated)
                        | TraceError::Frame(FrameError::BadMagic(_))
                        | TraceError::Frame(FrameError::BadVarint)
                ),
                "prefix {cut}: unexpected {err}"
            );
        }
    }

    #[test]
    fn checksum_mismatch_is_typed() {
        let t = Trace {
            meta: sample_meta(),
            events: sample_events(),
        };
        let bytes = t.to_bytes();
        // Flip one bit in an event body (not the length-bearing header).
        for flip in [bytes.len() / 2, bytes.len() - 12] {
            let mut corrupt = bytes.clone();
            corrupt[flip] ^= 0x40;
            let err = Trace::from_bytes(&corrupt).unwrap_err();
            assert!(
                matches!(
                    err,
                    TraceError::Frame(FrameError::ChecksumMismatch { .. })
                        | TraceError::BadTag(_)
                        | TraceError::Frame(FrameError::BadVarint)
                        | TraceError::Frame(FrameError::Truncated)
                        | TraceError::CountMismatch { .. }
                ),
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
        let mut bytes = Trace {
            meta: sample_meta(),
            events: sample_events(),
        }
        .to_bytes();
        bytes.push(0);
        assert!(matches!(
            Trace::from_bytes(&bytes),
            Err(TraceError::TrailingBytes)
        ));
    }

    #[test]
    fn count_mismatch_is_typed() {
        // Hand-build a stream whose trailer claims one extra event, with
        // a checksum recomputed to match (so only the count is wrong).
        let t = Trace {
            meta: sample_meta(),
            events: sample_events(),
        };
        let good = t.to_bytes();
        let body_end = good.len() - 9; // trailer tag at -10: [0xFF, count, sum*8]
        let mut forged: Vec<u8> = good[..body_end].to_vec();
        assert_eq!(forged[body_end - 1], 0xFF, "trailer tag located");
        forged.push(11); // count varint: says 11, stream holds 10
        forged.pop();
        // Recompute: easier via hashing all bytes then appending.
        let mut forged: Vec<u8> = good[..body_end].to_vec();
        forged.push(11);
        let hash = fnv64(&forged);
        forged.extend_from_slice(&hash.to_le_bytes());
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
        let forged = crate::frame::seal(w.into_bytes());
        assert!(matches!(
            Trace::from_bytes(&forged),
            Err(TraceError::Frame(FrameError::BadVarint))
        ));
    }

    #[test]
    fn errors_display_and_chain() {
        let e = TraceError::from(io::Error::new(io::ErrorKind::UnexpectedEof, "eof"));
        assert!(matches!(e, TraceError::Frame(FrameError::Truncated)));
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
