//! The frontend event-stream cache: pay a workload's frontend once.
//!
//! Every figure grid sweeps register-file organizations over a fixed
//! workload, so consecutive grid points re-execute an identical
//! fetch/decode/schedule/memory frontend. This module removes it from
//! *every point of the sweep but the first*: the first point of each
//! distinct workload/frontend runs live on a [`nsf_sim::Machine`] under
//! a [`FrontendProbe`] that records the frontend's architectural event
//! stream into a compact in-memory buffer (the varint layer of
//! [`crate::frame`], no file I/O — a `ChunkedBytes` of 64 KiB chunks,
//! so no allocation is sized by the stream), and
//! every later frontend-equal point replays that stream straight into
//! its [`EngineDispatch`] lane — no workload generation, no fetch, no
//! decode, no scheduling. In the capturing run itself the recorder
//! feeds the group's other lanes directly ([`capture_group`]), a tile of
//! ops at a time, so a cold group never decodes the bytes it just
//! encoded; a stored stream ([`replay_frontend`]) is decoded a tile at
//! a time into the same tile runner, reading across chunk edges.
//!
//! The same encoding, with the workload's staged memory beside it, is
//! what a `.nsftrace` file holds ([`TraceStream`]); [`crate::replay()`]
//! runs it through the same tile loop in a stats-only mode.
//!
//! ## The equivalence wall
//!
//! Replay is exact, and that claim is enforced three ways:
//!
//! - Every event that carries an architectural value (register reads,
//!   loads, atomics) stores the **live run's value** in the buffer, and
//!   every replay lane compares what its engine/memory produced against
//!   it — the first mismatch aborts with
//!   [`SimError::LaneDivergence`]: replay is compared to the live
//!   capture itself.
//! - Replayed lanes end with real memory (inputs + program stores +
//!   spill frames), so [`replay_frontend`] validates every lane against
//!   the workload's own output check, exactly like
//!   [`nsf_workloads::run`].
//! - Decode errors (truncation, malformed varints, unknown tags, a
//!   context beyond the Ctable) are typed errors surfaced as
//!   [`SimError::BadConfig`] — a corrupt buffer can never silently
//!   produce statistics. Fed lanes get the same Ctable check.
//!
//! ## Why replayed reports are exact
//!
//! For batchable programs the clock is write-only (see
//! `nsf_sim::probe`): a lane's cycle count decomposes into the
//! lane-invariant frontend charges (recorded as one
//! [`FrontendBuffer::shared_cycles`] sum) plus its private
//! register-file stalls and data-cache latencies, which the
//! replay regenerates by driving the real engine and a real per-lane
//! memory hierarchy through the recorded operation sequence. All other
//! frontend counters (instructions, class mix, calls, switches) are
//! lane-invariant and copied from the capture's report.

use crate::frame::{put_varint, read_varint, zigzag, ChunkedBytes, Chunks, FrameError};
use crate::TraceError;
use nsf_core::{Cid, EngineDispatch, LaneOp, RegAddr, RegisterFile};
use nsf_mem::{Addr, MemSystem, Word};
use nsf_sim::{
    batchable_program, BackingMap, CtableBacking, FrontendProbe, OccupancySummary, RunReport,
    SimConfig, SimError,
};
use nsf_workloads::{Workload, WorkloadError};

// Frontend-cache event tags. Dense, disjoint per event kind. The store
// (`crate::store`) persists these bytes verbatim in `.nsfs` entries, so
// any change to the tags or their fields needs a `STORE_VERSION` bump.
const FTAG_READ: u8 = 1;
const FTAG_WRITE: u8 = 2;
const FTAG_SWITCH: u8 = 3;
const FTAG_CALL_PUSH: u8 = 4;
const FTAG_THREAD_SWITCH: u8 = 5;
const FTAG_FREE_CONTEXT: u8 = 6;
const FTAG_FREE_REG: u8 = 7;
const FTAG_LOAD: u8 = 8;
const FTAG_STORE: u8 = 9;
const FTAG_AMO: u8 = 10;
const FTAG_SAMPLE: u8 = 11;

/// A [`FrontendProbe`] that encodes the frontend's event stream into a
/// [`ChunkedBytes`] as it happens. Attached to the live run
/// [`capture_group`] makes, and to the one [`crate::capture`] records
/// a trace from. When the capture feeds lanes, the recorder also hands
/// each event to them as the [`ReplayOp`] the tile decoder would make
/// of its bytes, a tile at a time: the capture's group replays during
/// the capture, and nothing decodes the stream the capture just encoded.
#[derive(Default)]
pub(crate) struct FrontendRecorder {
    w: ChunkedBytes,
    events: u64,
    shared_cycles: u64,
    /// The lanes this capture feeds: `None` when it feeds none, and
    /// `Some(Err)` once feeding them failed (the lanes are dropped then;
    /// the recording goes on).
    feed: Option<Result<Feed, SimError>>,
}

/// The lanes a capture feeds and the one reused tile of ops they run
/// next.
struct Feed {
    set: ReplaySet,
    tile: Vec<ReplayOp>,
    /// Every tile the lanes ran, for the round-trip tests.
    #[cfg(test)]
    ran: Vec<Vec<ReplayOp>>,
}

impl Feed {
    fn new(set: ReplaySet) -> Self {
        Feed {
            set,
            tile: Vec::with_capacity(REPLAY_TILE_OPS),
            #[cfg(test)]
            ran: Vec::new(),
        }
    }

    /// Runs the tile on every lane ([`ReplaySet::run_tile`]) and empties
    /// it.
    fn run_tile(&mut self) -> Result<(), SimError> {
        #[cfg(test)]
        self.ran.push(self.tile.clone());
        let ran = self.set.run_tile(&self.tile);
        self.tile.clear();
        ran
    }
}

impl FrontendRecorder {
    /// Runs `workload` under `cfg` live, recording and feeding one lane
    /// per configuration in `rest`: the one record step of
    /// [`capture_group`] and [`crate::capture`]. Scale-1 streams run to
    /// megabytes; the buffer takes them a chunk at a time.
    pub(crate) fn record(
        workload: &Workload,
        cfg: SimConfig,
        rest: &[SimConfig],
    ) -> Result<(Self, RunReport), WorkloadError> {
        let feed = (!rest.is_empty()).then(|| {
            same_frontend(rest, &cfg)?;
            ReplaySet::new(rest, &workload.mem_init).map(Feed::new)
        });
        let mut rec = FrontendRecorder {
            feed,
            ..Self::default()
        };
        let report = nsf_workloads::run_probed(workload, cfg, &mut rec)?;
        Ok((rec, report))
    }

    /// Bytes recorded so far.
    #[cfg(test)]
    pub(crate) fn stream_len(&self) -> usize {
        self.w.len()
    }

    /// The recorded stream over the staged memory `mem_init`.
    pub(crate) fn into_stream(self, mem_init: Vec<(Addr, Vec<Word>)>) -> TraceStream {
        TraceStream {
            mem_init,
            events: self.events,
            shared_cycles: self.shared_cycles,
            bytes: self.w,
        }
    }

    /// Hands the event just encoded to the fed lanes as the op the tile
    /// decoder makes of it; a full tile runs on every lane.
    #[inline(always)]
    fn feed(&mut self, kind: u8, off: u8, cid: Cid, a: u32, b: u32, c: u32) {
        if let Some(Ok(feed)) = &mut self.feed {
            let event = self.events - 1;
            feed.tile
                .push(ReplayOp::new(kind, off, cid, a, b, c, event));
            if feed.tile.len() == REPLAY_TILE_OPS {
                self.run_fed_tile();
            }
        }
    }

    /// Records the context op [`FrontendProbe::reg_op`] just counted (its
    /// tag and context ID) and feeds it, with the tile decoder's Ctable
    /// check.
    #[inline(always)]
    fn context_op(&mut self, tag: u8, cid: Cid) {
        let w = self.w.open_chunk(MAX_EVENT_LEN);
        w.push(tag);
        put_varint(w, u64::from(cid));
        if let Some(Ok(feed)) = &self.feed {
            if usize::from(cid) >= feed.set.ctable_slots {
                return self.reject_context(cid);
            }
        }
        self.feed(tag, 0, cid, 0, 0, 0);
    }

    /// A context beyond the lanes' Ctable stops the feed as it stops the
    /// tile decoder: the lanes run the ops before it, and a divergence
    /// among them wins over the Ctable error.
    #[cold]
    #[inline(never)]
    fn reject_context(&mut self, cid: Cid) {
        self.run_fed_tile();
        if let Some(Ok(feed)) = &self.feed {
            let beyond = beyond_ctable(cid, self.events - 1, feed.set.ctable_slots);
            self.feed = Some(Err(beyond));
        }
    }

    /// Runs the pending tile on the fed lanes; the first failure stops
    /// the feed.
    #[cold]
    #[inline(never)]
    fn run_fed_tile(&mut self) {
        if let Some(Ok(feed)) = &mut self.feed {
            if let Err(failure) = feed.run_tile() {
                self.feed = Some(Err(failure));
            }
        }
    }

    /// The fed lanes after their last, partial tile, or why feeding them
    /// failed; `None` when the capture fed no lanes.
    fn finish_feed(&mut self) -> Option<Result<Feed, SimError>> {
        if matches!(&self.feed, Some(Ok(feed)) if !feed.tile.is_empty()) {
            self.run_fed_tile();
        }
        self.feed.take()
    }
}

impl FrontendProbe for FrontendRecorder {
    #[inline(always)]
    fn reg_op(&mut self, op: LaneOp, value: Option<Word>) {
        self.events += 1;
        match op {
            LaneOp::Read(a) => {
                // The live value: replay lanes must reproduce it.
                let value = value.expect("reads return a value");
                let w = self.w.open_chunk(MAX_EVENT_LEN);
                w.push(FTAG_READ);
                put_varint(w, u64::from(a.cid));
                w.push(a.offset);
                put_varint(w, u64::from(value));
                self.feed(FTAG_READ, a.offset, a.cid, value, 0, 0);
            }
            LaneOp::Write(a, v) => {
                let w = self.w.open_chunk(MAX_EVENT_LEN);
                w.push(FTAG_WRITE);
                put_varint(w, u64::from(a.cid));
                w.push(a.offset);
                put_varint(w, u64::from(v));
                self.feed(FTAG_WRITE, a.offset, a.cid, v, 0, 0);
            }
            LaneOp::SwitchTo(cid) => self.context_op(FTAG_SWITCH, cid),
            LaneOp::CallPush(cid) => self.context_op(FTAG_CALL_PUSH, cid),
            LaneOp::ThreadSwitch(cid) => self.context_op(FTAG_THREAD_SWITCH, cid),
            LaneOp::FreeContext(cid) => self.context_op(FTAG_FREE_CONTEXT, cid),
            LaneOp::FreeReg(a) => {
                let w = self.w.open_chunk(MAX_EVENT_LEN);
                w.push(FTAG_FREE_REG);
                put_varint(w, u64::from(a.cid));
                w.push(a.offset);
                self.feed(FTAG_FREE_REG, a.offset, a.cid, 0, 0, 0);
            }
        }
    }

    #[inline(always)]
    fn mem_load(&mut self, addr: Addr, value: Word) {
        self.events += 1;
        let w = self.w.open_chunk(MAX_EVENT_LEN);
        w.push(FTAG_LOAD);
        put_varint(w, u64::from(addr));
        put_varint(w, u64::from(value));
        self.feed(FTAG_LOAD, 0, 0, addr, value, 0);
    }

    #[inline(always)]
    fn mem_store(&mut self, addr: Addr, value: Word) {
        self.events += 1;
        let w = self.w.open_chunk(MAX_EVENT_LEN);
        w.push(FTAG_STORE);
        put_varint(w, u64::from(addr));
        put_varint(w, u64::from(value));
        self.feed(FTAG_STORE, 0, 0, addr, value, 0);
    }

    #[inline(always)]
    fn mem_amo(&mut self, addr: Addr, delta: i32, old: Word) {
        self.events += 1;
        let w = self.w.open_chunk(MAX_EVENT_LEN);
        w.push(FTAG_AMO);
        put_varint(w, u64::from(addr));
        put_varint(w, zigzag(i64::from(delta)));
        put_varint(w, u64::from(old));
        self.feed(FTAG_AMO, 0, 0, addr, delta as u32, old);
    }

    #[inline(always)]
    fn shared_charge(&mut self, cycles: u32) {
        // Cycle accumulation is commutative, so the lane-invariant part
        // of the clock needs no per-event entries — one sum suffices.
        self.shared_cycles += u64::from(cycles);
    }

    #[inline(always)]
    fn occupancy_sample(&mut self) {
        self.events += 1;
        self.w.open_chunk(1).push(FTAG_SAMPLE);
        self.feed(FTAG_SAMPLE, 0, 0, 0, 0, 0);
    }
}

/// One workload/frontend's captured event stream plus everything a
/// replay needs: the frontend configuration it is valid for, the
/// lane-invariant cycle total, and the capture run's full report (the
/// template for a replayed report's shared fields — and itself the
/// capture point's result).
#[derive(Debug)]
pub struct FrontendBuffer {
    /// The configuration the capture ran under. Replay is legal for any
    /// configuration with [`SimConfig::frontend_eq`] to this one.
    pub cfg: SimConfig,
    /// The encoded event stream (crate-visible so `crate::store` can
    /// persist and reconstruct buffers without re-encoding).
    pub(crate) bytes: ChunkedBytes,
    /// Number of events encoded.
    pub events: u64,
    /// Sum of the lane-invariant frontend cycle charges.
    pub shared_cycles: u64,
    /// The capture run's validated report (bit-identical to
    /// [`nsf_workloads::run`] under the same configuration).
    pub report: RunReport,
}

impl FrontendBuffer {
    /// Encoded size in bytes (diagnostics; the paper programs measure
    /// 4.4–6.1 B/event at scale 1).
    pub fn encoded_len(&self) -> usize {
        self.bytes.len()
    }
}

/// A recorded frontend stream with the staged memory it ran over: the
/// replayable part of a [`crate::Trace`], and all a stats-only replay
/// ([`crate::replay_events`]) reads. The bytes are the [`FrontendBuffer`]
/// encoding, so one tile decoder and one replay loop serve both.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceStream {
    /// The workload's staged memory blocks: replay pokes them into every
    /// lane before the first op, so recorded loads of inputs check.
    pub mem_init: Vec<(Addr, Vec<Word>)>,
    /// Number of events encoded.
    pub events: u64,
    /// Sum of the lane-invariant frontend cycle charges.
    pub shared_cycles: u64,
    /// The encoded event stream.
    pub(crate) bytes: ChunkedBytes,
}

impl TraceStream {
    /// A stream of register-file operations only, no staged memory: each
    /// read carries the value it must return. What the differential
    /// checker writes its repros as.
    pub fn from_reg_ops(ops: impl IntoIterator<Item = (LaneOp, Option<Word>)>) -> Self {
        let mut rec = FrontendRecorder::default();
        for (op, value) in ops {
            rec.reg_op(op, value);
        }
        rec.into_stream(Vec::new())
    }

    /// Number of events in the stream.
    pub fn len(&self) -> usize {
        self.events as usize
    }

    /// `true` for a stream of no events.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Encoded size of the event stream in bytes.
    pub fn encoded_len(&self) -> usize {
        self.bytes.len()
    }

    /// How many events of each kind the stream holds, in tag order, kinds
    /// that occur only. Decodes one tile at a time, so it checks every
    /// field and the event count without holding the decoded stream.
    pub fn kind_counts(&self) -> Result<Vec<(&'static str, u64)>, TraceError> {
        let mut counts = [0u64; FTAG_NAMES.len()];
        for_each_tile(&self.bytes, self.events, usize::MAX, |tile| {
            for op in tile {
                counts[usize::from(op.kind - 1)] += 1;
            }
            Ok(())
        })
        .map_err(TraceError::Stream)?;
        Ok(FTAG_NAMES
            .into_iter()
            .zip(counts)
            .filter(|&(_, n)| n > 0)
            .collect())
    }

    /// The stream's register-file operations in order, decoded through
    /// the tile decoder; memory events and samples are skipped.
    pub fn lane_ops(&self) -> Result<Vec<LaneOp>, TraceError> {
        let mut ops = Vec::new();
        for_each_tile(&self.bytes, self.events, usize::MAX, |tile| {
            ops.extend(tile.iter().filter_map(ReplayOp::lane_op));
            Ok(())
        })
        .map_err(TraceError::Stream)?;
        Ok(ops)
    }
}

/// Why `workload` under `cfg` cannot be captured, or `None` when it
/// can. Only organization-independent, untraced streams capture: a
/// program with thread, channel or remote operations, execution tracing
/// (`trace_depth != 0`) or a frontend other than single-issue
/// (`issue_width != 1`) is rejected. The one capture rule:
/// [`capture_frontend`] enforces it and the sweep runner routes by it.
pub fn capture_rejection(workload: &Workload, cfg: &SimConfig) -> Option<&'static str> {
    if !batchable_program(&workload.program) {
        Some("the program uses thread, channel or remote operations")
    } else if cfg.trace_depth != 0 {
        Some("execution tracing is on")
    } else if cfg.issue_width != 1 {
        Some("the frontend is not single-issue")
    } else {
        None
    }
}

/// Runs `workload` under `cfg` live — [`nsf_workloads::run_probed`],
/// output validated by the workload's check — while recording the
/// frontend event stream. Returns the buffer; its
/// [`FrontendBuffer::report`] is the capture point's own result.
/// [`capture_group`] with no other configurations.
///
/// A point that [`capture_rejection`] rejects fails with
/// [`SimError::BadConfig`].
pub fn capture_frontend(
    workload: &Workload,
    cfg: SimConfig,
) -> Result<FrontendBuffer, WorkloadError> {
    capture_group(workload, cfg, &[]).map(|group| group.buf)
}

/// A frontend group captured by [`capture_group`]: the head's buffer,
/// and the reports of the configurations its capture fed.
#[derive(Debug)]
pub struct GroupCapture {
    /// The head's captured stream and report, exactly what
    /// [`capture_frontend`] returns.
    pub buf: FrontendBuffer,
    /// One report per fed configuration, in order, each what
    /// [`replay_frontend`] on `buf` returns for it; or the first
    /// failure among them (a divergence, a failed output check, a
    /// configuration that cannot replay this stream). The capture
    /// itself still succeeded then.
    pub rest: Result<Vec<RunReport>, WorkloadError>,
}

/// Captures `workload` under `cfg` as [`capture_frontend`] does, while
/// the same live run feeds one replay lane per configuration in `rest`.
/// The recorder encodes the stream byte for byte as without lanes, and
/// hands each event to the lanes as the op the tile decoder would make
/// of those bytes, so the lanes run the capture's stream a tile at a
/// time as it is recorded, with no encode-then-decode round trip. The
/// lanes keep every replay check: recorded values, the decoder's Ctable
/// range, the earliest-event-then-lowest-lane failure order, and each
/// lane's final memory against the workload's check, after the
/// capture's own check. A lane failure stops the feed and only fails
/// [`GroupCapture::rest`]; the capture run goes on to the end.
///
/// A point that [`capture_rejection`] rejects, or a capture run that
/// fails, fails the whole call.
pub fn capture_group(
    workload: &Workload,
    cfg: SimConfig,
    rest: &[SimConfig],
) -> Result<GroupCapture, WorkloadError> {
    if let Some(why) = capture_rejection(workload, &cfg) {
        return Err(SimError::BadConfig(format!("cannot capture: {why}")).into());
    }
    let (mut rec, report) = FrontendRecorder::record(workload, cfg, rest)?;
    let fed = rec.finish_feed();
    let buf = FrontendBuffer {
        cfg,
        bytes: rec.w,
        events: rec.events,
        shared_cycles: rec.shared_cycles,
        report,
    };
    let rest = match fed {
        None => Ok(Vec::new()),
        Some(Err(failure)) => Err(failure.into()),
        Some(Ok(feed)) => check_lanes(&feed.set, workload).map(|()| feed.set.reports(&buf)),
    };
    Ok(GroupCapture { buf, rest })
}

/// Replays `buf` into every configuration in `cfgs` and returns one
/// report per configuration — bit-identical to what
/// [`nsf_workloads::run`] would return for each, with every lane's
/// final memory validated against the workload's check. The buffer is
/// decoded a tile at a time into one reused buffer, a few thousand ops
/// per tile: every lane runs a tile, in a loop specialized to its engine
/// family, before the next tile is decoded
/// (lanes are independent, so this gives the same results as running
/// the lanes one after another or event by event in lockstep). Any
/// divergence from the recorded live values aborts with
/// [`SimError::LaneDivergence`], naming the earliest diverging event
/// and, on a tie, the lowest lane; corrupt buffers abort with
/// [`SimError::BadConfig`].
pub fn replay_frontend(
    buf: &FrontendBuffer,
    workload: &Workload,
    cfgs: &[SimConfig],
) -> Result<Vec<RunReport>, WorkloadError> {
    same_frontend(cfgs, &buf.cfg)?;
    let set = ReplaySet::replay(cfgs, &workload.mem_init, &buf.bytes, buf.events)?;
    check_lanes(&set, workload)?;
    Ok(set.reports(buf))
}

/// Fails when a configuration in `cfgs` has another frontend than the
/// captured `cfg`: the stream is not valid for it.
fn same_frontend(cfgs: &[SimConfig], cfg: &SimConfig) -> Result<(), SimError> {
    if cfgs.iter().any(|c| !c.frontend_eq(cfg)) {
        return Err(SimError::BadConfig(
            "replay configuration's frontend differs from the captured \
             one; the cached event stream would not be valid for it"
                .into(),
        ));
    }
    Ok(())
}

/// Validates every lane's final memory against the workload's own
/// check, lane by lane in order.
fn check_lanes(set: &ReplaySet, workload: &Workload) -> Result<(), WorkloadError> {
    for (i, mem) in set.mems.iter().enumerate() {
        (workload.check)(mem).map_err(|detail| WorkloadError::CheckFailed {
            name: workload.name,
            detail: format!("cached-replay lane {i}: {detail}"),
        })?;
    }
    Ok(())
}

/// Decoded ops per replay tile: every lane runs one tile before the next
/// tile is decoded. At 20 bytes per op a tile is 80 KiB, small enough to
/// stay in a core's second-level cache while all of a group's lanes run
/// it, and long enough that the per-tile engine dispatch is negligible.
const REPLAY_TILE_OPS: usize = 4096;

/// Histogram labels of the event tags, indexed by tag − 1.
const FTAG_NAMES: [&str; 11] = [
    "read",
    "write",
    "switch",
    "call_push",
    "thread_switch",
    "free_context",
    "free_reg",
    "load",
    "store",
    "amo",
    "sample",
];

/// One decoded frontend event in flat replay form (20 bytes): a kind
/// byte that dispatches directly, the operand fields, and the event
/// index for error reporting. There is one op per recorded event and no
/// Ctable op: a lane's context ops map and unmap save areas themselves,
/// through the same [`CtableBacking::context_op`] the live machine uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ReplayOp {
    /// The `FTAG_*` event tag.
    kind: u8,
    /// Register offset within the context (register ops).
    off: u8,
    /// Context ID (register and context ops).
    cid: Cid,
    /// First payload word: the live run's value for reads, the written
    /// value for writes, the memory address for loads/stores/atomics.
    a: u32,
    /// Second payload word: the live run's value for loads, the stored
    /// value for stores, the delta (two's complement) for atomics.
    b: u32,
    /// Third payload word: the live run's old value for atomics.
    c: u32,
    /// Event index in the capture stream (error reporting only).
    pc: u32,
}

impl ReplayOp {
    /// Event `event`'s op; its `pc` saturates at `u32::MAX`.
    #[inline(always)]
    fn new(kind: u8, off: u8, cid: Cid, a: u32, b: u32, c: u32, event: u64) -> Self {
        ReplayOp {
            kind,
            off,
            cid,
            a,
            b,
            c,
            pc: u32::try_from(event).unwrap_or(u32::MAX),
        }
    }

    /// The register-file operation this op replays, or `None` for a
    /// memory event or an occupancy sample.
    pub(crate) fn lane_op(&self) -> Option<LaneOp> {
        let addr = RegAddr::new(self.cid, self.off);
        Some(match self.kind {
            FTAG_READ => LaneOp::Read(addr),
            FTAG_WRITE => LaneOp::Write(addr, self.a),
            FTAG_SWITCH => LaneOp::SwitchTo(self.cid),
            FTAG_CALL_PUSH => LaneOp::CallPush(self.cid),
            FTAG_THREAD_SWITCH => LaneOp::ThreadSwitch(self.cid),
            FTAG_FREE_CONTEXT => LaneOp::FreeContext(self.cid),
            FTAG_FREE_REG => LaneOp::FreeReg(addr),
            _ => return None,
        })
    }
}

/// Decode-time cursor over one slice. [`crate::frame::VarReader`] reads
/// the same encoding, but its per-field `Result` plumbing costs real time
/// at half a dozen calls per event times hundreds of thousands of events;
/// this cursor keeps the reads `Option`-shaped and fully inlined around
/// the shared decode step (`frame::read_varint`), and the (cold) error
/// formatting lives in [`corrupt_at`]. It reads one slice, so its fields
/// stay in registers through the decode loop; [`StreamCursor`] hands it
/// a stream's chunks, and the seams between them, one at a time.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    #[inline(always)]
    fn u8(&mut self) -> Option<u8> {
        let v = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }

    #[inline(always)]
    fn varint(&mut self) -> Option<u64> {
        read_varint(|| self.u8().ok_or(FrameError::Truncated)).ok()
    }

    #[inline(always)]
    fn u16v(&mut self) -> Option<u16> {
        u16::try_from(self.varint()?).ok()
    }

    #[inline(always)]
    fn u32v(&mut self) -> Option<u32> {
        u32::try_from(self.varint()?).ok()
    }

    #[inline(always)]
    fn i32v(&mut self) -> Option<i32> {
        let z = self.varint()?;
        i32::try_from(((z >> 1) as i64) ^ -((z & 1) as i64)).ok()
    }
}

/// Truncated buffer or a varint overflowing its field.
#[cold]
fn corrupt_at(event: u64) -> SimError {
    SimError::BadConfig(format!(
        "frontend cache buffer corrupt: truncated or malformed field at event {event}"
    ))
}

/// `cid`, when a `ctable_slots`-entry Ctable maps it: every lane's
/// Ctable has that many entries, and a context beyond them cannot come
/// from a live run.
#[inline(always)]
fn in_ctable(cid: Cid, event: u64, ctable_slots: usize) -> Result<Cid, SimError> {
    if usize::from(cid) < ctable_slots {
        Ok(cid)
    } else {
        Err(beyond_ctable(cid, event, ctable_slots))
    }
}

/// Context `cid` at event `event` is beyond the Ctable.
#[cold]
fn beyond_ctable(cid: Cid, event: u64, ctable_slots: usize) -> SimError {
    SimError::BadConfig(format!(
        "frontend cache buffer corrupt: context {cid} at event {event} \
         is beyond the {ctable_slots}-entry Ctable"
    ))
}

/// The most bytes decoding one event can read before it succeeds or
/// fails: a tag and three varints of at most ten bytes each (an AMO; a
/// register op is a tag, two varints and an offset byte). So also more
/// than any event's encoding, which the recorder reserves at once.
const MAX_EVENT_LEN: usize = 32;

/// Decodes events from `cur` into `tile` while the tile has room and the
/// next event starts before `limit`: the first of them is event
/// `first_event + tile.len()`. Truncation, over-long varints, unknown
/// tags and contexts beyond the Ctable surface as [`SimError::BadConfig`];
/// `tile` then holds every op decoded before the failing event, so the
/// lanes can run them first.
fn decode_ops(
    cur: &mut Cursor<'_>,
    limit: usize,
    first_event: u64,
    ctable_slots: usize,
    tile: &mut Vec<ReplayOp>,
) -> Result<(), SimError> {
    // Bounded by the slice, so the tag read below needs no check.
    let limit = limit.min(cur.bytes.len());
    while tile.len() < REPLAY_TILE_OPS && cur.pos < limit {
        let event = first_event + tile.len() as u64;
        macro_rules! field {
            ($read:expr) => {
                match $read {
                    Some(v) => v,
                    None => return Err(corrupt_at(event)),
                }
            };
        }
        let tag = cur.bytes[cur.pos];
        cur.pos += 1;
        let op = |off, cid, a, b, c| ReplayOp::new(tag, off, cid, a, b, c, event);
        tile.push(match tag {
            FTAG_READ | FTAG_WRITE => {
                let cid = field!(cur.u16v());
                let off = field!(cur.u8());
                op(off, cid, field!(cur.u32v()), 0, 0)
            }
            FTAG_SWITCH | FTAG_CALL_PUSH | FTAG_THREAD_SWITCH | FTAG_FREE_CONTEXT => {
                let cid = field!(cur.u16v());
                op(0, in_ctable(cid, event, ctable_slots)?, 0, 0, 0)
            }
            FTAG_FREE_REG => {
                let cid = field!(cur.u16v());
                op(field!(cur.u8()), cid, 0, 0, 0)
            }
            FTAG_LOAD | FTAG_STORE => {
                let a = field!(cur.u32v());
                op(0, 0, a, field!(cur.u32v()), 0)
            }
            FTAG_AMO => {
                let a = field!(cur.u32v());
                let delta = field!(cur.i32v());
                op(0, 0, a, delta as u32, field!(cur.u32v()))
            }
            FTAG_SAMPLE => op(0, 0, 0, 0, 0),
            other => {
                return Err(SimError::BadConfig(format!(
                    "frontend cache buffer corrupt: unknown event tag {other} \
                     at event {event}"
                )))
            }
        });
    }
    Ok(())
}

/// A position in a stream's chunks, for the tile decoder. An event that
/// starts at least [`MAX_EVENT_LEN`] bytes before its chunk's end, or in
/// the last chunk, decodes in place, so a malformed one fails where one
/// slice of the whole stream would make it fail. The few events that
/// start nearer the end of an earlier chunk decode from a seam: that
/// chunk's last bytes joined with the bytes after them, enough for any
/// event starting in the chunk. So an event may straddle any chunk
/// edge, and the tiles and errors are exactly one slice's.
struct StreamCursor<'a> {
    chunk: &'a [u8],
    pos: usize,
    /// `true` when no byte follows `chunk`.
    last: bool,
    later: Chunks<'a>,
}

impl<'a> StreamCursor<'a> {
    fn new(stream: &'a ChunkedBytes) -> Self {
        let mut cursor = StreamCursor {
            chunk: &[],
            pos: 0,
            last: false,
            later: stream.chunks(),
        };
        cursor.next_chunk();
        cursor
    }

    /// Moves to the next non-empty chunk (or to the end).
    fn next_chunk(&mut self) {
        self.chunk = self.later.find(|c| !c.is_empty()).unwrap_or(&[]);
        self.pos = 0;
        self.last = self.later.clone().all(<[u8]>::is_empty);
    }

    /// Moves `n` bytes on, across chunk edges.
    fn advance(&mut self, mut n: usize) {
        while self.pos + n >= self.chunk.len() && !self.last {
            n -= self.chunk.len() - self.pos;
            self.next_chunk();
        }
        self.pos += n;
    }

    /// `true` while a byte is left.
    fn more(&self) -> bool {
        self.pos < self.chunk.len()
    }

    /// Decodes the next tile of the event stream into `tile`: up to
    /// [`REPLAY_TILE_OPS`] ops, the first of them event `first_event`.
    /// `tile` is cleared first and reused across tiles, so a replay holds
    /// one tile of decoded ops at a time, never the whole stream. Errors
    /// are [`decode_ops`]'s.
    fn decode_tile(
        &mut self,
        first_event: u64,
        ctable_slots: usize,
        tile: &mut Vec<ReplayOp>,
    ) -> Result<(), SimError> {
        tile.clear();
        let mut seam = [0u8; 2 * MAX_EVENT_LEN];
        while tile.len() < REPLAY_TILE_OPS && self.more() {
            let safe = if self.last {
                self.chunk.len()
            } else {
                self.chunk.len().saturating_sub(MAX_EVENT_LEN)
            };
            let in_seam = self.pos >= safe;
            let mut cur = if in_seam {
                // The events that start in the chunk's last bytes, from a
                // seam of those bytes and the ones after them.
                let mut len = 0;
                let rest = std::iter::once(&self.chunk[self.pos..]).chain(self.later.clone());
                for chunk in rest {
                    let take = chunk.len().min(seam.len() - len);
                    seam[len..len + take].copy_from_slice(&chunk[..take]);
                    len += take;
                    if len == seam.len() {
                        break;
                    }
                }
                Cursor {
                    bytes: &seam[..len],
                    pos: 0,
                }
            } else {
                Cursor {
                    bytes: self.chunk,
                    pos: self.pos,
                }
            };
            let limit = if in_seam {
                self.chunk.len() - self.pos
            } else {
                safe
            };
            let decoded = decode_ops(&mut cur, limit, first_event, ctable_slots, tile);
            if in_seam {
                self.advance(cur.pos);
            } else {
                self.pos = cur.pos;
            }
            decoded?;
        }
        Ok(())
    }
}

/// Decodes `bytes`, a stream of `events` events, a tile at a time into
/// one reused buffer and hands each tile to `run`, which sees every op
/// decoded before a malformed field ends the tile; an error `run` returns
/// wins over that decode error. Contexts at or beyond `ctable_slots` are
/// malformed. The event count is checked after the last tile.
pub(crate) fn for_each_tile(
    bytes: &ChunkedBytes,
    events: u64,
    ctable_slots: usize,
    mut run: impl FnMut(&[ReplayOp]) -> Result<(), SimError>,
) -> Result<(), SimError> {
    let mut cur = StreamCursor::new(bytes);
    let mut event: u64 = 0;
    let mut tile = Vec::with_capacity(REPLAY_TILE_OPS);
    while cur.more() {
        let decoded = cur.decode_tile(event, ctable_slots, &mut tile);
        event += tile.len() as u64;
        run(&tile)?;
        decoded?;
    }
    if event != events {
        return Err(SimError::BadConfig(format!(
            "frontend cache buffer corrupt: decoded {event} events, \
             capture recorded {events}"
        )));
    }
    Ok(())
}

/// N engine lanes driven by a frontend stream's decoded tiles instead of
/// a live frontend: register files, per-lane memory hierarchies and
/// presence bits (the two halves of a lane's [`CtableBacking`]), and
/// clocks.
pub(crate) struct ReplaySet {
    pub(crate) regfiles: Vec<EngineDispatch>,
    mems: Vec<MemSystem>,
    maps: Vec<BackingMap>,
    /// The frontend's save-area base (lane-invariant).
    backing_base: Addr,
    /// Every lane's Ctable size (lane-invariant).
    pub(crate) ctable_slots: usize,
    pub(crate) clocks: Vec<u64>,
    occupancy: Vec<OccupancySummary>,
}

impl ReplaySet {
    /// One lane per configuration, with `staged` poked into every lane's
    /// memory. The configurations must share a frontend
    /// ([`SimConfig::frontend_eq`]); the first one's save-area base and
    /// Ctable size serve every lane.
    pub(crate) fn new(cfgs: &[SimConfig], staged: &[(Addr, Vec<Word>)]) -> Result<Self, SimError> {
        let Some(first) = cfgs.first() else {
            return Err(SimError::BadConfig(
                "a replay set needs at least one configuration".into(),
            ));
        };
        let mem = |cfg: &SimConfig| {
            let mut mem = MemSystem::new(cfg.mem);
            for (addr, words) in staged {
                mem.poke_block(*addr, words);
            }
            mem
        };
        Ok(ReplaySet {
            regfiles: cfgs
                .iter()
                .map(|c| c.regfile.build())
                .collect::<Result<_, _>>()?,
            mems: cfgs.iter().map(mem).collect(),
            maps: cfgs.iter().map(|_| BackingMap::new()).collect(),
            backing_base: first.backing_base,
            ctable_slots: first.mem.ctable_slots,
            clocks: vec![0; cfgs.len()],
            occupancy: vec![OccupancySummary::default(); cfgs.len()],
        })
    }

    /// [`ReplaySet::new`], then [`ReplaySet::run`]: the one replay step of
    /// [`replay_frontend`] and [`crate::replay_events`].
    pub(crate) fn replay(
        cfgs: &[SimConfig],
        staged: &[(Addr, Vec<Word>)],
        bytes: &ChunkedBytes,
        events: u64,
    ) -> Result<Self, SimError> {
        let mut set = ReplaySet::new(cfgs, staged)?;
        set.run(bytes, events)?;
        Ok(set)
    }

    /// Decodes the event stream a tile at a time into one reused buffer
    /// and drives every lane through each tile ([`ReplaySet::run_tile`])
    /// before decoding the next. The tile stays cache-resident across
    /// lanes, so the op stream is decoded and read from memory once per
    /// group. A malformed field at event k ends the tile just before k:
    /// the lanes run the ops before it, and a divergence among them wins
    /// over the decode error. The event count is checked after the last
    /// tile.
    pub(crate) fn run(&mut self, bytes: &ChunkedBytes, events: u64) -> Result<(), SimError> {
        for_each_tile(bytes, events, self.ctable_slots, |tile| self.run_tile(tile))
    }

    /// Runs one tile of ops on every lane: each lane runs the whole tile
    /// in a loop specialized to its engine family before the next lane
    /// runs it, so each lane keeps its engine hot and its register-file
    /// hit paths inlined. Lanes are independent, so any interleaving
    /// gives identical results. The one tile step of decoded and fed
    /// replay alike.
    ///
    /// Every value-bearing event is checked against the recording. A
    /// failure reports what event-by-event lockstep over all lanes would
    /// report first: the earliest event, and on a tie the lowest lane.
    /// Within a tile, a lane after a failing one only runs the ops before
    /// the failure, since it could only fail later or tie and lose.
    pub(crate) fn run_tile(&mut self, tile: &[ReplayOp]) -> Result<(), SimError> {
        let mut first: Option<(usize, SimError)> = None;
        for lane in 0..self.regfiles.len() {
            let end = first.as_ref().map_or(tile.len(), |(at, _)| *at);
            if let Err(failure) = self.run_lane(lane, &tile[..end]) {
                first = Some(failure);
            }
        }
        first.map_or(Ok(()), |(_, err)| Err(err))
    }

    /// Runs `ops` on one lane, dispatching on its engine family once per
    /// tile rather than once per op. On failure, returns the index in
    /// `ops` of the failing op with its error.
    pub(crate) fn run_lane(
        &mut self,
        lane: usize,
        ops: &[ReplayOp],
    ) -> Result<(), (usize, SimError)> {
        let mut state = LaneState {
            lane,
            store: CtableBacking {
                mem: &mut self.mems[lane],
                map: &mut self.maps[lane],
                base: self.backing_base,
            },
            clock: &mut self.clocks[lane],
            occupancy: &mut self.occupancy[lane],
        };
        match &mut self.regfiles[lane] {
            EngineDispatch::Nsf(rf) => state.run(rf, ops),
            EngineDispatch::Segmented(rf) => state.run(rf, ops),
            EngineDispatch::Windowed(rf) => state.run(rf, ops),
            EngineDispatch::Oracle(rf) => state.run(rf, ops),
        }
    }

    fn reports(&self, buf: &FrontendBuffer) -> Vec<RunReport> {
        (0..self.regfiles.len())
            .map(|i| {
                let mut r = buf.report.clone();
                r.cycles = buf.shared_cycles + self.clocks[i];
                r.regfile = *self.regfiles[i].stats();
                r.regfile_desc = self.regfiles[i].describe();
                r.regfile_capacity = self.regfiles[i].capacity();
                r.dcache = self.mems[i].dcache_stats();
                r.occupancy = self.occupancy[i];
                r
            })
            .collect()
    }
}

/// One replay lane's private state, borrowed from a [`ReplaySet`] for
/// the length of a tile.
struct LaneState<'a> {
    lane: usize,
    store: CtableBacking<'a>,
    clock: &'a mut u64,
    occupancy: &'a mut OccupancySummary,
}

impl LaneState<'_> {
    /// Applies `ops` in order to the lane's engine `rf` (monomorphized
    /// per engine family, so register hits inline into this loop).
    fn run<E: RegisterFile>(
        &mut self,
        rf: &mut E,
        ops: &[ReplayOp],
    ) -> Result<(), (usize, SimError)> {
        let mut clock = *self.clock;
        let result = ops
            .iter()
            .enumerate()
            .try_for_each(|(i, op)| self.step(rf, op, &mut clock).map_err(|e| (i, e)));
        *self.clock = clock;
        result
    }

    #[inline(always)]
    fn step<E: RegisterFile>(
        &mut self,
        rf: &mut E,
        op: &ReplayOp,
        clock: &mut u64,
    ) -> Result<(), SimError> {
        let pc = op.pc;
        let store = &mut self.store;
        let regfile = |source| SimError::RegFile { pc, source };
        match op.kind {
            FTAG_READ => {
                let addr = RegAddr::new(op.cid, op.off);
                let access = rf.read(addr, store).map_err(regfile)?;
                *clock += u64::from(access.stall_cycles);
                if access.value != op.a {
                    return Err(reg_divergence(
                        LaneOp::Read(addr),
                        Some(access.value),
                        Some(op.a),
                        pc,
                        self.lane,
                    ));
                }
            }
            FTAG_WRITE => {
                let access = rf
                    .write(RegAddr::new(op.cid, op.off), op.a, store)
                    .map_err(regfile)?;
                *clock += u64::from(access.stall_cycles);
            }
            // Switches and frees go through the live machine's own Ctable
            // lifecycle.
            FTAG_SWITCH | FTAG_CALL_PUSH | FTAG_THREAD_SWITCH | FTAG_FREE_CONTEXT
            | FTAG_FREE_REG => {
                let context = match op.kind {
                    FTAG_SWITCH => LaneOp::SwitchTo(op.cid),
                    FTAG_CALL_PUSH => LaneOp::CallPush(op.cid),
                    FTAG_THREAD_SWITCH => LaneOp::ThreadSwitch(op.cid),
                    FTAG_FREE_CONTEXT => LaneOp::FreeContext(op.cid),
                    _ => LaneOp::FreeReg(RegAddr::new(op.cid, op.off)),
                };
                *clock += u64::from(store.context_op(rf, context).map_err(regfile)?);
            }
            FTAG_LOAD => {
                let (v, cycles) = store.mem.load(op.a);
                *clock += u64::from(cycles);
                if v != op.b {
                    return Err(mem_divergence("load", op.a, v, op.b, pc, self.lane));
                }
            }
            FTAG_STORE => *clock += u64::from(store.mem.store(op.a, op.b)),
            FTAG_AMO => {
                let (old, cycles) = store.mem.fetch_add(op.a, op.b as i32);
                *clock += u64::from(cycles);
                if old != op.c {
                    return Err(mem_divergence("amoadd", op.a, old, op.c, pc, self.lane));
                }
            }
            FTAG_SAMPLE => self.occupancy.record(rf.occupancy()),
            other => unreachable!("decode_ops admits no tag {other}"),
        }
        Ok(())
    }
}

/// A replayed register op returned a value other than the recorded one.
#[cold]
fn reg_divergence(
    rop: LaneOp,
    got: Option<Word>,
    expect: Option<Word>,
    pc: u32,
    lane: usize,
) -> SimError {
    SimError::LaneDivergence {
        pc,
        lane,
        detail: format!(
            "cached replay of {rop:?} (event {pc}) returned {got:?}, \
             live run recorded {expect:?}"
        ),
    }
}

/// A replayed load or atomic read a value other than the recorded one.
#[cold]
fn mem_divergence(
    what: &str,
    addr: Addr,
    got: Word,
    expect: Word,
    pc: u32,
    lane: usize,
) -> SimError {
    SimError::LaneDivergence {
        pc,
        lane,
        detail: format!(
            "cached replay of {what} {addr:#x} (event {pc}) read {got}, \
             live run recorded {expect}"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{fnv64 as fnv1a64, VarReader};
    use nsf_core::SpillEngine;
    use nsf_sim::{RegFileSpec, BACKING_STRIDE_WORDS};
    use nsf_workloads::Workload;

    fn five_specs() -> Vec<SimConfig> {
        [
            RegFileSpec::paper_nsf(64),
            RegFileSpec::paper_segmented(4, 32),
            RegFileSpec::Conventional {
                regs: 32,
                engine: SpillEngine::hardware(),
            },
            RegFileSpec::sparc_windows(32),
            RegFileSpec::Oracle,
        ]
        .into_iter()
        .map(SimConfig::with_regfile)
        .collect()
    }

    #[test]
    fn capture_report_matches_live_run() {
        let w = nsf_workloads::gatesim::build(0);
        let cfg = SimConfig::with_regfile(RegFileSpec::paper_nsf(80));
        let live = nsf_workloads::run(&w, cfg).unwrap();
        let buf = capture_frontend(&w, cfg).unwrap();
        assert_eq!(buf.report, live, "capture must be observational");
        assert!(buf.events > 0);
        assert!(buf.encoded_len() > 0);
        assert!(buf.shared_cycles <= live.cycles);
    }

    #[test]
    fn per_instruction_sampling_replays_exactly() {
        // `sample_interval: 1` puts a sample event after every
        // instruction; replay must reproduce each lane's live occupancy.
        let w = nsf_workloads::gatesim::build(0);
        let cfgs: Vec<SimConfig> = five_specs()
            .into_iter()
            .map(|cfg| SimConfig {
                sample_interval: 1,
                ..cfg
            })
            .collect();
        let buf = capture_frontend(&w, cfgs[0]).unwrap();
        let replayed = replay_frontend(&buf, &w, &cfgs).unwrap();
        for (cfg, got) in cfgs.iter().zip(&replayed) {
            let live = nsf_workloads::run(&w, *cfg).unwrap();
            assert_eq!(got.occupancy.samples, live.instructions);
            assert_eq!(*got, live, "{}", live.regfile_desc);
        }
    }

    #[test]
    fn capture_stream_is_pinned() {
        // Stream stores persist these bytes: a capture must emit the
        // same stream byte for byte, or every stored entry goes stale.
        let cfg = SimConfig::with_regfile(RegFileSpec::paper_nsf(80));
        let pins: [(&str, Workload, u64, u64, u64); 3] = [
            (
                "gatesim",
                nsf_workloads::gatesim::build(0),
                0xf538_326f_28bc_4658,
                15_993,
                9_481,
            ),
            (
                "rtlsim",
                nsf_workloads::rtlsim::build(0),
                0x35a7_2d31_68ed_71fa,
                16_485,
                10_921,
            ),
            (
                "zipfile",
                nsf_workloads::zipfile::build(0),
                0xa97b_1ca0_0c66_f5bf,
                149_504,
                99_568,
            ),
        ];
        for (name, w, hash, events, shared_cycles) in pins {
            let buf = capture_frontend(&w, cfg).unwrap();
            assert_eq!(
                (fnv1a64(&buf.bytes.to_vec()), buf.events, buf.shared_cycles),
                (hash, events, shared_cycles),
                "{name}"
            );
        }
    }

    #[test]
    fn uncapturable_inputs_are_typed_errors() {
        let w = nsf_workloads::gatesim::build(0);
        let spawning = Workload {
            program: nsf_isa::asm::assemble("main: li r0, 0\n spawn main, r0\n halt").unwrap(),
            ..nsf_workloads::gatesim::build(0)
        };
        let ok = SimConfig::default();
        let cases = [
            (&spawning, ok),
            (
                &w,
                SimConfig {
                    trace_depth: 4,
                    ..ok
                },
            ),
            (
                &w,
                SimConfig {
                    issue_width: 2,
                    read_ports: 3,
                    write_ports: 2,
                    ..ok
                },
            ),
            (
                &w,
                SimConfig {
                    issue_width: 0,
                    ..ok
                },
            ),
        ];
        for (i, (workload, cfg)) in cases.into_iter().enumerate() {
            let err = capture_frontend(workload, cfg).unwrap_err();
            assert!(
                matches!(err, WorkloadError::Sim(SimError::BadConfig(_))),
                "case {i}: {err:?}"
            );
        }
    }

    #[test]
    fn replay_reproduces_live_reports_across_families() {
        let w = nsf_workloads::gatesim::build(0);
        let cfgs = five_specs();
        let buf = capture_frontend(&w, cfgs[0]).unwrap();
        let replayed = replay_frontend(&buf, &w, &cfgs).unwrap();
        for (cfg, rep) in cfgs.iter().zip(&replayed) {
            let live = nsf_workloads::run(&w, *cfg).unwrap();
            assert_eq!(*rep, live, "{}", rep.regfile_desc);
        }
    }

    #[test]
    fn replay_with_capture_config_is_bit_identical() {
        let w = nsf_workloads::gatesim::build(0);
        let cfg = SimConfig::with_regfile(RegFileSpec::paper_segmented(4, 32));
        let buf = capture_frontend(&w, cfg).unwrap();
        let replayed = replay_frontend(&buf, &w, &[cfg]).unwrap();
        assert_eq!(replayed[0], buf.report);
    }

    #[test]
    fn mismatched_frontend_rejected() {
        let w = nsf_workloads::gatesim::build(0);
        let cfg = SimConfig::default();
        let buf = capture_frontend(&w, cfg).unwrap();
        let other = SimConfig {
            sample_interval: cfg.sample_interval + 1,
            ..cfg
        };
        let err = replay_frontend(&buf, &w, &[other]).unwrap_err();
        assert!(matches!(err, WorkloadError::Sim(SimError::BadConfig(_))));
    }

    #[test]
    fn cursor_varint_rejects_overflow_and_overlength() {
        let cur = |bytes: &[u8]| Cursor { bytes, pos: 0 }.varint();
        // u64::MAX is the widest legal encoding (nine 0xFF, then 0x01).
        let mut max = vec![0xFFu8; 9];
        max.push(0x01);
        assert_eq!(cur(&max), Some(u64::MAX));
        // Tenth-byte payload above bit 0 overflows a u64; a tenth-byte
        // continuation bit makes it over-long. Both must decode to None
        // (the caller reports a typed corruption error), never wrap.
        let mut over = vec![0xFFu8; 9];
        over.push(0x03);
        assert_eq!(cur(&over), None);
        let mut eleven = vec![0xFFu8; 10];
        eleven.push(0x00);
        assert_eq!(cur(&eleven), None);
        assert_eq!(cur(&[0xFF; 16]), None);
    }

    #[test]
    fn corrupt_buffer_is_a_typed_error() {
        let w = nsf_workloads::gatesim::build(0);
        let cfg = SimConfig::default();
        let mut buf = capture_frontend(&w, cfg).unwrap();
        let whole = buf.bytes.to_vec();
        buf.bytes = ChunkedBytes::from_slice(&whole[..whole.len() / 2]);
        let err = replay_frontend(&buf, &w, &[cfg]).unwrap_err();
        let WorkloadError::Sim(SimError::BadConfig(msg)) = &err else {
            panic!("expected BadConfig, got {err:?}");
        };
        assert!(msg.contains("corrupt"), "{msg}");
    }

    /// Encodes a hand-built event stream in the capture format.
    fn encode(events: &[(u8, u32, u32)]) -> (ChunkedBytes, u64) {
        let mut w = crate::frame::VarWriter::new();
        for &(tag, x, y) in events {
            w.put_u8(tag);
            match tag {
                FTAG_SWITCH | FTAG_CALL_PUSH | FTAG_THREAD_SWITCH | FTAG_FREE_CONTEXT => {
                    w.put_varint(u64::from(x));
                }
                FTAG_READ | FTAG_WRITE => {
                    // `x` packs `cid << 8 | offset`.
                    w.put_varint(u64::from(x >> 8));
                    w.put_u8(x as u8);
                    w.put_varint(u64::from(y));
                }
                FTAG_LOAD | FTAG_STORE => {
                    w.put_varint(u64::from(x));
                    w.put_varint(u64::from(y));
                }
                FTAG_SAMPLE => {}
                other => panic!("test encoder has no tag {other}"),
            }
        }
        (w.into_bytes().into(), events.len() as u64)
    }

    /// The first failure event-by-event lockstep over all lanes reports:
    /// the earliest diverging event, then the lowest lane. Lanes are
    /// independent, so it is the minimum over each lane replayed alone.
    fn lockstep_first(buf: &FrontendBuffer, w: &Workload, cfgs: &[SimConfig]) -> (u32, usize) {
        (0..cfgs.len())
            .map(|lane| match replay_frontend(buf, w, &cfgs[lane..=lane]) {
                Err(WorkloadError::Sim(SimError::LaneDivergence { pc, .. })) => (pc, lane),
                other => panic!("lane {lane} alone: expected a divergence, got {other:?}"),
            })
            .min()
            .expect("at least one lane")
    }

    /// A stream on which an NSF lane and a conventional lane diverge at
    /// different events. Context 1 writes a register, then a switch to
    /// context 2 makes the one-frame conventional file spill context 1's
    /// frame to its save area, while the NSF keeps it resident. A load
    /// of that save-area word, recorded as 0, therefore diverges on the
    /// conventional lane only. A read recorded with a wrong value later
    /// diverges on both. `gap` filler samples go before the load and
    /// again before the bad read, to put them in other tiles.
    fn split_divergence(cfg: &SimConfig, gap: usize) -> Vec<(u8, u32, u32)> {
        let save_word = cfg.backing_base + BACKING_STRIDE_WORDS;
        let mut ev = vec![
            (FTAG_SWITCH, 1, 0),
            (FTAG_WRITE, 1 << 8, 5),
            (FTAG_SWITCH, 2, 0),
        ];
        ev.extend(std::iter::repeat_n((FTAG_SAMPLE, 0, 0), gap));
        ev.push((FTAG_LOAD, save_word, 0));
        ev.extend(std::iter::repeat_n((FTAG_SAMPLE, 0, 0), gap));
        ev.push((FTAG_WRITE, 2 << 8, 7));
        ev.push((FTAG_READ, 2 << 8, 8));
        ev
    }

    #[test]
    fn tiled_replay_reports_the_lockstep_first_divergence() {
        let nsf = SimConfig::with_regfile(RegFileSpec::paper_nsf(64));
        let conv = SimConfig::with_regfile(RegFileSpec::Conventional {
            regs: 32,
            engine: SpillEngine::hardware(),
        });
        // A real capture supplies the buffer's configuration and report;
        // its stream is replaced below. The replayed streams load nothing
        // the workload initializes.
        let mut buf = capture_frontend(&nsf_workloads::gatesim::build(0), nsf).unwrap();
        let w = Workload {
            mem_init: Vec::new(),
            ..nsf_workloads::gatesim::build(0)
        };
        // gap 0: everything in one tile, and the conventional lane (lane
        // 1 in the first order) diverges before lane 0. Larger gaps put
        // the two divergences in different tiles.
        for gap in [0, REPLAY_TILE_OPS + 3, 2 * REPLAY_TILE_OPS] {
            (buf.bytes, buf.events) = encode(&split_divergence(&nsf, gap));
            for cfgs in [[nsf, conv, nsf], [conv, nsf, conv]] {
                let want = lockstep_first(&buf, &w, &cfgs);
                match replay_frontend(&buf, &w, &cfgs) {
                    Err(WorkloadError::Sim(SimError::LaneDivergence { pc, lane, .. })) => {
                        assert_eq!((pc, lane), want, "gap {gap}");
                    }
                    other => panic!("gap {gap}: expected a divergence, got {other:?}"),
                }
            }
        }
        // The first order's answer, spelled out: the load (event
        // 3 + gap) on the conventional lane 1.
        (buf.bytes, buf.events) = encode(&split_divergence(&nsf, 0));
        assert_eq!(lockstep_first(&buf, &w, &[nsf, conv]), (3, 1));
    }

    /// Bytes that fail to decode as the last event of a stream, each
    /// with the text its error names: a context varint too wide for a
    /// `u16`, an unknown tag, a context beyond the Ctable, and a load
    /// cut off mid-field.
    fn malformed_events(cfg: &SimConfig) -> Vec<(Vec<u8>, &'static str)> {
        let beyond = encode(&[(FTAG_SWITCH, cfg.mem.ctable_slots as u32, 0)])
            .0
            .to_vec();
        vec![
            (vec![FTAG_SWITCH, 0x80, 0x80, 0x04], "malformed field"),
            (vec![0xEE], "unknown event tag 238"),
            (beyond, "beyond"),
            (vec![FTAG_LOAD, 0x80], "malformed field"),
        ]
    }

    #[test]
    fn divergence_in_an_early_tile_wins_over_a_later_malformed_field() {
        let nsf = SimConfig::with_regfile(RegFileSpec::paper_nsf(64));
        let conv = SimConfig::with_regfile(RegFileSpec::Conventional {
            regs: 32,
            engine: SpillEngine::hardware(),
        });
        let mut buf = capture_frontend(&nsf_workloads::gatesim::build(0), nsf).unwrap();
        let w = Workload {
            mem_init: Vec::new(),
            ..nsf_workloads::gatesim::build(0)
        };
        // The divergences sit in the first tile, the malformed field in
        // the third; event-by-event lockstep never reaches the latter.
        let mut ev = split_divergence(&nsf, 0);
        ev.resize(2 * REPLAY_TILE_OPS + 5, (FTAG_SAMPLE, 0, 0));
        let (clean, events) = encode(&ev);
        for (bad, _) in malformed_events(&nsf) {
            (buf.bytes, buf.events) = ([clean.to_vec(), bad].concat().into(), events + 1);
            for cfgs in [[nsf, conv, nsf], [conv, nsf, conv]] {
                let want = lockstep_first(&buf, &w, &cfgs);
                match replay_frontend(&buf, &w, &cfgs) {
                    Err(WorkloadError::Sim(SimError::LaneDivergence { pc, lane, .. })) => {
                        assert_eq!((pc, lane), want);
                    }
                    other => panic!("expected a divergence, got {other:?}"),
                }
            }
            assert_eq!(lockstep_first(&buf, &w, &[nsf, conv]), (3, 1));
        }
    }

    #[test]
    fn malformed_field_in_a_later_tile_names_its_event_after_the_ops_before_it() {
        let nsf = SimConfig::with_regfile(RegFileSpec::paper_nsf(64));
        let conv = SimConfig::with_regfile(RegFileSpec::paper_segmented(4, 32));
        let mut buf = capture_frontend(&nsf_workloads::gatesim::build(0), nsf).unwrap();
        // Event `bad_at` is in the second tile; every event before it is
        // an occupancy sample, so each lane's sample count shows how far
        // it ran.
        let bad_at = REPLAY_TILE_OPS + 5;
        let (clean, _) = encode(&vec![(FTAG_SAMPLE, 0, 0); bad_at]);
        for (bad, names) in malformed_events(&nsf) {
            buf.bytes = [clean.to_vec(), bad].concat().into();
            buf.events = bad_at as u64 + 1;
            let mut set = ReplaySet::new(&[nsf, conv], &[]).unwrap();
            match set.run(&buf.bytes, buf.events) {
                Err(SimError::BadConfig(msg)) => {
                    assert!(msg.contains(names), "{msg}");
                    assert!(msg.contains(&format!("at event {bad_at}")), "{msg}");
                }
                other => panic!("expected BadConfig, got {other:?}"),
            }
            for occupancy in &set.occupancy {
                assert_eq!(occupancy.samples, bad_at as u64);
            }
        }
        // The count check still runs, after the last tile.
        buf.bytes = clean;
        buf.events = bad_at as u64 + 1;
        let mut set = ReplaySet::new(&[nsf], &[]).unwrap();
        match set.run(&buf.bytes, buf.events) {
            Err(SimError::BadConfig(msg)) => assert!(
                msg.contains(&format!(
                    "decoded {bad_at} events, capture recorded {}",
                    bad_at + 1
                )),
                "{msg}"
            ),
            other => panic!("expected BadConfig, got {other:?}"),
        }
        assert_eq!(set.occupancy[0].samples, bad_at as u64);
    }

    /// A loop of register, memory and context ops that records exactly
    /// `events` frontend events under `cfg`, which samples occupancy
    /// after every instruction: `pad` trailing `nop`s each add one
    /// sample event and nothing else.
    fn counted_capture(cfg: SimConfig, events: u64) -> (Workload, FrontendBuffer) {
        let workload = |iters: u64, pad: u64| {
            let src = format!(
                "main:\n li r1, {iters}\n li r2, 4096\n li r5, 0\n\
                 loop:\n sw r1, 0(r2)\n lw r3, 0(r2)\n call leaf\n addi r1, r1, -1\n \
                 bne r1, r5, loop\n{}halt\n\
                 leaf:\n li r6, 7\n mv r7, r6\n ret",
                " nop\n".repeat(pad as usize)
            );
            Workload {
                name: "tile_edges",
                parallel: false,
                program: nsf_isa::asm::assemble(&src).unwrap(),
                source_lines: 0,
                mem_init: Vec::new(),
                check: Box::new(|_| Ok(())),
            }
        };
        let count = |iters, pad| capture_frontend(&workload(iters, pad), cfg).unwrap().events;
        let per_iter = count(2, 0) - count(1, 0);
        let fixed = count(1, 0) - per_iter;
        let iters = (events - fixed) / per_iter;
        let w = workload(iters, (events - fixed) % per_iter);
        let buf = capture_frontend(&w, cfg).unwrap();
        assert_eq!(buf.events, events, "the padded loop misses its count");
        (w, buf)
    }

    #[test]
    fn streams_at_tile_edges_replay_like_live() {
        let cfgs: Vec<SimConfig> = five_specs()
            .into_iter()
            .map(|cfg| SimConfig {
                sample_interval: 1,
                ..cfg
            })
            .collect();
        let edge = 2 * REPLAY_TILE_OPS as u64;
        for events in [edge - 1, edge, edge + 1] {
            let (w, buf) = counted_capture(cfgs[0], events);
            let replayed = replay_frontend(&buf, &w, &cfgs).unwrap();
            for (cfg, got) in cfgs.iter().zip(&replayed) {
                let live = nsf_workloads::run(&w, *cfg).unwrap();
                assert_eq!(*got, live, "{events} events: {}", live.regfile_desc);
            }
        }
    }

    /// The fed path against the decoded one, on every capturable scale-0
    /// paper workload with one fed lane per engine family: the capture
    /// encodes the bytes it encodes without lanes, the lanes run exactly
    /// the tiles the decoder makes of those bytes, and their reports
    /// equal [`replay_frontend`]'s on the bytes and the live runs'.
    #[test]
    fn fed_lanes_match_the_decoded_stream() {
        let head = SimConfig::with_regfile(RegFileSpec::paper_nsf(80));
        let rest = five_specs();
        let mut captured = 0;
        for b in &nsf_workloads::BENCHMARKS {
            let w = (b.build)(0);
            if capture_rejection(&w, &head).is_some() {
                continue;
            }
            captured += 1;
            let alone = capture_frontend(&w, head).unwrap();
            let group = capture_group(&w, head, &rest).unwrap();
            let buf = &group.buf;
            assert_eq!(buf.bytes, alone.bytes, "{}", w.name);
            assert_eq!(
                (buf.events, buf.shared_cycles, &buf.report),
                (alone.events, alone.shared_cycles, &alone.report),
                "{}",
                w.name
            );

            let (mut rec, _) = FrontendRecorder::record(&w, head, &rest).unwrap();
            let fed = rec.finish_feed().expect("lanes were fed").unwrap();
            let mut decoded = Vec::new();
            for_each_tile(&buf.bytes, buf.events, head.mem.ctable_slots, |tile| {
                decoded.push(tile.to_vec());
                Ok(())
            })
            .unwrap();
            assert!(decoded.len() > 1, "{}: one tile proves little", w.name);
            assert_eq!(fed.ran, decoded, "{}", w.name);

            let reports = group.rest.unwrap();
            assert_eq!(
                reports,
                replay_frontend(buf, &w, &rest).unwrap(),
                "{}",
                w.name
            );
            for (cfg, got) in rest.iter().zip(&reports) {
                let live = nsf_workloads::run(&w, *cfg).unwrap();
                assert_eq!(*got, live, "{}: {}", w.name, live.regfile_desc);
            }
        }
        assert!(captured >= 3, "only {captured} capturable workloads");
    }

    /// Feeds a hand-built event stream to lanes under `cfgs` through the
    /// recorder's probe hooks, as a capture would: the encoded bytes and
    /// the feed's outcome.
    fn feed(cfgs: &[SimConfig], events: &[(u8, u32, u32)]) -> (ChunkedBytes, Result<(), SimError>) {
        let mut rec = FrontendRecorder {
            feed: Some(ReplaySet::new(cfgs, &[]).map(Feed::new)),
            ..FrontendRecorder::default()
        };
        let reg = |x: u32| RegAddr::new((x >> 8) as Cid, x as u8);
        for &(tag, x, y) in events {
            match tag {
                FTAG_SWITCH => rec.reg_op(LaneOp::SwitchTo(x as Cid), None),
                FTAG_FREE_CONTEXT => rec.reg_op(LaneOp::FreeContext(x as Cid), None),
                FTAG_WRITE => rec.reg_op(LaneOp::Write(reg(x), y), None),
                FTAG_READ => rec.reg_op(LaneOp::Read(reg(x)), Some(y)),
                FTAG_LOAD => rec.mem_load(x, y),
                FTAG_STORE => rec.mem_store(x, y),
                FTAG_SAMPLE => rec.occupancy_sample(),
                other => panic!("test feeder has no tag {other}"),
            }
        }
        let outcome = rec.finish_feed().expect("lanes were fed").map(|_| ());
        (rec.w, outcome)
    }

    #[test]
    fn fed_lanes_fail_where_decoded_replay_fails() {
        let nsf = SimConfig::with_regfile(RegFileSpec::paper_nsf(64));
        let conv = SimConfig::with_regfile(RegFileSpec::Conventional {
            regs: 32,
            engine: SpillEngine::hardware(),
        });
        let beyond = (FTAG_SWITCH, nsf.mem.ctable_slots as u32, 0);
        for gap in [0, REPLAY_TILE_OPS + 3, 2 * REPLAY_TILE_OPS] {
            let diverging = split_divergence(&nsf, gap);
            // A context beyond the Ctable after `gap` clean events.
            let mut out_of_range = vec![(FTAG_SAMPLE, 0, 0); gap];
            out_of_range.push(beyond);
            for events in [diverging, out_of_range] {
                let (bytes, count) = encode(&events);
                for cfgs in [[nsf, conv, nsf], [conv, nsf, conv]] {
                    let (fed_bytes, fed) = feed(&cfgs, &events);
                    assert_eq!(fed_bytes, bytes, "gap {gap}");
                    let mut set = ReplaySet::new(&cfgs, &[]).unwrap();
                    let decoded = set.run(&bytes, count);
                    assert_eq!(
                        format!("{fed:?}"),
                        format!("{decoded:?}"),
                        "gap {gap}: the feed must fail as the decoder does"
                    );
                    assert!(fed.is_err(), "gap {gap}");
                }
            }
        }
    }

    /// The tiles [`for_each_tile`] makes of `stream`, and how it ended.
    fn tiles_of(stream: &ChunkedBytes, events: u64, slots: usize) -> (Vec<Vec<ReplayOp>>, String) {
        let mut tiles = Vec::new();
        let end = for_each_tile(stream, events, slots, |tile| {
            tiles.push(tile.to_vec());
            Ok(())
        });
        (tiles, format!("{end:?}"))
    }

    /// `bytes` with chunk edges at `cuts` (ascending offsets).
    fn cut_at(bytes: &[u8], cuts: &[usize]) -> ChunkedBytes {
        let edges: Vec<usize> = [0]
            .iter()
            .chain(cuts)
            .chain([bytes.len()].iter())
            .copied()
            .collect();
        ChunkedBytes::from_chunks(
            edges
                .windows(2)
                .map(|w| bytes[w[0]..w[1]].to_vec())
                .collect(),
        )
    }

    #[test]
    fn chunk_edges_inside_the_first_events_decode_like_one_slice() {
        let cfg = SimConfig::default();
        let slots = cfg.mem.ctable_slots;
        let buf = capture_frontend(&nsf_workloads::gatesim::build(0), cfg).unwrap();
        let bytes = buf.bytes.to_vec();
        let whole = tiles_of(
            &ChunkedBytes::from_chunks(vec![bytes.clone()]),
            buf.events,
            slots,
        );
        assert_eq!(whole.1, "Ok(())");
        // One edge at every offset of the first events, then runs of
        // chunks 1 to 5 bytes wide across them.
        let first = 96;
        for cut in 1..first {
            let got = tiles_of(&cut_at(&bytes, &[cut]), buf.events, slots);
            assert!(got == whole, "edge at {cut}");
        }
        for width in 1..=5 {
            let cuts: Vec<usize> = (1..first / width).map(|k| k * width).collect();
            let got = tiles_of(&cut_at(&bytes, &cuts), buf.events, slots);
            assert!(got == whole, "chunks of {width}");
        }
        // A tile that fills in the last bytes of a chunk, where events
        // decode from the seam between two chunks.
        let samples = vec![FTAG_SAMPLE; 2 * REPLAY_TILE_OPS + 7];
        let count = samples.len() as u64;
        let whole = tiles_of(
            &ChunkedBytes::from_chunks(vec![samples.clone()]),
            count,
            slots,
        );
        for cut in REPLAY_TILE_OPS - 40..REPLAY_TILE_OPS + 40 {
            for cuts in [vec![cut], vec![cut, cut + 3], vec![cut - 50, cut]] {
                let got = tiles_of(&cut_at(&samples, &cuts), count, slots);
                assert!(got == whole, "edges at {cuts:?}");
            }
        }
        // A malformed last event fails with the same error and the same
        // ops before it, wherever an edge falls.
        let (prefix, events) = encode(&split_divergence(&cfg, 2));
        for (bad, names) in malformed_events(&cfg) {
            let bytes = [prefix.to_vec(), bad].concat();
            let whole = tiles_of(
                &ChunkedBytes::from_chunks(vec![bytes.clone()]),
                events + 1,
                slots,
            );
            assert!(whole.1.contains(names), "{}", whole.1);
            for cut in 1..bytes.len() {
                let got = tiles_of(&cut_at(&bytes, &[cut]), events + 1, slots);
                assert!(got == whole, "{names}: edge at {cut}");
            }
            let every: Vec<usize> = (1..bytes.len()).collect();
            assert!(tiles_of(&cut_at(&bytes, &every), events + 1, slots) == whole);
        }
    }

    #[test]
    fn context_beyond_the_ctable_is_a_typed_error() {
        // Stored buffers are read back from disk: a context no Ctable
        // can map must be rejected at decode, not panic in a lane.
        let cfg = SimConfig::default();
        let mut buf = capture_frontend(&nsf_workloads::gatesim::build(0), cfg).unwrap();
        let beyond = cfg.mem.ctable_slots as u32;
        for tag in [FTAG_SWITCH, FTAG_FREE_CONTEXT] {
            (buf.bytes, buf.events) = encode(&[(tag, beyond, 0)]);
            let bytes = buf.bytes.to_vec();
            let mut cur = Cursor {
                bytes: &bytes,
                pos: 0,
            };
            let mut tile = Vec::new();
            let err =
                decode_ops(&mut cur, bytes.len(), 0, cfg.mem.ctable_slots, &mut tile).unwrap_err();
            assert!(tile.is_empty());
            assert!(
                matches!(&err, SimError::BadConfig(m) if m.contains("beyond")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn tampered_value_trips_the_divergence_wall() {
        let w = nsf_workloads::gatesim::build(0);
        let cfg = SimConfig::default();
        let mut buf = capture_frontend(&w, cfg).unwrap();
        // Flip the recorded value of the first read event: replay must
        // notice the engine no longer agrees with the "live" recording.
        let mut bytes = buf.bytes.to_vec();
        let mut r = VarReader::new(&bytes);
        let mut patch_at = None;
        while !r.done() {
            let tag = r.get_u8().unwrap();
            match tag {
                FTAG_READ => {
                    r.get_int::<u16>().unwrap();
                    r.get_u8().unwrap();
                    patch_at = Some(r.pos());
                    break;
                }
                FTAG_WRITE => {
                    r.get_int::<u16>().unwrap();
                    r.get_u8().unwrap();
                    r.get_int::<u32>().unwrap();
                }
                FTAG_SWITCH | FTAG_CALL_PUSH | FTAG_THREAD_SWITCH | FTAG_FREE_CONTEXT => {
                    r.get_int::<u16>().unwrap();
                }
                FTAG_FREE_REG => {
                    r.get_int::<u16>().unwrap();
                    r.get_u8().unwrap();
                }
                FTAG_LOAD | FTAG_STORE => {
                    r.get_int::<u32>().unwrap();
                    r.get_int::<u32>().unwrap();
                }
                FTAG_AMO => {
                    r.get_int::<u32>().unwrap();
                    r.get_varint_signed().unwrap();
                    r.get_int::<u32>().unwrap();
                }
                FTAG_SAMPLE => {}
                other => panic!("unknown tag {other}"),
            }
        }
        let at = patch_at.expect("gatesim reads registers");
        // Single-byte varints (< 0x80) can be flipped in place without
        // breaking the framing; skip the (rare) multi-byte case.
        if bytes[at] < 0x80 {
            bytes[at] ^= 1;
            buf.bytes = bytes.into();
            let err = replay_frontend(&buf, &w, &[cfg]).unwrap_err();
            assert!(
                matches!(err, WorkloadError::Sim(SimError::LaneDivergence { .. })),
                "expected LaneDivergence, got {err:?}"
            );
        }
    }
}
