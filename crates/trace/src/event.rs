//! The register-file event vocabulary: everything an engine (or the
//! data cache its spills travel through) observes during a run.

use nsf_core::{Cid, LaneOp, RegAddr, Word};
use nsf_mem::Addr;
use std::fmt;

/// One engine-facing operation, as captured by [`crate::TraceRecorder`].
///
/// The stream covers the full [`nsf_core::RegisterFile`] surface —
/// accesses by `<Cid:offset>`, the three context-switch kinds, context
/// free, and the explicit per-register deallocation hint (paper §4.2) —
/// plus the program's own cached memory accesses. The latter belong in
/// a *register file* trace because spills and reloads go through the
/// data cache (paper Fig. 4): reload/spill cycle costs depend on cache
/// state, and cache state depends on the interleaved program traffic.
/// With both streams present, replay reproduces live-run
/// [`nsf_core::RegFileStats`] exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegEvent {
    /// Register read access.
    Read {
        /// The register's `<Cid:offset>` name.
        addr: RegAddr,
    },
    /// Register write access (the written value rides along so replayed
    /// register and backing-store contents match the live run word for
    /// word, which lets `diff` compare values across engines).
    Write {
        /// The register's `<Cid:offset>` name.
        addr: RegAddr,
        /// The value written.
        value: Word,
    },
    /// Plain context switch (procedure return path).
    SwitchTo {
        /// The incoming context.
        cid: Cid,
    },
    /// Context switch via procedure call — the allocation edge of a
    /// fresh context's lifetime.
    CallPush {
        /// The callee's (new) context.
        cid: Cid,
    },
    /// Context switch via thread dispatch.
    ThreadSwitch {
        /// The dispatched thread's current context.
        cid: Cid,
    },
    /// Every register of the context was declared dead.
    FreeContext {
        /// The dying context.
        cid: Cid,
    },
    /// Explicit single-register deallocation hint (paper §4.2).
    FreeReg {
        /// The dead register's `<Cid:offset>` name.
        addr: RegAddr,
    },
    /// The program loaded from data memory through the data cache.
    MemRead {
        /// Virtual address of the access.
        addr: Addr,
    },
    /// The program stored to data memory through the data cache.
    MemWrite {
        /// Virtual address of the access.
        addr: Addr,
    },
}

impl RegEvent {
    /// `true` for the two program-memory events, `false` for the seven
    /// register-file operations.
    pub fn is_mem(&self) -> bool {
        matches!(self, RegEvent::MemRead { .. } | RegEvent::MemWrite { .. })
    }

    /// The context the event touches, if it names one.
    pub fn cid(&self) -> Option<Cid> {
        match *self {
            RegEvent::Read { addr } | RegEvent::Write { addr, .. } | RegEvent::FreeReg { addr } => {
                Some(addr.cid)
            }
            RegEvent::SwitchTo { cid }
            | RegEvent::CallPush { cid }
            | RegEvent::ThreadSwitch { cid }
            | RegEvent::FreeContext { cid } => Some(cid),
            RegEvent::MemRead { .. } | RegEvent::MemWrite { .. } => None,
        }
    }

    /// The register-file operation this event names, or `None` for the
    /// two program-memory events. Inverse of `RegEvent::from(LaneOp)`.
    pub fn lane_op(&self) -> Option<LaneOp> {
        Some(match *self {
            RegEvent::Read { addr } => LaneOp::Read(addr),
            RegEvent::Write { addr, value } => LaneOp::Write(addr, value),
            RegEvent::SwitchTo { cid } => LaneOp::SwitchTo(cid),
            RegEvent::CallPush { cid } => LaneOp::CallPush(cid),
            RegEvent::ThreadSwitch { cid } => LaneOp::ThreadSwitch(cid),
            RegEvent::FreeContext { cid } => LaneOp::FreeContext(cid),
            RegEvent::FreeReg { addr } => LaneOp::FreeReg(addr),
            RegEvent::MemRead { .. } | RegEvent::MemWrite { .. } => return None,
        })
    }

    /// A short stable label for histograms and diff output.
    pub fn kind(&self) -> &'static str {
        match self {
            RegEvent::Read { .. } => "read",
            RegEvent::Write { .. } => "write",
            RegEvent::SwitchTo { .. } => "switch",
            RegEvent::CallPush { .. } => "call_push",
            RegEvent::ThreadSwitch { .. } => "thread_switch",
            RegEvent::FreeContext { .. } => "free_context",
            RegEvent::FreeReg { .. } => "free_reg",
            RegEvent::MemRead { .. } => "mem_read",
            RegEvent::MemWrite { .. } => "mem_write",
        }
    }
}

impl From<LaneOp> for RegEvent {
    fn from(op: LaneOp) -> Self {
        match op {
            LaneOp::Read(addr) => RegEvent::Read { addr },
            LaneOp::Write(addr, value) => RegEvent::Write { addr, value },
            LaneOp::SwitchTo(cid) => RegEvent::SwitchTo { cid },
            LaneOp::CallPush(cid) => RegEvent::CallPush { cid },
            LaneOp::ThreadSwitch(cid) => RegEvent::ThreadSwitch { cid },
            LaneOp::FreeContext(cid) => RegEvent::FreeContext { cid },
            LaneOp::FreeReg(addr) => RegEvent::FreeReg { addr },
        }
    }
}

impl fmt::Display for RegEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RegEvent::Read { addr } => write!(f, "read {addr}"),
            RegEvent::Write { addr, value } => write!(f, "write {addr} = {value:#x}"),
            RegEvent::SwitchTo { cid } => write!(f, "switch -> {cid}"),
            RegEvent::CallPush { cid } => write!(f, "call_push -> {cid}"),
            RegEvent::ThreadSwitch { cid } => write!(f, "thread_switch -> {cid}"),
            RegEvent::FreeContext { cid } => write!(f, "free_context {cid}"),
            RegEvent::FreeReg { addr } => write!(f, "free_reg {addr}"),
            RegEvent::MemRead { addr } => write!(f, "mem_read {addr:#x}"),
            RegEvent::MemWrite { addr } => write!(f, "mem_write {addr:#x}"),
        }
    }
}

/// An event plus the simulator clock at which it was observed. Cycles
/// are informational (delta-encoded on disk, ignored by replay).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimedEvent {
    /// Simulator cycle stamp (from the most recent instruction issue).
    pub cycle: u64,
    /// The operation.
    pub event: RegEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_and_labels() {
        let r = RegEvent::Read {
            addr: RegAddr::new(3, 7),
        };
        assert!(!r.is_mem());
        assert_eq!(r.cid(), Some(3));
        assert_eq!(r.kind(), "read");
        assert_eq!(r.to_string(), "read <3:7>");

        let m = RegEvent::MemWrite { addr: 0x100 };
        assert!(m.is_mem());
        assert_eq!(m.cid(), None);
        assert!(m.to_string().contains("0x100"));

        assert_eq!(RegEvent::FreeContext { cid: 9 }.cid(), Some(9));
        assert_eq!(RegEvent::CallPush { cid: 2 }.kind(), "call_push");
    }

    #[test]
    fn lane_ops_round_trip() {
        let a = RegAddr::new(4, 2);
        for op in [
            LaneOp::Read(a),
            LaneOp::Write(a, 0xdead),
            LaneOp::SwitchTo(4),
            LaneOp::CallPush(5),
            LaneOp::ThreadSwitch(6),
            LaneOp::FreeContext(7),
            LaneOp::FreeReg(a),
        ] {
            let ev = RegEvent::from(op);
            assert!(!ev.is_mem());
            assert_eq!(ev.lane_op(), Some(op));
        }
        assert_eq!(RegEvent::MemRead { addr: 1 }.lane_op(), None);
        assert_eq!(RegEvent::MemWrite { addr: 1 }.lane_op(), None);
    }
}
