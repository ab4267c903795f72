//! Static dispatch over the concrete register-file organizations.
//!
//! The simulator's inner loop issues a register read or write per
//! instruction; holding the engine as a `Box<dyn RegisterFile>` put a
//! vtable call on that path. [`EngineDispatch`] enumerates the concrete
//! engine families instead, so a machine that owns one by value
//! dispatches with a predictable `match` the compiler can inline
//! through. The hot loops (the simulator's scheduler loop and the
//! frontend-stream replay) go one step further: they match on the
//! family once per run or tile and run a loop monomorphized for that
//! engine. There is no dynamic variant; observing a run is the job of
//! the simulator's frontend probe, not of a wrapping engine.

use crate::addr::{Cid, RegAddr};
use crate::stats::{Occupancy, RegFileStats};
use crate::traits::{Access, BackingStore, RegFileError, RegisterFile};
use crate::Word;
use crate::{ConventionalFile, NamedStateFile, OracleFile, SegmentedFile, WindowedFile};
use std::fmt;

/// A register file organization, dispatched statically.
///
/// One variant per concrete engine family (the segmented family covers
/// both hardware- and software-spill engines — that choice is a
/// [`crate::SpillEngine`] parameter, not a type) and the oracle.
pub enum EngineDispatch {
    /// The Named-State Register File.
    Nsf(NamedStateFile),
    /// A segmented multithreaded file (hardware or software spill).
    Segmented(SegmentedFile),
    /// SPARC-style overlapping register windows.
    Windowed(WindowedFile),
    /// A conventional single-context file.
    Conventional(ConventionalFile),
    /// The infinite oracle (differential testing).
    Oracle(OracleFile),
}

impl EngineDispatch {
    /// Applies one architectural operation. Every [`RegisterFile`]
    /// method that the simulator or the differential checker issues per
    /// instruction is reachable through one [`LaneOp`], so a decoded
    /// operation stream can drive any engine without re-matching on the
    /// instruction.
    #[inline]
    pub fn apply_op(
        &mut self,
        op: LaneOp,
        store: &mut dyn BackingStore,
    ) -> Result<LaneStep, RegFileError> {
        match op {
            LaneOp::Read(addr) => self.read(addr, store).map(|a| LaneStep {
                value: Some(a.value),
                stall_cycles: a.stall_cycles,
            }),
            LaneOp::Write(addr, value) => self.write(addr, value, store).map(|a| LaneStep {
                value: None,
                stall_cycles: a.stall_cycles,
            }),
            LaneOp::SwitchTo(cid) => self.switch_to(cid, store).map(LaneStep::switch),
            LaneOp::CallPush(cid) => self.call_push(cid, store).map(LaneStep::switch),
            LaneOp::ThreadSwitch(cid) => self.thread_switch(cid, store).map(LaneStep::switch),
            LaneOp::FreeContext(cid) => {
                self.free_context(cid, store);
                Ok(LaneStep::free())
            }
            LaneOp::FreeReg(addr) => {
                self.free_reg(addr, store);
                Ok(LaneStep::free())
            }
        }
    }
}

/// One architectural register-file operation, as
/// [`EngineDispatch::apply_op`] takes it: the simulator reports each
/// engine operation to its frontend probe in this form, and the
/// frontend-stream replay and the differential checker decode their
/// streams to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneOp {
    /// Read a register.
    Read(RegAddr),
    /// Write a register.
    Write(RegAddr, Word),
    /// Make `cid` current (plain switch).
    SwitchTo(Cid),
    /// Make `cid` current via the call-allocation path.
    CallPush(Cid),
    /// Make `cid` current via the thread-switch path.
    ThreadSwitch(Cid),
    /// Release a whole context.
    FreeContext(Cid),
    /// Deallocate one register.
    FreeReg(RegAddr),
}

impl LaneOp {
    /// The context the operation names.
    pub fn cid(&self) -> Cid {
        match *self {
            LaneOp::Read(addr) | LaneOp::Write(addr, _) | LaneOp::FreeReg(addr) => addr.cid,
            LaneOp::SwitchTo(cid)
            | LaneOp::CallPush(cid)
            | LaneOp::ThreadSwitch(cid)
            | LaneOp::FreeContext(cid) => cid,
        }
    }
}

impl fmt::Display for LaneOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            LaneOp::Read(addr) => write!(f, "read {addr}"),
            LaneOp::Write(addr, value) => write!(f, "write {addr} = {value:#x}"),
            LaneOp::SwitchTo(cid) => write!(f, "switch -> {cid}"),
            LaneOp::CallPush(cid) => write!(f, "call_push -> {cid}"),
            LaneOp::ThreadSwitch(cid) => write!(f, "thread_switch -> {cid}"),
            LaneOp::FreeContext(cid) => write!(f, "free_context {cid}"),
            LaneOp::FreeReg(addr) => write!(f, "free_reg {addr}"),
        }
    }
}

/// What one lane reported for one [`LaneOp`]: the architectural value
/// (reads only) and the stall cycles the operation cost that lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneStep {
    /// The value a [`LaneOp::Read`] returned; `None` for every other op.
    pub value: Option<Word>,
    /// Pipeline stall cycles charged by this lane's organization.
    pub stall_cycles: u32,
}

impl LaneStep {
    #[inline]
    fn switch(cycles: u32) -> Self {
        LaneStep {
            value: None,
            stall_cycles: cycles,
        }
    }

    #[inline]
    fn free() -> Self {
        LaneStep {
            value: None,
            stall_cycles: 0,
        }
    }
}

impl From<NamedStateFile> for EngineDispatch {
    fn from(e: NamedStateFile) -> Self {
        EngineDispatch::Nsf(e)
    }
}

impl From<SegmentedFile> for EngineDispatch {
    fn from(e: SegmentedFile) -> Self {
        EngineDispatch::Segmented(e)
    }
}

impl From<WindowedFile> for EngineDispatch {
    fn from(e: WindowedFile) -> Self {
        EngineDispatch::Windowed(e)
    }
}

impl From<ConventionalFile> for EngineDispatch {
    fn from(e: ConventionalFile) -> Self {
        EngineDispatch::Conventional(e)
    }
}

impl From<OracleFile> for EngineDispatch {
    fn from(e: OracleFile) -> Self {
        EngineDispatch::Oracle(e)
    }
}

/// Forwards one method call to whichever engine is inside. Concrete
/// variants resolve statically (including each engine's own overrides
/// of the trait's defaulted methods).
macro_rules! forward {
    ($self:expr, $method:ident ( $($arg:expr),* )) => {
        match $self {
            EngineDispatch::Nsf(e) => e.$method($($arg),*),
            EngineDispatch::Segmented(e) => e.$method($($arg),*),
            EngineDispatch::Windowed(e) => e.$method($($arg),*),
            EngineDispatch::Conventional(e) => e.$method($($arg),*),
            EngineDispatch::Oracle(e) => e.$method($($arg),*),
        }
    };
}

impl RegisterFile for EngineDispatch {
    #[inline]
    fn read(
        &mut self,
        addr: RegAddr,
        store: &mut dyn BackingStore,
    ) -> Result<Access, RegFileError> {
        forward!(self, read(addr, store))
    }

    #[inline]
    fn write(
        &mut self,
        addr: RegAddr,
        value: Word,
        store: &mut dyn BackingStore,
    ) -> Result<Access, RegFileError> {
        forward!(self, write(addr, value, store))
    }

    #[inline]
    fn switch_to(&mut self, cid: Cid, store: &mut dyn BackingStore) -> Result<u32, RegFileError> {
        forward!(self, switch_to(cid, store))
    }

    #[inline]
    fn call_push(&mut self, cid: Cid, store: &mut dyn BackingStore) -> Result<u32, RegFileError> {
        forward!(self, call_push(cid, store))
    }

    #[inline]
    fn thread_switch(
        &mut self,
        cid: Cid,
        store: &mut dyn BackingStore,
    ) -> Result<u32, RegFileError> {
        forward!(self, thread_switch(cid, store))
    }

    #[inline]
    fn free_context(&mut self, cid: Cid, store: &mut dyn BackingStore) {
        forward!(self, free_context(cid, store))
    }

    #[inline]
    fn free_reg(&mut self, addr: RegAddr, store: &mut dyn BackingStore) {
        forward!(self, free_reg(addr, store))
    }

    #[inline]
    fn capacity(&self) -> u32 {
        forward!(self, capacity())
    }

    #[inline]
    fn occupancy(&self) -> Occupancy {
        forward!(self, occupancy())
    }

    #[inline]
    fn stats(&self) -> &RegFileStats {
        forward!(self, stats())
    }

    #[inline]
    fn reset_stats(&mut self) {
        forward!(self, reset_stats())
    }

    fn describe(&self) -> String {
        forward!(self, describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MapStore;
    use crate::NsfConfig;

    #[test]
    fn dispatch_matches_inner_engine() {
        let mut store = MapStore::new();
        let mut direct = NamedStateFile::new(NsfConfig::paper_default(64));
        let mut via: EngineDispatch = NamedStateFile::new(NsfConfig::paper_default(64)).into();
        assert_eq!(via.describe(), direct.describe());
        assert_eq!(via.capacity(), direct.capacity());
        for i in 0..8 {
            let a = RegAddr::new(1, i);
            let d = direct.write(a, Word::from(i) + 1, &mut store);
            let v = via.write(a, Word::from(i) + 1, &mut store);
            assert_eq!(d, v);
            assert_eq!(
                direct.read(a, &mut store).unwrap(),
                via.read(a, &mut store).unwrap()
            );
        }
        assert_eq!(direct.stats(), via.stats());
        assert_eq!(direct.occupancy().valid_regs, via.occupancy().valid_regs);
    }

    #[test]
    fn apply_op_matches_direct_calls() {
        let ops = [
            LaneOp::ThreadSwitch(1),
            LaneOp::Write(RegAddr::new(1, 0), 42),
            LaneOp::Read(RegAddr::new(1, 0)),
            LaneOp::CallPush(2),
            LaneOp::Write(RegAddr::new(2, 3), 7),
            LaneOp::SwitchTo(1),
            LaneOp::FreeReg(RegAddr::new(1, 0)),
            LaneOp::FreeContext(2),
            LaneOp::FreeContext(1),
        ];
        let mut direct: EngineDispatch = NamedStateFile::new(NsfConfig::paper_default(32)).into();
        let mut via: EngineDispatch = NamedStateFile::new(NsfConfig::paper_default(32)).into();
        let (mut sd, mut sv) = (MapStore::new(), MapStore::new());
        for &op in &ops {
            let want = match op {
                LaneOp::Read(a) => direct.read(a, &mut sd).map(|acc| LaneStep {
                    value: Some(acc.value),
                    stall_cycles: acc.stall_cycles,
                }),
                LaneOp::Write(a, v) => direct.write(a, v, &mut sd).map(|acc| LaneStep {
                    value: None,
                    stall_cycles: acc.stall_cycles,
                }),
                LaneOp::SwitchTo(c) => direct.switch_to(c, &mut sd).map(LaneStep::switch),
                LaneOp::CallPush(c) => direct.call_push(c, &mut sd).map(LaneStep::switch),
                LaneOp::ThreadSwitch(c) => direct.thread_switch(c, &mut sd).map(LaneStep::switch),
                LaneOp::FreeContext(c) => {
                    direct.free_context(c, &mut sd);
                    Ok(LaneStep::free())
                }
                LaneOp::FreeReg(a) => {
                    direct.free_reg(a, &mut sd);
                    Ok(LaneStep::free())
                }
            };
            let got = via.apply_op(op, &mut sv);
            match (want, got) {
                (Ok(w), Ok(g)) => assert_eq!(w, g, "{op:?}"),
                (Err(w), Err(g)) => assert_eq!(w.to_string(), g.to_string(), "{op:?}"),
                (w, g) => panic!("{op:?}: direct {w:?} vs apply_op {g:?}"),
            }
        }
        assert_eq!(direct.stats(), via.stats());
    }

    #[test]
    fn lane_ops_name_their_context_and_print_stably() {
        let a = RegAddr::new(3, 7);
        assert_eq!(LaneOp::Read(a).cid(), 3);
        assert_eq!(LaneOp::FreeContext(9).cid(), 9);
        assert_eq!(LaneOp::Read(a).to_string(), "read <3:7>");
        assert_eq!(LaneOp::Write(a, 0x100).to_string(), "write <3:7> = 0x100");
        assert_eq!(LaneOp::CallPush(2).to_string(), "call_push -> 2");
        assert_eq!(LaneOp::FreeReg(a).to_string(), "free_reg <3:7>");
    }
}
