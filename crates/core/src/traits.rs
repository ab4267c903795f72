//! The [`RegisterFile`] interface shared by every organization, and the
//! [`BackingStore`] interface through which files spill and reload.

use crate::addr::{Cid, RegAddr};
use crate::stats::{Occupancy, RegFileStats};
use crate::Word;
use std::fmt;

/// Fault raised by a backing store (failure injection, unmapped context).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreFault {
    /// The store has no translation for this context (e.g. the Ctable was
    /// never programmed by the scheduler).
    Unmapped(Cid),
    /// An injected fault (tests) or an underlying memory error.
    Io(String),
}

impl fmt::Display for StoreFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreFault::Unmapped(cid) => write!(f, "no backing mapping for context {cid}"),
            StoreFault::Io(msg) => write!(f, "backing store fault: {msg}"),
        }
    }
}

impl std::error::Error for StoreFault {}

/// Errors surfaced by register file operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegFileError {
    /// A register was read that was never written and has no backed copy —
    /// a read-before-write program bug the file can detect.
    ReadUndefined(RegAddr),
    /// The register offset exceeds the architectural context size.
    BadOffset(RegAddr),
    /// A segmented file was asked to access a context that is not the
    /// current frame; the processor must `switch_to` first.
    NotCurrent(Cid),
    /// The backing store faulted during a spill or reload.
    Store(StoreFault),
}

impl fmt::Display for RegFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegFileError::ReadUndefined(a) => {
                write!(f, "read of undefined register {a} (never written)")
            }
            RegFileError::BadOffset(a) => write!(f, "register offset out of range: {a}"),
            RegFileError::NotCurrent(cid) => {
                write!(f, "context {cid} is not current; switch_to it first")
            }
            RegFileError::Store(e) => write!(f, "spill/reload failed: {e}"),
        }
    }
}

impl std::error::Error for RegFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegFileError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreFault> for RegFileError {
    fn from(e: StoreFault) -> Self {
        RegFileError::Store(e)
    }
}

/// Result of a single register access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// Value read (for writes, the value written).
    pub value: Word,
    /// Extra cycles the access cost beyond the pipelined register access
    /// (0 on a hit; reload/spill latency on a miss).
    pub stall_cycles: u32,
    /// Whether the access missed in the file.
    pub missed: bool,
}

impl Access {
    /// A zero-cost hit returning `value`.
    pub fn hit(value: Word) -> Self {
        Access {
            value,
            stall_cycles: 0,
            missed: false,
        }
    }
}

/// Where spilled registers live: the per-context backing frames in memory.
///
/// Concrete implementations: [`crate::MapStore`] (self-contained, for unit
/// and property tests) and the simulator's Ctable-over-data-cache store
/// (`nsf-sim`), which charges real cache latencies per the paper's Fig. 4.
pub trait BackingStore {
    /// Writes one register back to the context's backing frame.
    /// Returns the memory cycles consumed.
    fn spill(&mut self, cid: Cid, offset: u8, value: Word) -> Result<u32, StoreFault>;

    /// Fetches one register from the backing frame.
    ///
    /// Returns `(None, cycles)` if the register has no backed copy (it was
    /// never spilled) — the transfer still happens in hardware, it just
    /// carries no defined data.
    fn reload(&mut self, cid: Cid, offset: u8) -> Result<(Option<Word>, u32), StoreFault>;

    /// Spills registers `first..first + values.len()` of `cid` as one
    /// run: the same transfers, in the same ascending order, as one
    /// [`spill`](Self::spill) per register. Bit `i` of `valid` says
    /// whether `values[i]` holds data. A register without it still moves
    /// (a whole-frame transfer carries empty slots too), but its backed
    /// copy is then dropped, as [`discard_reg`](Self::discard_reg) does,
    /// so the garbage never reads back as live. Each register's memory
    /// cycles go to `cycles[i]`. A run holds at most 64 registers (the
    /// width of a backing frame's presence bits).
    ///
    /// The default is that per-register loop, so wrappers with
    /// per-transfer behaviour (fault injection) keep it. Stores over a
    /// real memory hierarchy override it to translate once per run.
    fn spill_run(
        &mut self,
        cid: Cid,
        first: u8,
        values: &[Word],
        valid: u64,
        cycles: &mut [u32],
    ) -> Result<(), StoreFault> {
        debug_assert_eq!(values.len(), cycles.len());
        for (i, (&value, cyc)) in values.iter().zip(cycles.iter_mut()).enumerate() {
            let offset = first + i as u8;
            *cyc = self.spill(cid, offset, value)?;
            if valid & (1 << i) == 0 {
                self.discard_reg(cid, offset);
            }
        }
        Ok(())
    }

    /// Reloads registers `first..first + values.len()` of `cid` as one
    /// run: the same transfers, in the same ascending order, as one
    /// [`reload`](Self::reload) per register. Returns the mask of the
    /// registers that carried data (bit `i` ⇔ register `first + i`); only
    /// their `values` slots are written. Each register's memory cycles go
    /// to `cycles[i]`. The default is the per-register loop, as for
    /// [`spill_run`](Self::spill_run).
    fn reload_run(
        &mut self,
        cid: Cid,
        first: u8,
        values: &mut [Word],
        cycles: &mut [u32],
    ) -> Result<u64, StoreFault> {
        debug_assert_eq!(values.len(), cycles.len());
        let mut present = 0;
        for (i, (slot, cyc)) in values.iter_mut().zip(cycles.iter_mut()).enumerate() {
            let (value, c) = self.reload(cid, first + i as u8)?;
            *cyc = c;
            if let Some(v) = value {
                *slot = v;
                present |= 1 << i;
            }
        }
        Ok(present)
    }

    /// `true` if the backing frame holds data for this register — the
    /// per-register valid bits a `ValidOnly` reload policy consults.
    fn is_present(&self, cid: Cid, offset: u8) -> bool;

    /// `true` if any register of the context has a backed copy (i.e. the
    /// context has run and spilled before).
    fn any_present(&self, cid: Cid) -> bool;

    /// Drops all backing data for a dead context.
    fn discard_context(&mut self, cid: Cid);

    /// Drops the backed copy of a single dead register (issued on the
    /// explicit per-register deallocation hint, paper §4.2).
    fn discard_reg(&mut self, cid: Cid, offset: u8);
}

/// The maximal runs of set bits in `mask`, lowest first, as
/// `(first bit, length)` pairs: how a masked frame transfer splits into
/// [`BackingStore::spill_run`]/[`BackingStore::reload_run`] calls.
pub(crate) fn bit_runs(mut mask: u64) -> impl Iterator<Item = (u8, u8)> {
    std::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let first = mask.trailing_zeros();
        let len = (!(mask >> first)).trailing_zeros();
        let end = first + len;
        mask = if end >= 64 { 0 } else { mask & (!0 << end) };
        Some((first as u8, len as u8))
    })
}

/// A register file organization, as seen by the processor pipeline.
pub trait RegisterFile {
    /// Reads register `addr`; may reload it from `store` on a miss.
    fn read(&mut self, addr: RegAddr, store: &mut dyn BackingStore)
        -> Result<Access, RegFileError>;

    /// Writes register `addr`; may allocate, fetch, or spill via `store`.
    fn write(
        &mut self,
        addr: RegAddr,
        value: Word,
        store: &mut dyn BackingStore,
    ) -> Result<Access, RegFileError>;

    /// Notifies the file that `cid` becomes the running context. Returns
    /// the stall cycles of the switch (zero for the NSF; a possible frame
    /// spill + reload for segmented files).
    fn switch_to(&mut self, cid: Cid, store: &mut dyn BackingStore) -> Result<u32, RegFileError>;

    /// A procedure call pushed a fresh context: `cid` is the callee.
    /// Window-based organizations advance their current-window pointer
    /// here; everything else treats it as an ordinary [`switch_to`].
    ///
    /// [`switch_to`]: RegisterFile::switch_to
    fn call_push(&mut self, cid: Cid, store: &mut dyn BackingStore) -> Result<u32, RegFileError> {
        self.switch_to(cid, store)
    }

    /// The scheduler dispatched a different *thread* whose current
    /// context is `cid`. Window-based organizations flush here (their
    /// windows belong to one call chain); everything else treats it as an
    /// ordinary [`switch_to`].
    ///
    /// [`switch_to`]: RegisterFile::switch_to
    fn thread_switch(
        &mut self,
        cid: Cid,
        store: &mut dyn BackingStore,
    ) -> Result<u32, RegFileError> {
        self.switch_to(cid, store)
    }

    /// Declares every register of `cid` dead: resident lines are dropped
    /// without writeback and backing data is discarded.
    fn free_context(&mut self, cid: Cid, store: &mut dyn BackingStore);

    /// Explicitly deallocates a single register (paper §4.2); a hint that
    /// non-associative organizations ignore.
    fn free_reg(&mut self, addr: RegAddr, store: &mut dyn BackingStore);

    /// Total architectural register slots in the file.
    fn capacity(&self) -> u32;

    /// Point-in-time occupancy (sampled by the simulator each instruction).
    fn occupancy(&self) -> Occupancy;

    /// Accumulated statistics.
    fn stats(&self) -> &RegFileStats;

    /// Resets statistics (occupancy state is untouched).
    fn reset_stats(&mut self);

    /// A short human-readable description, e.g. `"NSF 128x1"`.
    fn describe(&self) -> String;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_chain() {
        let e = RegFileError::Store(StoreFault::Unmapped(4));
        assert!(e.to_string().contains("context 4"));
        assert!(std::error::Error::source(&e).is_some());
        let e2 = RegFileError::ReadUndefined(RegAddr::new(1, 2));
        assert!(std::error::Error::source(&e2).is_none());
        assert!(e2.to_string().contains("<1:2>"));
    }

    #[test]
    fn bit_runs_splits_masks() {
        let runs = |m| bit_runs(m).collect::<Vec<_>>();
        assert_eq!(runs(0), vec![]);
        assert_eq!(runs(0b1011_0110), vec![(1, 2), (4, 2), (7, 1)]);
        assert_eq!(runs(u64::MAX), vec![(0, 64)]);
        assert_eq!(runs(1 << 63 | 1), vec![(0, 1), (63, 1)]);
    }

    #[test]
    fn access_hit_constructor() {
        let a = Access::hit(9);
        assert_eq!(a.value, 9);
        assert_eq!(a.stall_cycles, 0);
        assert!(!a.missed);
    }
}
