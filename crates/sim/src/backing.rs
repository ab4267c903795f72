//! The register backing store: Ctable translation over the data cache.
//!
//! Paper Figure 4: spilled registers live in per-context save areas in
//! virtual memory; the Ctable translates a Context ID to the save area's
//! base, and the transfers go **through the data cache**, so register
//! traffic and program data contend for the same lines.
//!
//! The hardware keeps one presence bit per backed register (the valid bits
//! of the save frame); [`BackingMap`] holds them, since raw memory cannot
//! distinguish "spilled zero" from "never spilled".
//!
//! [`CtableBacking`] is the simulator's one [`BackingStore`]: the live
//! [`crate::Machine`] and both replays in `nsf-trace` (frontend streams
//! and `.nsftrace` files) hand it to their engines, and all three apply
//! every context operation through [`CtableBacking::context_op`], the one
//! Ctable lifecycle: a context's save area
//! (`base + cid * BACKING_STRIDE_WORDS`) is mapped when the
//! context is first switched in and unmapped when it is freed. Nothing
//! spills a context before it has been current, so mapping at switch-in
//! is as early as any transfer can need it.

use crate::config::BACKING_STRIDE_WORDS;
use nsf_core::{BackingStore, Cid, LaneOp, RegFileError, RegisterFile, StoreFault, Word};
use nsf_mem::{Addr, MemSystem};

/// Per-context presence bits for backed registers (up to 64 per context).
///
/// Stored as a dense table indexed by Context ID — CIDs are small and
/// reused by the scheduler, so this stays compact while keeping the
/// per-spill/per-reload presence check hash-free (these sit on every
/// register-file miss the simulator executes).
#[derive(Debug, Default)]
pub struct BackingMap {
    /// `present[cid]` is the context's presence bitmask; zero (or out of
    /// range) means nothing is backed.
    present: Vec<u64>,
}

impl BackingMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn bits(&self, cid: Cid) -> u64 {
        self.present.get(usize::from(cid)).copied().unwrap_or(0)
    }

    #[inline]
    fn bits_mut(&mut self, cid: Cid) -> &mut u64 {
        let i = usize::from(cid);
        if i >= self.present.len() {
            self.present.resize(i + 1, 0);
        }
        &mut self.present[i]
    }
}

/// A [`BackingStore`] view combining the memory system and presence bits.
/// It borrows both halves: the live machine builds one per register-file
/// operation, a replay lane one per tile or event.
pub struct CtableBacking<'a> {
    /// The memory hierarchy (provides the Ctable and the data cache).
    pub mem: &'a mut MemSystem,
    /// Presence bits.
    pub map: &'a mut BackingMap,
    /// Where the save areas start: [`CtableBacking::context_op`] maps
    /// context `cid` to `base + cid * BACKING_STRIDE_WORDS`.
    pub base: Addr,
}

/// The low `len` bits set: the registers of a nonempty run (`len` in
/// `1..=64`, which [`CtableBacking::run_addr`] checks).
fn run_mask(len: usize) -> u64 {
    u64::MAX >> (64 - len)
}

impl CtableBacking<'_> {
    /// The backing address of register `first` of `cid`, for a run of
    /// `len` registers that must stay inside the context's 64 presence
    /// bits.
    fn run_addr(&self, cid: Cid, first: u8, len: usize) -> Result<Addr, StoreFault> {
        assert!(
            usize::from(first) + len <= 64,
            "a register run must fit the 64 presence bits"
        );
        self.mem
            .ctable()
            .reg_addr(cid, first)
            .map_err(|_| StoreFault::Unmapped(cid))
    }

    /// Applies `op` to engine `rf` over this store and returns its stall
    /// cycles. This is the one Ctable lifecycle: a context switched in
    /// (switch, call-push or thread switch) without a translation is
    /// mapped to `base + cid * BACKING_STRIDE_WORDS` first, and a freed
    /// context is unmapped after the engine drops it. A context beyond
    /// the Ctable cannot be mapped and faults with
    /// [`StoreFault::Unmapped`].
    ///
    /// It takes a [`LaneOp`], the form in which the live machine reports
    /// its engine operations and both replays decode theirs, so every
    /// path hands over the op it already holds. Reads and writes touch no
    /// translation and go straight to the engine; a read's value is not
    /// returned, so callers that need it call [`RegisterFile::read`].
    #[inline]
    pub fn context_op<E: RegisterFile>(
        &mut self,
        rf: &mut E,
        op: LaneOp,
    ) -> Result<u32, RegFileError> {
        if let LaneOp::SwitchTo(cid) | LaneOp::CallPush(cid) | LaneOp::ThreadSwitch(cid) = op {
            if self.mem.ctable().lookup(cid).is_err() {
                self.map_context(cid)?;
            }
        }
        match op {
            LaneOp::SwitchTo(cid) => rf.switch_to(cid, self),
            LaneOp::CallPush(cid) => rf.call_push(cid, self),
            LaneOp::ThreadSwitch(cid) => rf.thread_switch(cid, self),
            LaneOp::FreeContext(cid) => {
                rf.free_context(cid, self);
                self.mem.ctable_mut().unmap(cid);
                Ok(0)
            }
            LaneOp::FreeReg(addr) => {
                rf.free_reg(addr, self);
                Ok(0)
            }
            LaneOp::Read(addr) => rf.read(addr, self).map(|a| a.stall_cycles),
            LaneOp::Write(addr, value) => rf.write(addr, value, self).map(|a| a.stall_cycles),
        }
    }

    /// Installs `cid`'s save-area translation. Out of line: a context is
    /// mapped once per lifetime, switched many times.
    #[cold]
    #[inline(never)]
    fn map_context(&mut self, cid: Cid) -> Result<(), RegFileError> {
        let area = self.base + Addr::from(cid) * BACKING_STRIDE_WORDS;
        self.mem
            .ctable_mut()
            .map(cid, area)
            .map_err(|_| RegFileError::Store(StoreFault::Unmapped(cid)))
    }
}

impl BackingStore for CtableBacking<'_> {
    fn spill(&mut self, cid: Cid, offset: u8, value: Word) -> Result<u32, StoreFault> {
        let addr = self
            .mem
            .ctable()
            .reg_addr(cid, offset)
            .map_err(|_| StoreFault::Unmapped(cid))?;
        let cycles = self.mem.store(addr, value);
        *self.map.bits_mut(cid) |= 1 << offset;
        Ok(cycles)
    }

    fn reload(&mut self, cid: Cid, offset: u8) -> Result<(Option<Word>, u32), StoreFault> {
        let addr = self
            .mem
            .ctable()
            .reg_addr(cid, offset)
            .map_err(|_| StoreFault::Unmapped(cid))?;
        // The transfer happens regardless of presence — hardware reads the
        // save slot either way — but only present registers carry data.
        let (value, cycles) = self.mem.load(addr);
        let present = self.map.bits(cid) & (1 << offset) != 0;
        Ok((present.then_some(value), cycles))
    }

    /// One Ctable translation, one cache-line-granular store pass and
    /// one block write for the whole run; presence bits end exactly as
    /// the per-register loop leaves them.
    fn spill_run(
        &mut self,
        cid: Cid,
        first: u8,
        values: &[Word],
        valid: u64,
        cycles: &mut [u32],
    ) -> Result<(), StoreFault> {
        if values.is_empty() {
            return Ok(());
        }
        let addr = self.run_addr(cid, first, values.len())?;
        self.mem.store_run(addr, values, cycles);
        let run = run_mask(values.len()) << first;
        let bits = self.map.bits_mut(cid);
        *bits = (*bits & !run) | ((valid << first) & run);
        Ok(())
    }

    /// One Ctable translation, one cache-line-granular load pass and one
    /// block read for the whole run. As with single reloads, every slot
    /// is transferred but only present registers carry data.
    fn reload_run(
        &mut self,
        cid: Cid,
        first: u8,
        values: &mut [Word],
        cycles: &mut [u32],
    ) -> Result<u64, StoreFault> {
        if values.is_empty() {
            return Ok(0);
        }
        let addr = self.run_addr(cid, first, values.len())?;
        let mut words = [0 as Word; 64];
        let words = &mut words[..values.len()];
        self.mem.load_run(addr, words, cycles);
        let present = (self.map.bits(cid) >> first) & run_mask(values.len());
        let mut bits = present;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            values[i] = words[i];
        }
        Ok(present)
    }

    fn is_present(&self, cid: Cid, offset: u8) -> bool {
        self.map.bits(cid) & (1 << offset) != 0
    }

    fn any_present(&self, cid: Cid) -> bool {
        self.map.bits(cid) != 0
    }

    fn discard_context(&mut self, cid: Cid) {
        if let Some(bits) = self.map.present.get_mut(usize::from(cid)) {
            *bits = 0;
        }
    }

    fn discard_reg(&mut self, cid: Cid, offset: u8) {
        if let Some(bits) = self.map.present.get_mut(usize::from(cid)) {
            *bits &= !(1 << offset);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsf_core::{OracleFile, RegAddr};
    use nsf_mem::MemConfig;

    fn setup() -> (MemSystem, BackingMap) {
        let mut mem = MemSystem::new(MemConfig::default());
        mem.ctable_mut().map(3, 0x9000).unwrap();
        (mem, BackingMap::new())
    }

    #[test]
    fn spill_reload_through_cache() {
        let (mut mem, mut map) = setup();
        let mut b = CtableBacking {
            mem: &mut mem,
            map: &mut map,
            base: 0,
        };
        let c1 = b.spill(3, 2, 77).unwrap();
        assert!(c1 >= 1);
        assert!(b.is_present(3, 2));
        let (v, _) = b.reload(3, 2).unwrap();
        assert_eq!(v, Some(77));
        // The data physically lives at ctable(3) + 2.
        assert_eq!(mem.peek(0x9002), 77);
        assert!(
            mem.dcache_stats().accesses >= 2,
            "traffic goes through the cache"
        );
    }

    #[test]
    fn absent_register_reloads_no_data() {
        let (mut mem, mut map) = setup();
        let mut b = CtableBacking {
            mem: &mut mem,
            map: &mut map,
            base: 0,
        };
        let (v, cycles) = b.reload(3, 5).unwrap();
        assert_eq!(v, None);
        assert!(cycles >= 1, "the transfer still costs memory cycles");
    }

    #[test]
    fn unmapped_context_faults() {
        let (mut mem, mut map) = setup();
        let mut rf = OracleFile::new();
        let base: Addr = 0x2_0000;
        let mut b = CtableBacking {
            mem: &mut mem,
            map: &mut map,
            base,
        };
        // Before its first switch-in, a context has no save area.
        assert_eq!(b.spill(9, 0, 1), Err(StoreFault::Unmapped(9)));
        assert!(matches!(b.reload(9, 0), Err(StoreFault::Unmapped(9))));
        // Switching in maps exactly `base + cid * 64`.
        b.context_op(&mut rf, LaneOp::ThreadSwitch(9)).unwrap();
        assert_eq!(b.mem.ctable().lookup(9), Ok(base + 9 * 64));
        b.spill(9, 0, 1).unwrap();
        // Re-entry keeps the mapping, whatever base the view names.
        b.base = base + 0x1000;
        b.context_op(&mut rf, LaneOp::SwitchTo(9)).unwrap();
        b.context_op(&mut rf, LaneOp::CallPush(9)).unwrap();
        assert_eq!(b.mem.ctable().lookup(9), Ok(base + 9 * 64));
        // Reads and writes pass straight to the engine.
        let addr = RegAddr::new(9, 1);
        b.context_op(&mut rf, LaneOp::Write(addr, 5)).unwrap();
        b.context_op(&mut rf, LaneOp::Read(addr)).unwrap();
        assert_eq!(rf.read(addr, &mut b).unwrap().value, 5);
        // Freeing unmaps: the next spill faults again.
        b.context_op(&mut rf, LaneOp::FreeContext(9)).unwrap();
        assert_eq!(b.spill(9, 0, 1), Err(StoreFault::Unmapped(9)));
        // A context beyond the Ctable cannot be mapped: a typed fault,
        // and freeing it is harmless.
        let beyond = b.mem.ctable().capacity() as Cid;
        assert_eq!(
            b.context_op(&mut rf, LaneOp::ThreadSwitch(beyond)),
            Err(RegFileError::Store(StoreFault::Unmapped(beyond)))
        );
        b.context_op(&mut rf, LaneOp::FreeContext(beyond)).unwrap();
    }

    #[test]
    fn discards_clear_presence() {
        let (mut mem, mut map) = setup();
        let mut b = CtableBacking {
            mem: &mut mem,
            map: &mut map,
            base: 0,
        };
        b.spill(3, 0, 1).unwrap();
        b.spill(3, 1, 2).unwrap();
        b.discard_reg(3, 0);
        assert!(!b.is_present(3, 0));
        assert!(b.any_present(3));
        b.discard_context(3);
        assert!(!b.any_present(3));
    }
}
