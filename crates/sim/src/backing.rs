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

use crate::config::BACKING_STRIDE_WORDS;
use nsf_core::{BackingStore, Cid, StoreFault, Word};
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

    /// Number of contexts with any backed register (diagnostics).
    pub fn contexts(&self) -> usize {
        self.present.iter().filter(|&&bits| bits != 0).count()
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
/// Construct one per register file operation; it borrows both halves.
pub struct CtableBacking<'a> {
    /// The memory hierarchy (provides the Ctable and the data cache).
    pub mem: &'a mut MemSystem,
    /// Presence bits.
    pub map: &'a mut BackingMap,
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

    /// Reads a context's whole save area (the full backing stride) into
    /// `buf` in one page-chunked pass — no per-word translation, no
    /// hashing, no allocation. A bulk inspection path for diagnostics
    /// and tests; it bypasses the cache timing model (engine-driven
    /// transfers charge latencies through [`BackingStore`] instead).
    pub fn frame_image(
        &mut self,
        cid: Cid,
        buf: &mut [Word; BACKING_STRIDE_WORDS as usize],
    ) -> Result<(), StoreFault> {
        let base = self
            .mem
            .ctable()
            .reg_addr(cid, 0)
            .map_err(|_| StoreFault::Unmapped(cid))?;
        self.mem.read_into(base, buf);
        Ok(())
    }
}

/// The owning form of [`CtableBacking`]: one lane's memory system and
/// presence bits held by value. Frontend-stream replay (`nsf-trace`)
/// keeps a `LaneStore` per replayed configuration so register traffic,
/// spill frames and program data stay private to the lane while the
/// event stream is shared. Every operation delegates to the borrowed
/// view, so the two are semantically identical by construction.
pub struct LaneStore {
    /// The lane's private memory hierarchy (Ctable + data cache).
    pub mem: MemSystem,
    /// The lane's presence bits.
    pub map: BackingMap,
}

impl LaneStore {
    /// Wraps a memory system with empty presence bits.
    pub fn new(mem: MemSystem) -> Self {
        LaneStore {
            mem,
            map: BackingMap::new(),
        }
    }

    /// The borrowed [`CtableBacking`] view over this lane's halves.
    pub fn view(&mut self) -> CtableBacking<'_> {
        CtableBacking {
            mem: &mut self.mem,
            map: &mut self.map,
        }
    }
}

impl BackingStore for LaneStore {
    fn spill(&mut self, cid: Cid, offset: u8, value: Word) -> Result<u32, StoreFault> {
        self.view().spill(cid, offset, value)
    }

    fn reload(&mut self, cid: Cid, offset: u8) -> Result<(Option<Word>, u32), StoreFault> {
        self.view().reload(cid, offset)
    }

    fn spill_run(
        &mut self,
        cid: Cid,
        first: u8,
        values: &[Word],
        valid: u64,
        cycles: &mut [u32],
    ) -> Result<(), StoreFault> {
        self.view().spill_run(cid, first, values, valid, cycles)
    }

    fn reload_run(
        &mut self,
        cid: Cid,
        first: u8,
        values: &mut [Word],
        cycles: &mut [u32],
    ) -> Result<u64, StoreFault> {
        self.view().reload_run(cid, first, values, cycles)
    }

    fn is_present(&self, cid: Cid, offset: u8) -> bool {
        self.map.bits(cid) & (1 << offset) != 0
    }

    fn any_present(&self, cid: Cid) -> bool {
        self.map.bits(cid) != 0
    }

    fn discard_context(&mut self, cid: Cid) {
        self.view().discard_context(cid);
    }

    fn discard_reg(&mut self, cid: Cid, offset: u8) {
        self.view().discard_reg(cid, offset);
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
    use nsf_mem::MemConfig;

    fn setup() -> (MemSystem, BackingMap) {
        let mut mem = MemSystem::new(MemConfig::default());
        mem.ctable_mut().map(3, 0x9000);
        (mem, BackingMap::new())
    }

    #[test]
    fn spill_reload_through_cache() {
        let (mut mem, mut map) = setup();
        let mut b = CtableBacking {
            mem: &mut mem,
            map: &mut map,
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
        };
        let (v, cycles) = b.reload(3, 5).unwrap();
        assert_eq!(v, None);
        assert!(cycles >= 1, "the transfer still costs memory cycles");
    }

    #[test]
    fn unmapped_context_faults() {
        let (mut mem, mut map) = setup();
        let mut b = CtableBacking {
            mem: &mut mem,
            map: &mut map,
        };
        assert_eq!(b.spill(9, 0, 1), Err(StoreFault::Unmapped(9)));
        assert!(matches!(b.reload(9, 0), Err(StoreFault::Unmapped(9))));
    }

    #[test]
    fn discards_clear_presence() {
        let (mut mem, mut map) = setup();
        let mut b = CtableBacking {
            mem: &mut mem,
            map: &mut map,
        };
        b.spill(3, 0, 1).unwrap();
        b.spill(3, 1, 2).unwrap();
        b.discard_reg(3, 0);
        assert!(!b.is_present(3, 0));
        assert!(b.any_present(3));
        b.discard_context(3);
        assert!(!b.any_present(3));
        assert_eq!(map.contexts(), 0);
    }

    #[test]
    fn frame_image_reads_whole_save_area() {
        let (mut mem, mut map) = setup();
        let mut b = CtableBacking {
            mem: &mut mem,
            map: &mut map,
        };
        b.spill(3, 0, 11).unwrap();
        b.spill(3, 2, 33).unwrap();
        b.spill(3, 63, 99).unwrap();
        let mut frame = [0; BACKING_STRIDE_WORDS as usize];
        b.frame_image(3, &mut frame).unwrap();
        assert_eq!(frame[0], 11);
        assert_eq!(frame[1], 0);
        assert_eq!(frame[2], 33);
        assert_eq!(frame[63], 99);
        let mut other = [0; BACKING_STRIDE_WORDS as usize];
        assert_eq!(b.frame_image(9, &mut other), Err(StoreFault::Unmapped(9)));
    }
}
