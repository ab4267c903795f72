//! The Named-State Register File.
//!
//! A fully associative register file with very small lines (paper §4):
//!
//! * The unit of associativity is a **line** of `regs_per_line` registers
//!   (1–4 typical); each line carries a CAM tag `<CID, line#>` in the
//!   [`crate::cam::AssocDecoder`] and per-register **valid** and **dirty**
//!   bits.
//! * The **first write** to a register allocates its line
//!   (write-allocate by default); a **read miss** reloads on demand per the
//!   configured [`ReloadPolicy`].
//! * When allocation finds the file full, a **victim line is spilled**
//!   (LRU by default), writing back only dirty registers — clean registers
//!   already have an up-to-date backing copy.
//! * **Context switches cost nothing**: `switch_to` only counts statistics.
//!   "The processor simply issues instructions from the new context."
//! * `free_context` drops a dead activation's lines *without* writeback —
//!   the reason sequential call chains run with almost no register traffic.

use crate::addr::{Cid, RegAddr};
use crate::cam::AssocDecoder;
use crate::policy::{ReloadPolicy, ReplacementPolicy, SpillEngine, WriteMissPolicy};
use crate::replacement::VictimPicker;
use crate::stats::{Occupancy, RegFileStats};
use crate::traits::{Access, BackingStore, RegFileError, RegisterFile};
use crate::Word;

/// Configuration of a [`NamedStateFile`].
#[derive(Clone, Copy, Debug)]
pub struct NsfConfig {
    /// Total register slots in the file (the paper uses 80 for sequential
    /// and 128 for parallel experiments).
    pub total_regs: u32,
    /// Registers per associative line (1, 2 or 4 in the paper's designs;
    /// up to [`NsfConfig::MAX_LINE_REGS`] supported for the Figure 13
    /// sweep).
    pub regs_per_line: u8,
    /// Architectural registers per context (offset field width; 32 in the
    /// paper).
    pub ctx_regs: u8,
    /// What a miss transfers.
    pub reload: ReloadPolicy,
    /// How write misses behave.
    pub write_miss: WriteMissPolicy,
    /// Victim selection.
    pub replacement: ReplacementPolicy,
    /// Spill/reload cost model.
    pub engine: SpillEngine,
}

impl NsfConfig {
    /// The widest line: a line's valid and dirty bits are one `u32` mask
    /// each.
    pub const MAX_LINE_REGS: u8 = u32::BITS as u8;

    /// The paper's headline configuration: single-register lines, LRU,
    /// write-allocate, demand reload of single registers.
    pub fn paper_default(total_regs: u32) -> Self {
        NsfConfig {
            total_regs,
            regs_per_line: 1,
            ctx_regs: 32,
            reload: ReloadPolicy::SingleRegister,
            write_miss: WriteMissPolicy::WriteAllocate,
            replacement: ReplacementPolicy::Lru,
            engine: SpillEngine::hardware(),
        }
    }

    /// The proof-of-concept prototype chip's organization (paper Fig. 5):
    /// 32 single-register lines behind a 10-bit CAM, two read ports and
    /// one write port.
    pub fn prototype() -> Self {
        NsfConfig::paper_default(32)
    }

    fn lines(&self) -> usize {
        (self.total_regs / u32::from(self.regs_per_line)) as usize
    }
}

/// Status bits of one physical line (its registers live in
/// [`NamedStateFile::regs`]).
#[derive(Clone, Copy, Debug, Default)]
struct Line {
    /// Bit i set ⇔ register i of the line holds data.
    valid: u32,
    /// Bit i set ⇔ register i has been written since it was last spilled.
    dirty: u32,
}

impl Line {
    fn clear(&mut self) {
        self.valid = 0;
        self.dirty = 0;
    }
}

/// The Named-State Register File. See the module docs.
///
/// # Examples
///
/// ```
/// use nsf_core::{MapStore, NamedStateFile, NsfConfig, RegAddr, RegisterFile};
///
/// let mut file = NamedStateFile::new(NsfConfig::paper_default(128));
/// let mut backing = MapStore::new();
///
/// // First write allocates <cid 7 : offset 3> in the CAM decoder.
/// file.write(RegAddr::new(7, 3), 42, &mut backing)?;
///
/// // Context switches are free; reads hit associatively.
/// file.switch_to(9, &mut backing)?;
/// file.switch_to(7, &mut backing)?;
/// assert_eq!(file.read(RegAddr::new(7, 3), &mut backing)?.value, 42);
/// assert_eq!(file.stats().read_misses, 0);
/// # Ok::<(), nsf_core::RegFileError>(())
/// ```
pub struct NamedStateFile {
    cfg: NsfConfig,
    decoder: AssocDecoder,
    lines: Vec<Line>,
    /// Register values, line-major: register `i` of physical slot `s` is
    /// `regs[s * regs_per_line + i]`.
    regs: Vec<Word>,
    /// `<line, register-within-line>` of each legal offset, indexed by
    /// offset — a table load instead of a division on every access.
    split: Box<[(u8, u8)]>,
    picker: VictimPicker,
    stats: RegFileStats,
    /// Running count of set valid bits across all lines, maintained
    /// incrementally so `occupancy()` is O(1) — the machine loop samples
    /// it every few instructions.
    valid_count: u32,
}

impl NamedStateFile {
    /// Creates an empty file.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (zero sizes, line width not
    /// dividing the total, line wider than a context or than
    /// [`NsfConfig::MAX_LINE_REGS`]) — configuration bugs, not runtime
    /// conditions.
    pub fn new(cfg: NsfConfig) -> Self {
        assert!(cfg.total_regs > 0, "file must have registers");
        assert!(cfg.regs_per_line > 0, "line width must be positive");
        assert!(
            cfg.total_regs.is_multiple_of(u32::from(cfg.regs_per_line)),
            "line width must divide total registers"
        );
        assert!(
            cfg.regs_per_line <= cfg.ctx_regs,
            "a line cannot exceed a context"
        );
        assert!(
            cfg.regs_per_line <= NsfConfig::MAX_LINE_REGS,
            "a line's valid and dirty masks hold {} registers",
            NsfConfig::MAX_LINE_REGS
        );
        let n = cfg.lines();
        NamedStateFile {
            cfg,
            decoder: AssocDecoder::new(n, usize::from(cfg.ctx_regs.div_ceil(cfg.regs_per_line))),
            lines: vec![Line::default(); n],
            regs: vec![0; cfg.total_regs as usize],
            split: (0..cfg.ctx_regs)
                .map(|o| (o / cfg.regs_per_line, o % cfg.regs_per_line))
                .collect(),
            picker: VictimPicker::new(n, cfg.replacement),
            stats: RegFileStats::default(),
            valid_count: 0,
        }
    }

    /// The configuration this file was built with.
    pub fn config(&self) -> &NsfConfig {
        &self.cfg
    }

    /// Index in `regs` of register `within` of physical slot `slot`.
    #[inline]
    fn reg_index(&self, slot: usize, within: u8) -> usize {
        slot * usize::from(self.cfg.regs_per_line) + usize::from(within)
    }

    fn check(&self, addr: RegAddr) -> Result<(), RegFileError> {
        if addr.offset < self.cfg.ctx_regs {
            Ok(())
        } else {
            Err(RegFileError::BadOffset(addr))
        }
    }

    /// Spills the victim line's dirty registers and unbinds it.
    /// Returns the cycle cost.
    ///
    /// Only called with the file full (every slot bound), so the picker
    /// chooses among all slots — no candidate list is materialized.
    fn evict_one(&mut self, store: &mut dyn BackingStore) -> Result<u32, RegFileError> {
        let victim = self.picker.pick();
        let tag = self.decoder.tag(victim).expect("victim was bound");
        // Write back while the line is still bound: a store fault mid-spill
        // must leave the victim resident and the operation retryable, not
        // push a slot with live valid bits onto the free list.
        let line = &self.lines[victim];
        let mut moved = 0u32;
        let mut mem_cycles = 0u32;
        let mut writeback = line.valid & line.dirty;
        while writeback != 0 {
            let i = writeback.trailing_zeros() as u8;
            writeback &= writeback - 1;
            let offset = tag.line * self.cfg.regs_per_line + i;
            mem_cycles += store.spill(tag.cid, offset, self.regs[self.reg_index(victim, i)])?;
            moved += 1;
        }
        self.decoder.unbind(victim);
        let line = &mut self.lines[victim];
        self.valid_count -= line.valid.count_ones();
        line.clear();
        self.stats.regs_spilled += u64::from(moved);
        let cycles = self.cfg.engine.transfer_cost(moved, mem_cycles);
        self.stats.spill_reload_cycles += u64::from(cycles);
        Ok(cycles)
    }

    /// Finds or allocates the physical slot for `<cid, line>`; spills if
    /// the file is full. Returns `(slot, cycles)`.
    fn allocate_line(
        &mut self,
        cid: Cid,
        line: u8,
        store: &mut dyn BackingStore,
    ) -> Result<(usize, u32), RegFileError> {
        let mut cycles = 0;
        let slot = loop {
            if let Some(free) = self.decoder.take_free() {
                break free;
            }
            cycles += self.evict_one(store)?;
        };
        self.decoder.bind(slot, cid, line);
        self.picker.allocate(slot);
        debug_assert_eq!(self.lines[slot].valid, 0, "allocated line must be empty");
        Ok((slot, cycles))
    }

    /// Transfers registers of `<cid, line>` into physical `slot` per the
    /// reload policy. `demand` is the offset-within-line that triggered the
    /// miss (reloaded unconditionally under every policy). Returns cycles.
    fn reload_line(
        &mut self,
        slot: usize,
        cid: Cid,
        line: u8,
        demand: u8,
        store: &mut dyn BackingStore,
    ) -> Result<u32, RegFileError> {
        let rpl = self.cfg.regs_per_line;
        let base = line * rpl;
        let mut moved = 0u32;
        let mut live = 0u32;
        let mut mem_cycles = 0u32;

        // Registers still missing from the line, as a bitmask (the demand
        // register is always among them: reload_line only runs on a miss).
        let full: u32 = if rpl >= 32 { u32::MAX } else { (1 << rpl) - 1 };
        let missing = full & !self.lines[slot].valid;
        debug_assert_ne!(missing & (1 << demand), 0, "demand register resident");
        let mut fetch = match self.cfg.reload {
            ReloadPolicy::SingleRegister => 1 << demand,
            ReloadPolicy::WholeLine => missing,
            ReloadPolicy::ValidOnly => {
                let mut mask = 1u32 << demand;
                let mut rest = missing & !mask;
                while rest != 0 {
                    let i = rest.trailing_zeros() as u8;
                    rest &= rest - 1;
                    if store.is_present(cid, base + i) {
                        mask |= 1 << i;
                    }
                }
                mask
            }
        };

        while fetch != 0 {
            let i = fetch.trailing_zeros() as u8;
            fetch &= fetch - 1;
            let (value, cyc) = store.reload(cid, base + i)?;
            mem_cycles += cyc;
            moved += 1;
            if let Some(v) = value {
                live += 1;
                let r = self.reg_index(slot, i);
                self.regs[r] = v;
                let l = &mut self.lines[slot];
                l.valid |= 1 << i;
                l.dirty &= !(1 << i); // freshly loaded ⇒ clean
                self.valid_count += 1;
            }
        }

        self.stats.lines_reloaded += 1;
        self.stats.regs_reloaded += u64::from(moved);
        self.stats.live_regs_reloaded += u64::from(live);
        let cycles = self.cfg.engine.transfer_cost(moved, mem_cycles);
        self.stats.spill_reload_cycles += u64::from(cycles);
        Ok(cycles)
    }

    /// The `<line, register-within-line>` split of a legal offset.
    #[inline]
    fn line_of(&self, addr: RegAddr) -> (u8, u8) {
        self.split[usize::from(addr.offset)]
    }

    /// The CAM hit path: the slot whose line holds `addr`, if `addr` is
    /// a legal offset whose line is bound. Touches no state.
    #[inline]
    fn bound_slot(&self, addr: RegAddr) -> Option<(usize, u8)> {
        let &(line, within) = self.split.get(usize::from(addr.offset))?;
        let slot = self.decoder.lookup(addr.cid, line)?;
        Some((slot, within))
    }

    /// Stores `value` into a bound slot's register and marks it live and
    /// dirty — the end of every write, hit or miss.
    #[inline]
    fn install(&mut self, slot: usize, within: u8, value: Word) {
        let bit = 1u32 << within;
        let r = self.reg_index(slot, within);
        self.regs[r] = value;
        let l = &mut self.lines[slot];
        if l.valid & bit == 0 {
            self.valid_count += 1;
        }
        l.valid |= bit;
        l.dirty |= bit;
        self.picker.touch(slot);
    }

    /// A read that did not hit: a bad offset, a partial miss (line bound,
    /// register absent) or a full miss. Reloads per the reload policy.
    #[inline(never)]
    fn read_miss(
        &mut self,
        addr: RegAddr,
        store: &mut dyn BackingStore,
    ) -> Result<Access, RegFileError> {
        self.check(addr)?;
        self.stats.reads += 1;
        self.stats.read_misses += 1;
        let (line, within) = self.line_of(addr);
        let bit = 1u32 << within;

        if let Some(slot) = self.decoder.lookup(addr.cid, line) {
            // Line resident, register not: partial miss — demand reload.
            debug_assert_eq!(
                self.lines[slot].valid & bit,
                0,
                "a hit reached the miss path"
            );
            let cycles = self.reload_line(slot, addr.cid, line, within, store)?;
            self.picker.touch(slot);
            if self.lines[slot].valid & bit == 0 {
                return Err(RegFileError::ReadUndefined(addr));
            }
            return Ok(Access {
                value: self.regs[self.reg_index(slot, within)],
                stall_cycles: cycles,
                missed: true,
            });
        }

        // Full miss: allocate, then reload.
        let (slot, alloc_cycles) = self.allocate_line(addr.cid, line, store)?;
        let reload_cycles = self.reload_line(slot, addr.cid, line, within, store)?;
        self.picker.touch(slot);
        if self.lines[slot].valid & bit == 0 {
            if self.lines[slot].valid == 0 {
                // Nothing was transferred; don't leave an empty line bound.
                self.decoder.unbind(slot);
            }
            return Err(RegFileError::ReadUndefined(addr));
        }
        Ok(Access {
            value: self.regs[self.reg_index(slot, within)],
            stall_cycles: alloc_cycles + reload_cycles,
            missed: true,
        })
    }

    /// A write whose line is not bound (or whose offset is bad):
    /// allocate the line, fetching it first under fetch-on-write.
    #[inline(never)]
    fn write_miss(
        &mut self,
        addr: RegAddr,
        value: Word,
        store: &mut dyn BackingStore,
    ) -> Result<Access, RegFileError> {
        self.check(addr)?;
        self.stats.writes += 1;
        self.stats.write_misses += 1;
        let (line, within) = self.line_of(addr);
        let (slot, mut cycles) = self.allocate_line(addr.cid, line, store)?;
        if self.cfg.write_miss == WriteMissPolicy::FetchOnWrite {
            cycles += self.reload_line(slot, addr.cid, line, within, store)?;
        }
        self.install(slot, within, value);
        Ok(Access {
            value,
            stall_cycles: cycles,
            missed: cycles > 0,
        })
    }
}

impl RegisterFile for NamedStateFile {
    #[inline(always)]
    fn read(
        &mut self,
        addr: RegAddr,
        store: &mut dyn BackingStore,
    ) -> Result<Access, RegFileError> {
        // CAM match plus the register's valid bit.
        if let Some((slot, within)) = self.bound_slot(addr) {
            if self.lines[slot].valid & (1 << within) != 0 {
                let value = self.regs[self.reg_index(slot, within)];
                self.stats.reads += 1;
                self.stats.read_hits += 1;
                self.picker.touch(slot);
                return Ok(Access::hit(value));
            }
        }
        self.read_miss(addr, store)
    }

    #[inline(always)]
    fn write(
        &mut self,
        addr: RegAddr,
        value: Word,
        store: &mut dyn BackingStore,
    ) -> Result<Access, RegFileError> {
        // A bound line takes the write whether or not the register held
        // data.
        let Some((slot, within)) = self.bound_slot(addr) else {
            return self.write_miss(addr, value, store);
        };
        self.stats.writes += 1;
        self.stats.write_hits += 1;
        self.install(slot, within, value);
        Ok(Access::hit(value))
    }

    fn switch_to(&mut self, cid: Cid, _store: &mut dyn BackingStore) -> Result<u32, RegFileError> {
        // "Context switching is very fast with the NSF, since no registers
        // must be saved or restored."
        self.stats.context_switches += 1;
        if self.decoder.has_context(cid) {
            self.stats.switch_hits += 1;
        }
        Ok(0)
    }

    fn free_context(&mut self, cid: Cid, store: &mut dyn BackingStore) {
        let NamedStateFile {
            decoder,
            lines,
            valid_count,
            ..
        } = self;
        decoder.unbind_context(cid, |slot| {
            *valid_count -= lines[slot].valid.count_ones();
            lines[slot].clear();
        });
        store.discard_context(cid);
    }

    fn free_reg(&mut self, addr: RegAddr, store: &mut dyn BackingStore) {
        let rpl = self.cfg.regs_per_line;
        let line = addr.line_index(rpl);
        let bit = 1u32 << addr.line_slot(rpl);
        if let Some(slot) = self.decoder.lookup(addr.cid, line) {
            let l = &mut self.lines[slot];
            if l.valid & bit != 0 {
                self.valid_count -= 1;
            }
            l.valid &= !bit;
            l.dirty &= !bit;
            if l.valid == 0 {
                // Whole line dead: release it.
                self.decoder.unbind(slot);
            }
        }
        store.discard_reg(addr.cid, addr.offset);
    }

    fn capacity(&self) -> u32 {
        self.cfg.total_regs
    }

    fn occupancy(&self) -> Occupancy {
        Occupancy {
            valid_regs: self.valid_count,
            resident_contexts: self.decoder.resident_contexts(),
        }
    }

    fn stats(&self) -> &RegFileStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = RegFileStats::default();
    }

    fn describe(&self) -> String {
        format!(
            "NSF {} regs x {}-reg lines ({:?})",
            self.cfg.total_regs, self.cfg.regs_per_line, self.cfg.reload
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MapStore;

    fn file(total: u32, rpl: u8) -> NamedStateFile {
        let mut cfg = NsfConfig::paper_default(total);
        cfg.regs_per_line = rpl;
        NamedStateFile::new(cfg)
    }

    #[test]
    #[should_panic(expected = "masks hold 32 registers")]
    fn line_wider_than_its_masks_is_rejected() {
        let mut cfg = NsfConfig::paper_default(128);
        cfg.ctx_regs = 64;
        cfg.regs_per_line = 64;
        NamedStateFile::new(cfg);
    }

    #[test]
    fn prototype_config_matches_figure_5() {
        let f = NamedStateFile::new(NsfConfig::prototype());
        assert_eq!(f.capacity(), 32);
        assert_eq!(f.config().regs_per_line, 1);
    }

    #[test]
    fn write_then_read_hits() {
        let mut f = file(8, 1);
        let mut s = MapStore::new();
        let a = RegAddr::new(1, 0);
        f.write(a, 42, &mut s).unwrap();
        let r = f.read(a, &mut s).unwrap();
        assert_eq!(r.value, 42);
        assert!(!r.missed);
        assert_eq!(f.stats().read_hits, 1);
    }

    #[test]
    fn read_undefined_is_typed_error() {
        let mut f = file(8, 1);
        let mut s = MapStore::new();
        let err = f.read(RegAddr::new(3, 5), &mut s).unwrap_err();
        assert_eq!(err, RegFileError::ReadUndefined(RegAddr::new(3, 5)));
    }

    #[test]
    fn bad_offset_rejected() {
        let mut f = file(8, 1);
        let mut s = MapStore::new();
        let err = f.write(RegAddr::new(0, 32), 1, &mut s).unwrap_err();
        assert!(matches!(err, RegFileError::BadOffset(_)));
    }

    #[test]
    fn eviction_spills_and_demand_reload_restores() {
        let mut f = file(4, 1); // 4 single-register lines
        let mut s = MapStore::new();
        for i in 0..4 {
            f.write(RegAddr::new(1, i), u32::from(i) + 100, &mut s)
                .unwrap();
        }
        // Fifth write evicts the LRU line (reg 0 of cid 1).
        f.write(RegAddr::new(2, 0), 999, &mut s).unwrap();
        assert_eq!(f.stats().regs_spilled, 1);
        assert_eq!(s.peek(1, 0), Some(100));
        // Demand reload brings it back.
        let r = f.read(RegAddr::new(1, 0), &mut s).unwrap();
        assert_eq!(r.value, 100);
        assert!(r.missed);
        assert!(r.stall_cycles > 0);
        assert_eq!(f.stats().regs_reloaded, 1);
        assert_eq!(f.stats().live_regs_reloaded, 1);
    }

    #[test]
    fn clean_registers_are_not_respilled() {
        let mut f = file(2, 1);
        let mut s = MapStore::new();
        f.write(RegAddr::new(1, 0), 5, &mut s).unwrap();
        f.write(RegAddr::new(1, 1), 6, &mut s).unwrap();
        f.write(RegAddr::new(2, 0), 7, &mut s).unwrap(); // evicts <1:0> (dirty → spilled)
        assert_eq!(f.stats().regs_spilled, 1);
        f.read(RegAddr::new(1, 0), &mut s).unwrap(); // reload, now clean; evicts <1:1>
        assert_eq!(f.stats().regs_spilled, 2);
        f.read(RegAddr::new(2, 0), &mut s).unwrap(); // touch <2:0>: clean <1:0> is now LRU
        f.write(RegAddr::new(2, 1), 8, &mut s).unwrap(); // evicts clean <1:0>: no spill
        assert_eq!(
            f.stats().regs_spilled,
            2,
            "clean line must not be written back"
        );
    }

    #[test]
    fn free_context_drops_without_writeback() {
        let mut f = file(8, 1);
        let mut s = MapStore::new();
        f.write(RegAddr::new(1, 0), 10, &mut s).unwrap();
        f.write(RegAddr::new(1, 1), 11, &mut s).unwrap();
        f.free_context(1, &mut s);
        assert_eq!(f.stats().regs_spilled, 0);
        assert_eq!(f.occupancy().valid_regs, 0);
        assert!(!s.any_present(1));
        // The registers are gone: reading is undefined.
        assert!(matches!(
            f.read(RegAddr::new(1, 0), &mut s),
            Err(RegFileError::ReadUndefined(_))
        ));
    }

    #[test]
    fn free_reg_releases_line_when_empty() {
        let mut f = file(8, 2);
        let mut s = MapStore::new();
        f.write(RegAddr::new(1, 0), 1, &mut s).unwrap();
        f.write(RegAddr::new(1, 1), 2, &mut s).unwrap();
        assert_eq!(f.occupancy().valid_regs, 2);
        f.free_reg(RegAddr::new(1, 0), &mut s);
        assert_eq!(f.occupancy().valid_regs, 1);
        assert_eq!(f.occupancy().resident_contexts, 1);
        f.free_reg(RegAddr::new(1, 1), &mut s);
        assert_eq!(f.occupancy().resident_contexts, 0);
    }

    #[test]
    fn free_reg_past_the_context_leaves_the_next_context_alone() {
        // 20-register contexts of 4-register lines: five lines each. An
        // unchecked offset of context 1 names line 5 and beyond, which
        // index context 2's row of the decoder's line table unless the
        // lookup bounds the line.
        let mut cfg = NsfConfig::paper_default(16);
        cfg.ctx_regs = 20;
        cfg.regs_per_line = 4;
        let mut f = NamedStateFile::new(cfg);
        let mut s = MapStore::new();
        for offset in 0..8 {
            f.write(RegAddr::new(2, offset), u32::from(offset) + 50, &mut s)
                .unwrap();
        }
        for offset in 20..=u8::MAX {
            f.free_reg(RegAddr::new(1, offset), &mut s);
        }
        assert_eq!(f.occupancy().valid_regs, 8);
        assert_eq!(f.occupancy().resident_contexts, 1);
        for offset in 0..8 {
            let r = f.read(RegAddr::new(2, offset), &mut s).unwrap();
            assert_eq!((r.value, r.missed), (u32::from(offset) + 50, false));
        }
    }

    #[test]
    fn multi_register_lines_whole_line_reload() {
        let mut cfg = NsfConfig::paper_default(8);
        cfg.regs_per_line = 4;
        cfg.reload = ReloadPolicy::WholeLine;
        let mut f = NamedStateFile::new(cfg);
        let mut s = MapStore::new();
        // Back three registers of line 0 of context 1.
        for i in 0..3 {
            s.preload(1, i, u32::from(i) * 10);
        }
        let r = f.read(RegAddr::new(1, 0), &mut s).unwrap();
        assert_eq!(r.value, 0);
        // Whole line transferred: 4 regs moved, 3 live.
        assert_eq!(f.stats().regs_reloaded, 4);
        assert_eq!(f.stats().live_regs_reloaded, 3);
        // The other present registers are now resident.
        assert!(!f.read(RegAddr::new(1, 2), &mut s).unwrap().missed);
    }

    #[test]
    fn valid_only_reload_transfers_present_regs() {
        let mut cfg = NsfConfig::paper_default(8);
        cfg.regs_per_line = 4;
        cfg.reload = ReloadPolicy::ValidOnly;
        let mut f = NamedStateFile::new(cfg);
        let mut s = MapStore::new();
        s.preload(1, 0, 7);
        s.preload(1, 2, 9);
        f.read(RegAddr::new(1, 0), &mut s).unwrap();
        assert_eq!(
            f.stats().regs_reloaded,
            2,
            "only the two present registers move"
        );
        assert_eq!(f.stats().live_regs_reloaded, 2);
    }

    #[test]
    fn single_register_reload_transfers_one() {
        let mut cfg = NsfConfig::paper_default(8);
        cfg.regs_per_line = 4;
        cfg.reload = ReloadPolicy::SingleRegister;
        let mut f = NamedStateFile::new(cfg);
        let mut s = MapStore::new();
        s.preload(1, 0, 7);
        s.preload(1, 1, 8);
        f.read(RegAddr::new(1, 0), &mut s).unwrap();
        assert_eq!(f.stats().regs_reloaded, 1);
        // Register 1 is still non-resident.
        let r = f.read(RegAddr::new(1, 1), &mut s).unwrap();
        assert!(r.missed);
        assert_eq!(r.value, 8);
    }

    #[test]
    fn fetch_on_write_reloads_line() {
        let mut cfg = NsfConfig::paper_default(8);
        cfg.regs_per_line = 2;
        cfg.reload = ReloadPolicy::WholeLine;
        cfg.write_miss = WriteMissPolicy::FetchOnWrite;
        let mut f = NamedStateFile::new(cfg);
        let mut s = MapStore::new();
        s.preload(1, 0, 5);
        s.preload(1, 1, 6);
        f.write(RegAddr::new(1, 0), 50, &mut s).unwrap();
        assert_eq!(f.stats().regs_reloaded, 2);
        // Neighbour register was fetched alongside.
        assert_eq!(f.read(RegAddr::new(1, 1), &mut s).unwrap().value, 6);
        // The write overwrote the fetched value.
        assert_eq!(f.read(RegAddr::new(1, 0), &mut s).unwrap().value, 50);
    }

    #[test]
    fn write_allocate_does_not_touch_store() {
        let mut f = file(8, 1);
        let mut s = MapStore::new();
        f.write(RegAddr::new(1, 0), 1, &mut s).unwrap();
        assert_eq!(s.reloads(), 0);
        assert_eq!(f.stats().regs_reloaded, 0);
    }

    #[test]
    fn switch_is_free_and_counted() {
        let mut f = file(8, 1);
        let mut s = MapStore::new();
        f.write(RegAddr::new(1, 0), 1, &mut s).unwrap();
        assert_eq!(f.switch_to(1, &mut s).unwrap(), 0);
        assert_eq!(f.switch_to(2, &mut s).unwrap(), 0);
        assert_eq!(f.stats().context_switches, 2);
        assert_eq!(f.stats().switch_hits, 1);
    }

    #[test]
    fn occupancy_counts_contexts_and_regs() {
        let mut f = file(8, 1);
        let mut s = MapStore::new();
        f.write(RegAddr::new(1, 0), 1, &mut s).unwrap();
        f.write(RegAddr::new(1, 1), 1, &mut s).unwrap();
        f.write(RegAddr::new(9, 0), 1, &mut s).unwrap();
        let o = f.occupancy();
        assert_eq!(o.valid_regs, 3);
        assert_eq!(o.resident_contexts, 2);
    }

    #[test]
    fn many_contexts_share_the_file() {
        // More resident contexts than any segmented file could hold:
        // 16 contexts × 2 registers in a 32-line file.
        let mut f = file(32, 1);
        let mut s = MapStore::new();
        for cid in 0..16 {
            f.write(RegAddr::new(cid, 0), u32::from(cid), &mut s)
                .unwrap();
            f.write(RegAddr::new(cid, 1), u32::from(cid) + 1, &mut s)
                .unwrap();
        }
        assert_eq!(f.occupancy().resident_contexts, 16);
        assert_eq!(f.stats().regs_spilled, 0);
        for cid in 0..16 {
            assert_eq!(
                f.read(RegAddr::new(cid, 0), &mut s).unwrap().value,
                u32::from(cid)
            );
        }
    }

    #[test]
    fn context_wide_lines_behave_like_frames() {
        // 32-register lines = one line per context: the NSF degenerates
        // toward a 4-frame segmented file, but still demand-loads.
        let mut cfg = NsfConfig::paper_default(128);
        cfg.regs_per_line = 32;
        cfg.reload = ReloadPolicy::ValidOnly;
        let mut f = NamedStateFile::new(cfg);
        let mut s = MapStore::new();
        for cid in 0..4u16 {
            f.write(RegAddr::new(cid, 0), u32::from(cid), &mut s)
                .unwrap();
        }
        assert_eq!(f.occupancy().resident_contexts, 4);
        // A fifth context evicts a whole line (one register dirty).
        f.write(RegAddr::new(9, 0), 9, &mut s).unwrap();
        assert_eq!(f.stats().regs_spilled, 1);
        assert_eq!(f.occupancy().resident_contexts, 4);
    }

    #[test]
    fn single_line_file_thrashes_but_stays_correct() {
        let mut cfg = NsfConfig::paper_default(1);
        cfg.regs_per_line = 1;
        let mut f = NamedStateFile::new(cfg);
        let mut s = MapStore::new();
        for round in 0..3u32 {
            for off in 0..4u8 {
                let a = RegAddr::new(1, off);
                if round == 0 {
                    f.write(a, u32::from(off) * 7, &mut s).unwrap();
                } else {
                    assert_eq!(f.read(a, &mut s).unwrap().value, u32::from(off) * 7);
                }
            }
        }
        assert!(f.stats().regs_spilled >= 3);
        assert!(f.stats().regs_reloaded >= 8);
    }

    #[test]
    fn boundary_offset_is_valid() {
        let mut f = file(64, 1);
        let mut s = MapStore::new();
        let a = RegAddr::new(1, 31); // last architectural offset
        f.write(a, 9, &mut s).unwrap();
        assert_eq!(f.read(a, &mut s).unwrap().value, 9);
    }

    #[test]
    fn freeing_a_nonresident_context_is_a_noop() {
        let mut f = file(8, 1);
        let mut s = MapStore::new();
        f.write(RegAddr::new(1, 0), 1, &mut s).unwrap();
        f.free_context(42, &mut s);
        assert_eq!(f.occupancy().valid_regs, 1);
        assert_eq!(f.read(RegAddr::new(1, 0), &mut s).unwrap().value, 1);
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn bad_geometry_panics() {
        let mut cfg = NsfConfig::paper_default(10);
        cfg.regs_per_line = 4;
        NamedStateFile::new(cfg);
    }
}
