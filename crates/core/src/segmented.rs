//! The segmented register file — the multithreaded baseline (paper §3.1).
//!
//! "This processor partitions a large register set into a few register
//! frames, each of which holds the registers of a different thread. A frame
//! pointer selects the current active frame. [...] To switch to a
//! non-resident thread, the processor must spill the contents of a register
//! frame out to memory, and load the registers of a new thread in its
//! place."
//!
//! Two reload variants are modelled (paper §7.3):
//!
//! * [`FramePolicy::Full`] — the classic design with no per-register valid
//!   bits: a frame miss moves the *entire* frame in each direction,
//!   including empty registers.
//! * [`FramePolicy::ValidOnly`] — each register is tagged with a valid bit
//!   and only registers containing data are spilled and reloaded.
//!
//! The spill machinery is either a hardware engine or Sparcle-style
//! software trap handlers ([`crate::SpillEngine`]), which drives the
//! Figure 14 overhead comparison.
//!
//! One frame with full-frame transfers and no dribble engine is the
//! paper's conventional single-context processor: every switch spills and
//! reloads the whole register set, a cost that "may take hundreds of
//! cycles". Such a file names itself `Conventional N regs`.

use crate::addr::{Cid, RegAddr};
use crate::policy::{ReplacementPolicy, SpillEngine};
use crate::replacement::VictimPicker;
use crate::stats::{Occupancy, RegFileStats};
use crate::traits::{bit_runs, Access, BackingStore, RegFileError, RegisterFile};
use crate::Word;

/// Sentinel in [`SegmentedFile::resident`] for "context not resident".
const NOT_RESIDENT: u32 = u32::MAX;

/// What a frame miss transfers (see module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FramePolicy {
    /// Whole frames move; empty registers are transferred too.
    #[default]
    Full,
    /// Per-register valid bits; only registers holding data move.
    ValidOnly,
}

/// Configuration of a [`SegmentedFile`].
#[derive(Clone, Copy, Debug)]
pub struct SegmentedConfig {
    /// Number of frames (resident thread slots). The paper's reference
    /// configuration uses 4.
    pub frames: u32,
    /// Registers per frame (20 for the sequential experiments, 32 for the
    /// parallel ones).
    pub frame_regs: u8,
    /// Transfer policy on a frame miss.
    pub policy: FramePolicy,
    /// Victim frame selection.
    pub replacement: ReplacementPolicy,
    /// Spill/reload cost model (hardware assist vs software traps).
    pub engine: SpillEngine,
    /// Optional background spill ("dribble-back") engine: while a frame
    /// sits idle, its registers trickle out to memory, so an eventual
    /// eviction finds them pre-written. One register is prepaid per
    /// `ops_per_reg` register file operations of idle time. The paper's
    /// critique stands either way: the *traffic* is unchanged, only the
    /// eviction stall shrinks.
    pub dribble: Option<DribbleConfig>,
}

/// Background spill rate for [`SegmentedConfig::dribble`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DribbleConfig {
    /// Register-file operations of idle time that prepay one register's
    /// writeback.
    pub ops_per_reg: u32,
}

impl SegmentedConfig {
    /// The paper's baseline: `frames` frames, full-frame transfers, LRU,
    /// hardware-assisted spilling.
    pub fn paper_default(frames: u32, frame_regs: u8) -> Self {
        SegmentedConfig {
            frames,
            frame_regs,
            policy: FramePolicy::Full,
            replacement: ReplacementPolicy::Lru,
            engine: SpillEngine::hardware(),
            dribble: None,
        }
    }
}

/// Owner and status bits of one frame (its registers live in
/// [`SegmentedFile::regs`]).
#[derive(Clone, Copy, Default)]
struct Frame {
    owner: Option<Cid>,
    valid: u64,
    dirty: u64,
}

impl Frame {
    fn clear(&mut self) {
        self.owner = None;
        self.valid = 0;
        self.dirty = 0;
    }
}

/// The segmented register file. See module docs.
pub struct SegmentedFile {
    cfg: SegmentedConfig,
    frames: Vec<Frame>,
    /// Register values, frame-major: register `i` of frame `f` is
    /// `regs[f * frame_regs + i]`.
    regs: Vec<Word>,
    /// cid → frame index for resident contexts, addressed by context
    /// ID (`NOT_RESIDENT` marks absence). Context switches consult this
    /// on every simulated switch, so it is an array load, not a hash.
    resident: Vec<u32>,
    /// Number of resident contexts (entries of `resident` that are not
    /// `NOT_RESIDENT`).
    resident_count: u32,
    /// The frame pointer: index of the current frame.
    current: Option<usize>,
    picker: VictimPicker,
    stats: RegFileStats,
    /// Register-file operation counter (dribble idle-time clock).
    ops: u64,
    /// `ops` value when each frame was last touched.
    last_touch: Vec<u64>,
    /// Bitmask of unowned frames (bit i ⇔ frame i free), so claiming the
    /// lowest-index free frame is a word scan, not a frame scan.
    free_mask: Vec<u64>,
    /// Running count of set valid bits across owned frames (O(1)
    /// occupancy sampling).
    valid_count: u32,
}

impl SegmentedFile {
    /// Creates an empty file.
    ///
    /// # Panics
    ///
    /// Panics on zero frames or zero-width frames (configuration bugs).
    pub fn new(cfg: SegmentedConfig) -> Self {
        assert!(cfg.frames > 0, "need at least one frame");
        assert!(
            cfg.frame_regs > 0 && cfg.frame_regs <= 64,
            "1..=64 registers per frame"
        );
        let n = cfg.frames as usize;
        let mut free_mask = vec![u64::MAX; n.div_ceil(64)];
        if !n.is_multiple_of(64) {
            *free_mask.last_mut().expect("at least one word") = (1u64 << (n % 64)) - 1;
        }
        SegmentedFile {
            cfg,
            frames: vec![Frame::default(); n],
            regs: vec![0; n * usize::from(cfg.frame_regs)],
            resident: Vec::new(),
            resident_count: 0,
            current: None,
            picker: VictimPicker::new(n, cfg.replacement),
            stats: RegFileStats::default(),
            ops: 0,
            last_touch: vec![0; n],
            free_mask,
            valid_count: 0,
        }
    }

    /// The lowest-index unowned frame, if any (the frame the historical
    /// `position(|f| f.owner.is_none())` scan would return).
    fn first_free_frame(&self) -> Option<usize> {
        self.free_mask
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(word, &w)| word * 64 + w.trailing_zeros() as usize)
    }

    fn mark_free(&mut self, idx: usize) {
        self.free_mask[idx / 64] |= 1 << (idx % 64);
    }

    fn mark_owned(&mut self, idx: usize) {
        self.free_mask[idx / 64] &= !(1 << (idx % 64));
    }

    /// The configuration this file was built with.
    pub fn config(&self) -> &SegmentedConfig {
        &self.cfg
    }

    fn check(&self, addr: RegAddr) -> Result<(), RegFileError> {
        if addr.offset < self.cfg.frame_regs {
            Ok(())
        } else {
            Err(RegFileError::BadOffset(addr))
        }
    }

    #[inline]
    fn touch(&mut self, idx: usize) {
        self.ops += 1;
        self.last_touch[idx] = self.ops;
        self.picker.touch(idx);
    }

    /// Registers of frame `idx` whose writeback the dribble engine has
    /// already performed during its idle time.
    fn prepaid_regs(&self, idx: usize) -> u32 {
        match self.cfg.dribble {
            Some(d) if d.ops_per_reg > 0 => {
                let idle = self.ops.saturating_sub(self.last_touch[idx]);
                u32::try_from(idle / u64::from(d.ops_per_reg)).unwrap_or(u32::MAX)
            }
            _ => 0,
        }
    }

    /// Spills frame `idx` to the backing store per the frame policy.
    fn spill_frame(
        &mut self,
        idx: usize,
        store: &mut dyn BackingStore,
    ) -> Result<u32, RegFileError> {
        let width = usize::from(self.cfg.frame_regs);
        let prepaid_budget = self.prepaid_regs(idx) as usize;
        let frame = &self.frames[idx];
        let regs = &self.regs[idx * width..(idx + 1) * width];
        let cid = frame.owner.expect("spilling an unowned frame");
        // Memory cycles of each transfer, in transfer order.
        let mut cycles = [0u32; 64];
        let moved = match self.cfg.policy {
            FramePolicy::Full => {
                // The whole frame moves; empty slots carry no data but
                // still cost a memory transfer.
                store.spill_run(cid, 0, regs, frame.valid, &mut cycles[..width])?;
                width
            }
            FramePolicy::ValidOnly => {
                let mut moved = 0;
                for (first, len) in bit_runs(frame.valid) {
                    let (f, n) = (usize::from(first), usize::from(len));
                    let run = &mut cycles[moved..moved + n];
                    store.spill_run(cid, first, &regs[f..f + n], !0, run)?;
                    moved += n;
                }
                moved
            }
        };
        // The dribble engine already wrote the first transfers back
        // while the frame sat idle; only the rest reach memory now.
        let prepaid = moved.min(prepaid_budget);
        let mem_cycles: u32 = cycles[prepaid..moved].iter().sum();
        let freed = frame.valid.count_ones();
        self.frames[idx].clear();
        self.valid_count -= freed;
        self.clear_resident(cid);
        self.mark_free(idx);
        let (moved, prepaid) = (moved as u32, prepaid as u32);
        self.stats.regs_spilled += u64::from(moved);
        self.stats.regs_dribbled += u64::from(prepaid);
        // Only the transfers the dribble engine had not finished stall
        // the pipeline.
        let cycles = self.cfg.engine.transfer_cost(moved - prepaid, mem_cycles);
        self.stats.spill_reload_cycles += u64::from(cycles);
        Ok(cycles)
    }

    /// Loads context `cid` into frame `idx` per the frame policy.
    fn reload_frame(
        &mut self,
        idx: usize,
        cid: Cid,
        store: &mut dyn BackingStore,
    ) -> Result<u32, RegFileError> {
        let width = self.cfg.frame_regs;
        // A context that never ran has nothing to load; the frame is
        // simply claimed.
        if !store.any_present(cid) {
            return Ok(0);
        }
        let fetch = match self.cfg.policy {
            FramePolicy::Full => u64::MAX >> (64 - u32::from(width)),
            FramePolicy::ValidOnly => (0..width)
                .filter(|&i| store.is_present(cid, i))
                .fold(0, |mask, i| mask | 1 << i),
        };
        let mut values = [0 as Word; 64];
        let mut cycles = [0u32; 64];
        let mut live = 0u64;
        for (first, len) in bit_runs(fetch) {
            let run = usize::from(first)..usize::from(first + len);
            let present =
                store.reload_run(cid, first, &mut values[run.clone()], &mut cycles[run])?;
            live |= present << first;
        }
        // Installed only once every run succeeded: a store fault leaves
        // the frame as empty as it was claimed.
        let base = idx * usize::from(width);
        let mut bits = live;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            self.regs[base + i] = values[i];
        }
        self.frames[idx].valid |= live;
        self.valid_count += live.count_ones();
        let moved = fetch.count_ones();
        let mem_cycles: u32 = cycles.iter().sum();
        self.stats.lines_reloaded += 1;
        self.stats.regs_reloaded += u64::from(moved);
        self.stats.live_regs_reloaded += u64::from(live.count_ones());
        let cycles = self.cfg.engine.transfer_cost(moved, mem_cycles);
        self.stats.spill_reload_cycles += u64::from(cycles);
        Ok(cycles)
    }

    /// The frame holding context `cid`, if it is resident.
    #[inline]
    fn resident_frame(&self, cid: Cid) -> Option<usize> {
        match self.resident.get(usize::from(cid)) {
            Some(&idx) if idx != NOT_RESIDENT => Some(idx as usize),
            _ => None,
        }
    }

    /// Records context `cid` as resident in frame `idx`.
    fn set_resident(&mut self, cid: Cid, idx: usize) {
        if self.resident.len() <= usize::from(cid) {
            self.resident.resize(usize::from(cid) + 1, NOT_RESIDENT);
        }
        debug_assert_eq!(self.resident[usize::from(cid)], NOT_RESIDENT);
        self.resident[usize::from(cid)] = idx as u32;
        self.resident_count += 1;
    }

    /// Clears context `cid`'s residency, returning the frame it held.
    fn clear_resident(&mut self, cid: Cid) -> Option<usize> {
        let slot = self.resident.get_mut(usize::from(cid))?;
        if *slot == NOT_RESIDENT {
            return None;
        }
        let idx = *slot as usize;
        *slot = NOT_RESIDENT;
        self.resident_count -= 1;
        Some(idx)
    }

    /// Index in `regs` of register `offset` of frame `idx`.
    #[inline]
    fn reg_index(&self, idx: usize, offset: u8) -> usize {
        idx * usize::from(self.cfg.frame_regs) + usize::from(offset)
    }

    /// The current frame, if `addr` is a legal offset of the context
    /// that owns it — the condition every register access needs.
    #[inline]
    fn current_for(&self, addr: RegAddr) -> Option<usize> {
        let idx = self.current?;
        (addr.offset < self.cfg.frame_regs && self.frames[idx].owner == Some(addr.cid))
            .then_some(idx)
    }

    /// Why an access to `addr` cannot reach the current frame. Such an
    /// access is rejected before it reaches the file and is not counted,
    /// keeping hits + misses == accesses.
    #[cold]
    fn rejected(&self, addr: RegAddr) -> RegFileError {
        match self.check(addr) {
            Err(e) => e,
            Ok(()) => RegFileError::NotCurrent(addr.cid),
        }
    }

    /// A read of the current frame that found no data: the file cannot
    /// reload it (frames move whole on switches), so it is undefined.
    #[inline(never)]
    fn read_miss(&mut self, addr: RegAddr) -> Result<Access, RegFileError> {
        let Some(idx) = self.current_for(addr) else {
            return Err(self.rejected(addr));
        };
        self.stats.reads += 1;
        self.touch(idx);
        self.stats.read_misses += 1;
        Err(RegFileError::ReadUndefined(addr))
    }
}

impl RegisterFile for SegmentedFile {
    #[inline(always)]
    fn read(
        &mut self,
        addr: RegAddr,
        _store: &mut dyn BackingStore,
    ) -> Result<Access, RegFileError> {
        match self.current_for(addr) {
            Some(idx) if self.frames[idx].valid & (1 << addr.offset) != 0 => {
                self.stats.reads += 1;
                self.stats.read_hits += 1;
                self.touch(idx);
                Ok(Access::hit(self.regs[self.reg_index(idx, addr.offset)]))
            }
            _ => self.read_miss(addr),
        }
    }

    /// Writes always hit once the context is current: its frame holds
    /// every register of the context.
    #[inline(always)]
    fn write(
        &mut self,
        addr: RegAddr,
        value: Word,
        _store: &mut dyn BackingStore,
    ) -> Result<Access, RegFileError> {
        let Some(idx) = self.current_for(addr) else {
            return Err(self.rejected(addr));
        };
        self.stats.writes += 1;
        self.touch(idx);
        let r = self.reg_index(idx, addr.offset);
        self.regs[r] = value;
        let frame = &mut self.frames[idx];
        let bit = 1 << addr.offset;
        if frame.valid & bit == 0 {
            self.valid_count += 1;
        }
        frame.valid |= bit;
        frame.dirty |= bit;
        self.stats.write_hits += 1;
        Ok(Access::hit(value))
    }

    fn switch_to(&mut self, cid: Cid, store: &mut dyn BackingStore) -> Result<u32, RegFileError> {
        self.stats.context_switches += 1;
        if let Some(idx) = self.resident_frame(cid) {
            // "Switching between the resident threads is very fast, since
            // it only requires setting the frame pointer."
            self.stats.switch_hits += 1;
            self.current = Some(idx);
            self.touch(idx);
            return Ok(0);
        }
        // Frame miss: claim a free frame or spill a victim (the file is
        // full in that case, so the picker chooses among all frames).
        let mut cycles = 0;
        let idx = match self.first_free_frame() {
            Some(free) => free,
            None => {
                let victim = self.picker.pick();
                cycles += self.spill_frame(victim, store)?;
                victim
            }
        };
        self.frames[idx].owner = Some(cid);
        self.mark_owned(idx);
        self.set_resident(cid, idx);
        self.picker.allocate(idx);
        self.ops += 1;
        self.last_touch[idx] = self.ops;
        match self.reload_frame(idx, cid, store) {
            Ok(c) => cycles += c,
            Err(e) => {
                // A faulted reload must not leave the context claimed: a
                // partially filled frame would satisfy the next switch as
                // resident while its remaining registers sit unreadable in
                // the backing store. Drop the claim so a retry reloads
                // from scratch.
                self.valid_count -= self.frames[idx].valid.count_ones();
                self.frames[idx].clear();
                self.clear_resident(cid);
                self.mark_free(idx);
                return Err(e);
            }
        }
        self.current = Some(idx);
        Ok(cycles)
    }

    fn free_context(&mut self, cid: Cid, store: &mut dyn BackingStore) {
        if let Some(idx) = self.clear_resident(cid) {
            self.valid_count -= self.frames[idx].valid.count_ones();
            self.frames[idx].clear();
            self.mark_free(idx);
            if self.current == Some(idx) {
                self.current = None;
            }
        }
        store.discard_context(cid);
    }

    fn free_reg(&mut self, addr: RegAddr, store: &mut dyn BackingStore) {
        if let Some(idx) = self.resident_frame(addr.cid) {
            let bit = 1u64 << addr.offset;
            if self.frames[idx].valid & bit != 0 {
                self.valid_count -= 1;
            }
            self.frames[idx].valid &= !bit;
            self.frames[idx].dirty &= !bit;
        }
        store.discard_reg(addr.cid, addr.offset);
    }

    fn capacity(&self) -> u32 {
        self.cfg.frames * u32::from(self.cfg.frame_regs)
    }

    fn occupancy(&self) -> Occupancy {
        Occupancy {
            valid_regs: self.valid_count,
            resident_contexts: self.resident_count,
        }
    }

    fn stats(&self) -> &RegFileStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = RegFileStats::default();
    }

    fn describe(&self) -> String {
        let cfg = &self.cfg;
        if cfg.frames == 1 && cfg.policy == FramePolicy::Full && cfg.dribble.is_none() {
            return format!("Conventional {} regs", self.capacity());
        }
        format!(
            "Segmented {}x{} ({:?}, {:?})",
            cfg.frames, cfg.frame_regs, cfg.policy, cfg.engine
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MapStore;

    fn file(frames: u32, width: u8, policy: FramePolicy) -> SegmentedFile {
        let mut cfg = SegmentedConfig::paper_default(frames, width);
        cfg.policy = policy;
        SegmentedFile::new(cfg)
    }

    #[test]
    fn access_requires_switch() {
        let mut f = file(2, 4, FramePolicy::Full);
        let mut s = MapStore::new();
        let err = f.write(RegAddr::new(1, 0), 5, &mut s).unwrap_err();
        assert_eq!(err, RegFileError::NotCurrent(1));
        f.switch_to(1, &mut s).unwrap();
        f.write(RegAddr::new(1, 0), 5, &mut s).unwrap();
        assert_eq!(f.read(RegAddr::new(1, 0), &mut s).unwrap().value, 5);
    }

    #[test]
    fn resident_switch_is_free() {
        let mut f = file(2, 4, FramePolicy::Full);
        let mut s = MapStore::new();
        f.switch_to(1, &mut s).unwrap();
        f.switch_to(2, &mut s).unwrap();
        assert_eq!(f.switch_to(1, &mut s).unwrap(), 0);
        assert_eq!(f.stats().switch_hits, 1);
        assert_eq!(f.stats().regs_reloaded, 0, "no context ever spilled");
    }

    #[test]
    fn frame_miss_spills_whole_frame_under_full_policy() {
        let mut f = file(1, 4, FramePolicy::Full);
        let mut s = MapStore::new();
        f.switch_to(1, &mut s).unwrap();
        f.write(RegAddr::new(1, 0), 10, &mut s).unwrap(); // 1 valid of 4
        let cycles = f.switch_to(2, &mut s).unwrap();
        assert!(cycles > 0);
        // Whole frame spilled: 4 transfers, though only 1 register was live.
        assert_eq!(f.stats().regs_spilled, 4);
        // Switching back reloads the whole frame again.
        f.switch_to(1, &mut s).unwrap();
        assert_eq!(f.stats().regs_reloaded, 4);
        assert_eq!(f.stats().live_regs_reloaded, 1);
        assert_eq!(f.read(RegAddr::new(1, 0), &mut s).unwrap().value, 10);
    }

    /// The one-frame case: the conventional single-context file.
    #[test]
    fn every_switch_moves_the_whole_file() {
        let mut f = file(1, 8, FramePolicy::Full);
        let mut s = MapStore::new();
        f.switch_to(1, &mut s).unwrap();
        f.write(RegAddr::new(1, 0), 1, &mut s).unwrap();
        f.switch_to(2, &mut s).unwrap();
        assert_eq!(f.stats().regs_spilled, 8);
        f.write(RegAddr::new(2, 0), 2, &mut s).unwrap();
        f.switch_to(1, &mut s).unwrap();
        assert_eq!(f.stats().regs_spilled, 16);
        assert_eq!(f.stats().regs_reloaded, 8);
        assert_eq!(f.read(RegAddr::new(1, 0), &mut s).unwrap().value, 1);
        assert_eq!(f.describe(), "Conventional 8 regs");
    }

    #[test]
    fn valid_only_policy_moves_live_registers() {
        let mut f = file(1, 8, FramePolicy::ValidOnly);
        let mut s = MapStore::new();
        f.switch_to(1, &mut s).unwrap();
        f.write(RegAddr::new(1, 0), 10, &mut s).unwrap();
        f.write(RegAddr::new(1, 3), 13, &mut s).unwrap();
        f.switch_to(2, &mut s).unwrap();
        assert_eq!(f.stats().regs_spilled, 2);
        f.switch_to(1, &mut s).unwrap();
        assert_eq!(f.stats().regs_reloaded, 2);
        assert_eq!(f.stats().live_regs_reloaded, 2);
        assert_eq!(f.read(RegAddr::new(1, 3), &mut s).unwrap().value, 13);
    }

    #[test]
    fn fresh_context_claims_frame_without_traffic() {
        let mut f = file(2, 4, FramePolicy::Full);
        let mut s = MapStore::new();
        f.switch_to(7, &mut s).unwrap();
        assert_eq!(f.stats().regs_reloaded, 0);
        assert_eq!(f.stats().regs_spilled, 0);
    }

    #[test]
    fn lru_frame_is_victim() {
        let mut f = file(2, 2, FramePolicy::ValidOnly);
        let mut s = MapStore::new();
        f.switch_to(1, &mut s).unwrap();
        f.write(RegAddr::new(1, 0), 1, &mut s).unwrap();
        f.switch_to(2, &mut s).unwrap();
        f.write(RegAddr::new(2, 0), 2, &mut s).unwrap();
        f.switch_to(1, &mut s).unwrap(); // touch 1; 2 becomes LRU
        f.switch_to(3, &mut s).unwrap(); // must evict context 2
        assert!(f.resident_frame(1).is_some());
        assert!(f.resident_frame(2).is_none());
    }

    #[test]
    fn free_context_releases_frame_silently() {
        let mut f = file(1, 4, FramePolicy::Full);
        let mut s = MapStore::new();
        f.switch_to(1, &mut s).unwrap();
        f.write(RegAddr::new(1, 0), 9, &mut s).unwrap();
        f.free_context(1, &mut s);
        assert_eq!(f.stats().regs_spilled, 0);
        assert_eq!(f.occupancy().resident_contexts, 0);
        // Frame is immediately reusable without eviction.
        assert_eq!(f.switch_to(2, &mut s).unwrap(), 0);
    }

    #[test]
    fn read_undefined_detected() {
        let mut f = file(1, 4, FramePolicy::Full);
        let mut s = MapStore::new();
        f.switch_to(1, &mut s).unwrap();
        assert!(matches!(
            f.read(RegAddr::new(1, 2), &mut s),
            Err(RegFileError::ReadUndefined(_))
        ));
    }

    #[test]
    fn full_spill_does_not_fabricate_live_data() {
        let mut f = file(1, 4, FramePolicy::Full);
        let mut s = MapStore::new();
        f.switch_to(1, &mut s).unwrap();
        f.write(RegAddr::new(1, 1), 11, &mut s).unwrap();
        f.switch_to(2, &mut s).unwrap(); // spills frame of 1
        f.switch_to(1, &mut s).unwrap(); // reloads
                                         // Register 0 was never written; it must still read as undefined.
        assert!(matches!(
            f.read(RegAddr::new(1, 0), &mut s),
            Err(RegFileError::ReadUndefined(_))
        ));
        assert_eq!(f.read(RegAddr::new(1, 1), &mut s).unwrap().value, 11);
    }

    #[test]
    fn occupancy_reflects_frames() {
        let mut f = file(4, 8, FramePolicy::Full);
        let mut s = MapStore::new();
        f.switch_to(1, &mut s).unwrap();
        f.write(RegAddr::new(1, 0), 1, &mut s).unwrap();
        f.switch_to(2, &mut s).unwrap();
        f.write(RegAddr::new(2, 0), 1, &mut s).unwrap();
        f.write(RegAddr::new(2, 1), 1, &mut s).unwrap();
        let o = f.occupancy();
        assert_eq!(o.resident_contexts, 2);
        assert_eq!(o.valid_regs, 3);
        assert_eq!(f.capacity(), 32);
    }

    #[test]
    fn dribble_prepays_idle_frame_spills() {
        use crate::segmented::DribbleConfig;
        let run = |dribble: Option<DribbleConfig>| {
            let mut cfg = SegmentedConfig::paper_default(2, 4);
            cfg.policy = FramePolicy::ValidOnly;
            cfg.dribble = dribble;
            let mut f = SegmentedFile::new(cfg);
            let mut s = MapStore::new();
            // Frame 0 fills, then sits idle while frame 1 works.
            f.switch_to(1, &mut s).unwrap();
            for i in 0..4 {
                f.write(RegAddr::new(1, i), 1, &mut s).unwrap();
            }
            f.switch_to(2, &mut s).unwrap();
            for _ in 0..50 {
                f.write(RegAddr::new(2, 0), 2, &mut s).unwrap();
            }
            // Evict the long-idle frame of context 1.
            f.switch_to(3, &mut s).unwrap();
            (
                f.stats().spill_reload_cycles,
                f.stats().regs_spilled,
                f.stats().regs_dribbled,
            )
        };
        let (plain_cycles, plain_spills, plain_dribbled) = run(None);
        let (dr_cycles, dr_spills, dr_dribbled) = run(Some(DribbleConfig { ops_per_reg: 8 }));
        assert_eq!(plain_dribbled, 0);
        assert_eq!(
            plain_spills, dr_spills,
            "dribbling must not change the traffic, only the stall"
        );
        assert_eq!(dr_dribbled, 4, "50 idle ops / 8 per reg covers all 4");
        assert!(
            dr_cycles < plain_cycles,
            "prepaid spills must shrink the stall: {dr_cycles} vs {plain_cycles}"
        );
    }

    #[test]
    fn dribble_prepaid_transfers_cost_no_memory_cycles() {
        use crate::segmented::DribbleConfig;
        let mut cfg = SegmentedConfig::paper_default(2, 4);
        cfg.dribble = Some(DribbleConfig { ops_per_reg: 10 });
        let mut f = SegmentedFile::new(cfg);
        let mut s = MapStore::with_latency(5);
        f.switch_to(1, &mut s).unwrap(); // frame 0, touched at op 1
        f.switch_to(2, &mut s).unwrap(); // frame 1, op 2
        for _ in 0..20 {
            f.write(RegAddr::new(2, 0), 1, &mut s).unwrap(); // ops 3..=22
        }
        // Evicting frame 0 after 21 idle ops: 2 of its 4 transfers are
        // prepaid, so only the other 2 stall and pay memory cycles.
        let cycles = f.switch_to(3, &mut s).unwrap();
        assert_eq!(f.stats().regs_spilled, 4);
        assert_eq!(f.stats().regs_dribbled, 2);
        assert_eq!(cycles, cfg.engine.transfer_cost(2, 2 * 5));
    }

    #[test]
    fn dribble_does_not_prepay_hot_frames() {
        use crate::segmented::DribbleConfig;
        let mut cfg = SegmentedConfig::paper_default(1, 4);
        cfg.dribble = Some(DribbleConfig { ops_per_reg: 8 });
        let mut f = SegmentedFile::new(cfg);
        let mut s = MapStore::new();
        f.switch_to(1, &mut s).unwrap();
        f.write(RegAddr::new(1, 0), 1, &mut s).unwrap();
        // Immediately evicted: no idle time, nothing prepaid.
        f.switch_to(2, &mut s).unwrap();
        assert_eq!(f.stats().regs_dribbled, 0);
    }

    #[test]
    fn dribble_counts_idle_from_allocation_not_run_start() {
        // A frame allocated late and never touched must accrue prepaid
        // writebacks only for the operations after its allocation — if
        // `last_touch` were left at its initial 0, the whole run's op
        // count would count as idle time and the eviction would be
        // spuriously prepaid.
        use crate::segmented::DribbleConfig;
        let mut cfg = SegmentedConfig::paper_default(2, 4);
        cfg.dribble = Some(DribbleConfig { ops_per_reg: 8 });
        let mut f = SegmentedFile::new(cfg);
        let mut s = MapStore::new();
        // A long busy prefix on frame 0.
        f.switch_to(1, &mut s).unwrap();
        for _ in 0..200 {
            f.write(RegAddr::new(1, 0), 1, &mut s).unwrap();
        }
        // Frame 1 allocated late, never touched afterwards.
        f.switch_to(2, &mut s).unwrap();
        // Make frame 1 the LRU victim, then evict it almost immediately.
        f.switch_to(1, &mut s).unwrap();
        f.switch_to(3, &mut s).unwrap(); // evicts the never-touched frame 1
        assert_eq!(
            f.stats().regs_dribbled,
            0,
            "2 idle ops cannot prepay anything; 200 pre-allocation ops must not count"
        );
        // Full policy still moved the whole 4-register frame.
        assert_eq!(f.stats().regs_spilled, 4);
    }

    #[test]
    fn dribble_just_allocated_never_written_frame_earns_its_idle() {
        // The complementary case: a never-touched frame that genuinely
        // idles after allocation earns prepaid credit for exactly that
        // idle span (and never more than the transfer it prepays).
        use crate::segmented::DribbleConfig;
        let mut cfg = SegmentedConfig::paper_default(2, 4);
        cfg.dribble = Some(DribbleConfig { ops_per_reg: 8 });
        let mut f = SegmentedFile::new(cfg);
        let mut s = MapStore::new();
        // Frame 0: context 2, allocated first, never read or written.
        f.switch_to(2, &mut s).unwrap();
        // Frame 1: busy context — 100 ops of idle time for frame 0.
        f.switch_to(1, &mut s).unwrap();
        for _ in 0..100 {
            f.write(RegAddr::new(1, 0), 1, &mut s).unwrap();
        }
        f.switch_to(3, &mut s).unwrap(); // evicts frame 0 (LRU)
        assert_eq!(f.stats().regs_spilled, 4, "Full policy moves the frame");
        assert_eq!(
            f.stats().regs_dribbled,
            4,
            "100 idle ops / 8 per reg covers the whole 4-register transfer"
        );
        assert_eq!(
            f.stats().invariant_violation().as_deref().unwrap_or("none"),
            "none"
        );
    }

    #[test]
    fn software_engine_costs_more() {
        let run = |engine: SpillEngine| {
            let mut cfg = SegmentedConfig::paper_default(1, 8);
            cfg.engine = engine;
            let mut f = SegmentedFile::new(cfg);
            let mut s = MapStore::new();
            f.switch_to(1, &mut s).unwrap();
            f.write(RegAddr::new(1, 0), 1, &mut s).unwrap();
            f.switch_to(2, &mut s).unwrap();
            f.switch_to(1, &mut s).unwrap();
            f.stats().spill_reload_cycles
        };
        assert!(run(SpillEngine::software()) > run(SpillEngine::hardware()));
    }
}
