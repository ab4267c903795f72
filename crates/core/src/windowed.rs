//! A SPARC-style windowed register file — the related-work baseline.
//!
//! Paper §5: "Keppel and Hidaka propose running multiple concurrent
//! threads in the register windows of a Sparc processor by modifying
//! window trap handlers." This organization models that machine:
//!
//! * a circular set of **windows**, one per procedure activation, advanced
//!   by `call` and retracted by `ret`;
//! * **overflow**: a call that wraps onto an occupied window traps and
//!   spills the *deepest* resident activation (strict stack order — not
//!   LRU);
//! * **underflow**: a return to an activation whose window was spilled
//!   traps and reloads it;
//! * **thread switches flush**: the window set belongs to one call chain,
//!   so dispatching another thread spills every resident window of the
//!   outgoing chain and reloads the incoming thread's top activation —
//!   the cost Keppel's and Hidaka's trap handlers try to soften, and the
//!   cost the Named-State Register File removes outright.
//!
//! Spills and reloads run through the same [`SpillEngine`] cost model as
//! the segmented file, using software traps by default (the Sparc way).

use crate::addr::{Cid, RegAddr};
use crate::policy::SpillEngine;
use crate::stats::{Occupancy, RegFileStats};
use crate::traits::{bit_runs, Access, BackingStore, RegFileError, RegisterFile};
use crate::Word;
use std::collections::HashMap;

/// Configuration of a [`WindowedFile`].
#[derive(Clone, Copy, Debug)]
pub struct WindowedConfig {
    /// Number of windows (SPARC implementations shipped 7 or 8).
    pub windows: u32,
    /// Registers per window.
    pub window_regs: u8,
    /// Spill/reload machinery; SPARC used software trap handlers.
    pub engine: SpillEngine,
}

impl WindowedConfig {
    /// A SPARC-like default: 8 windows, software trap handlers.
    pub fn sparc_like(window_regs: u8) -> Self {
        WindowedConfig {
            windows: 8,
            window_regs,
            engine: SpillEngine::software(),
        }
    }
}

#[derive(Clone)]
struct Window {
    regs: Box<[Word]>,
    valid: u64,
}

/// One activation of the current chain: resident (`Some` window) or
/// spilled to the backing store (`None`).
struct Slot {
    cid: Cid,
    window: Option<Window>,
}

/// The windowed register file. See module docs.
pub struct WindowedFile {
    cfg: WindowedConfig,
    /// The current thread's call chain, outermost first; at most
    /// `cfg.windows` slots hold a resident window at any time. Spills
    /// always take the deepest resident window, so the resident windows
    /// form a contiguous *suffix* of the chain — the deepest resident is
    /// always at index `chain.len() - resident_count`.
    chain: Vec<Slot>,
    /// Parked chains of other threads, keyed by their innermost CID.
    /// Parked chains are fully spilled (register values live in the
    /// backing store; only the CID order is kept).
    parked: HashMap<Cid, Vec<Cid>>,
    stats: RegFileStats,
    /// Number of chain slots holding a resident window.
    resident_count: usize,
    /// Set valid bits across resident windows (O(1) occupancy sampling).
    valid_count: u32,
}

impl WindowedFile {
    /// Creates an empty file.
    ///
    /// # Panics
    ///
    /// Panics on zero windows or zero-width windows (configuration bugs).
    pub fn new(cfg: WindowedConfig) -> Self {
        assert!(cfg.windows > 0, "need at least one window");
        assert!(
            cfg.window_regs > 0 && cfg.window_regs <= 64,
            "1..=64 registers per window"
        );
        WindowedFile {
            cfg,
            chain: Vec::new(),
            parked: HashMap::new(),
            stats: RegFileStats::default(),
            resident_count: 0,
            valid_count: 0,
        }
    }

    fn fresh_window(&self) -> Window {
        Window {
            regs: vec![0; self.cfg.window_regs as usize].into_boxed_slice(),
            valid: 0,
        }
    }

    /// The configuration this file was built with.
    pub fn config(&self) -> &WindowedConfig {
        &self.cfg
    }

    fn check(&self, addr: RegAddr) -> Result<(), RegFileError> {
        if addr.offset < self.cfg.window_regs {
            Ok(())
        } else {
            Err(RegFileError::BadOffset(addr))
        }
    }

    /// Index of the deepest (outermost) resident window. Resident windows
    /// are a contiguous suffix of the chain (see the field docs), so this
    /// is pure arithmetic, not a scan.
    fn deepest_resident(&self) -> usize {
        debug_assert!(self.resident_count > 0);
        let idx = self.chain.len() - self.resident_count;
        debug_assert!(self.chain[idx].window.is_some());
        idx
    }

    /// Spills slot `idx`'s window (must be resident). Returns cycles.
    fn spill_slot(
        &mut self,
        idx: usize,
        store: &mut dyn BackingStore,
    ) -> Result<u32, RegFileError> {
        let cid = self.chain[idx].cid;
        let mut cycles = [0u32; 64];
        {
            // Spill with the window still in place: a store fault mid-spill
            // must leave the activation resident, not silently drop the
            // registers that were never written back.
            let w = self.chain[idx]
                .window
                .as_ref()
                .expect("spilling a resident window");
            for (first, len) in bit_runs(w.valid) {
                let run = usize::from(first)..usize::from(first + len);
                store.spill_run(cid, first, &w.regs[run.clone()], !0, &mut cycles[run])?;
            }
        }
        let w = self.chain[idx].window.take().expect("still resident");
        let moved = w.valid.count_ones();
        self.resident_count -= 1;
        self.valid_count -= moved;
        self.stats.regs_spilled += u64::from(moved);
        let cycles = self
            .cfg
            .engine
            .transfer_cost(moved, cycles.iter().sum::<u32>());
        self.stats.spill_reload_cycles += u64::from(cycles);
        Ok(cycles)
    }

    /// Reloads a window's registers from the backing store.
    fn reload_window(
        &mut self,
        cid: Cid,
        store: &mut dyn BackingStore,
    ) -> Result<(Window, u32), RegFileError> {
        let mut w = self.fresh_window();
        let fetch = (0..self.cfg.window_regs)
            .filter(|&i| store.is_present(cid, i))
            .fold(0u64, |mask, i| mask | 1 << i);
        let mut cycles = [0u32; 64];
        for (first, len) in bit_runs(fetch) {
            let run = usize::from(first)..usize::from(first + len);
            let present =
                store.reload_run(cid, first, &mut w.regs[run.clone()], &mut cycles[run])?;
            w.valid |= present << first;
        }
        let moved = fetch.count_ones();
        self.stats.lines_reloaded += 1;
        self.stats.regs_reloaded += u64::from(moved);
        self.stats.live_regs_reloaded += u64::from(moved);
        let cycles = self
            .cfg
            .engine
            .transfer_cost(moved, cycles.iter().sum::<u32>());
        self.stats.spill_reload_cycles += u64::from(cycles);
        Ok((w, cycles))
    }

    /// Flushes the current chain's resident windows and parks it.
    fn park_current(&mut self, store: &mut dyn BackingStore) -> Result<u32, RegFileError> {
        let mut cycles = 0;
        // Resident windows are the suffix [len - resident_count, len).
        let start = self.chain.len() - self.resident_count;
        for idx in start..self.chain.len() {
            cycles += self.spill_slot(idx, store)?;
        }
        if !self.chain.is_empty() {
            let key = self.chain.last().expect("non-empty").cid;
            let cids: Vec<Cid> = self.chain.drain(..).map(|s| s.cid).collect();
            self.parked.insert(key, cids);
        }
        Ok(cycles)
    }

    /// The chain top's resident window, if `addr` is a legal offset of
    /// the context that owns it — the condition every register access
    /// needs.
    #[inline]
    fn top_window(&mut self, addr: RegAddr) -> Option<&mut Window> {
        if addr.offset >= self.cfg.window_regs {
            return None;
        }
        match self.chain.last_mut() {
            Some(s) if s.cid == addr.cid => s.window.as_mut(),
            _ => None,
        }
    }

    /// Why an access to `addr` cannot reach the top window. Rejected
    /// accesses never reach the file and are not counted.
    #[cold]
    fn rejected(&self, addr: RegAddr) -> RegFileError {
        match self.check(addr) {
            Err(e) => e,
            Ok(()) => RegFileError::NotCurrent(addr.cid),
        }
    }

    /// A read that did not hit: rejected, or a register of the top window
    /// that holds no data (windows move whole, so it is undefined).
    #[inline(never)]
    fn read_miss(&mut self, addr: RegAddr) -> Result<Access, RegFileError> {
        if self.top_window(addr).is_none() {
            return Err(self.rejected(addr));
        }
        self.stats.reads += 1;
        self.stats.read_misses += 1;
        Err(RegFileError::ReadUndefined(addr))
    }
}

impl RegisterFile for WindowedFile {
    #[inline(always)]
    fn read(
        &mut self,
        addr: RegAddr,
        _store: &mut dyn BackingStore,
    ) -> Result<Access, RegFileError> {
        match self.top_window(addr) {
            Some(w) if w.valid & (1 << addr.offset) != 0 => {
                let value = w.regs[usize::from(addr.offset)];
                self.stats.reads += 1;
                self.stats.read_hits += 1;
                Ok(Access::hit(value))
            }
            _ => self.read_miss(addr),
        }
    }

    /// Writes always hit once the context owns the top window.
    #[inline(always)]
    fn write(
        &mut self,
        addr: RegAddr,
        value: Word,
        _store: &mut dyn BackingStore,
    ) -> Result<Access, RegFileError> {
        let Some(w) = self.top_window(addr) else {
            return Err(self.rejected(addr));
        };
        let bit = 1 << addr.offset;
        let fresh = w.valid & bit == 0;
        w.regs[usize::from(addr.offset)] = value;
        w.valid |= bit;
        self.valid_count += u32::from(fresh);
        self.stats.writes += 1;
        self.stats.write_hits += 1;
        Ok(Access::hit(value))
    }

    /// A plain `switch_to` reaches a windowed file on procedure *return*
    /// (the machine popped the dead callee first): retract one window,
    /// reloading it on underflow.
    fn switch_to(&mut self, cid: Cid, store: &mut dyn BackingStore) -> Result<u32, RegFileError> {
        self.stats.context_switches += 1;
        match self.chain.last() {
            Some(s) if s.cid == cid && s.window.is_some() => {
                self.stats.switch_hits += 1;
                Ok(0)
            }
            Some(s) if s.cid == cid => {
                // Underflow: the caller's window was spilled earlier.
                let (w, cycles) = self.reload_window(cid, store)?;
                self.resident_count += 1;
                self.valid_count += w.valid.count_ones();
                self.chain.last_mut().expect("just matched").window = Some(w);
                Ok(cycles)
            }
            // Not the chain top at all: the processor is switching
            // threads through the generic entry point; behave sensibly.
            _ => {
                self.stats.context_switches -= 1; // thread_switch recounts
                self.thread_switch(cid, store)
            }
        }
    }

    /// A call advances the window pointer; on overflow the deepest
    /// resident window spills (strict stack order, like SPARC's CWP).
    fn call_push(&mut self, cid: Cid, store: &mut dyn BackingStore) -> Result<u32, RegFileError> {
        self.stats.context_switches += 1;
        let mut cycles = 0;
        if self.resident_count as u32 >= self.cfg.windows {
            let deepest = self.deepest_resident();
            cycles += self.spill_slot(deepest, store)?;
        }
        let w = self.fresh_window();
        self.resident_count += 1;
        self.chain.push(Slot {
            cid,
            window: Some(w),
        });
        Ok(cycles)
    }

    /// Dispatching another thread flushes the whole resident chain and
    /// reloads the incoming thread's innermost window.
    fn thread_switch(
        &mut self,
        cid: Cid,
        store: &mut dyn BackingStore,
    ) -> Result<u32, RegFileError> {
        self.stats.context_switches += 1;
        if self
            .chain
            .last()
            .is_some_and(|s| s.cid == cid && s.window.is_some())
        {
            self.stats.switch_hits += 1;
            return Ok(0);
        }
        let mut cycles = self.park_current(store)?;
        let parked_top = self
            .parked
            .get(&cid)
            .map(|cids| *cids.last().expect("parked chains are non-empty"));
        if let Some(top) = parked_top {
            // Known chain: restore its CID order; only the top window is
            // reloaded eagerly — returns underflow lazily. Reload before
            // consuming the parked entry: a store fault must leave the
            // chain parked and the dispatch retryable.
            let (w, cyc) = self.reload_window(top, store)?;
            let cids = self.parked.remove(&cid).expect("just found");
            for c in &cids[..cids.len() - 1] {
                self.chain.push(Slot {
                    cid: *c,
                    window: None,
                });
            }
            cycles += cyc;
            self.resident_count += 1;
            self.valid_count += w.valid.count_ones();
            self.chain.push(Slot {
                cid: top,
                window: Some(w),
            });
        } else {
            // A brand new thread: claim an empty window.
            let w = self.fresh_window();
            self.resident_count += 1;
            self.chain.push(Slot {
                cid,
                window: Some(w),
            });
        }
        Ok(cycles)
    }

    fn free_context(&mut self, cid: Cid, store: &mut dyn BackingStore) {
        if self.chain.last().is_some_and(|s| s.cid == cid) {
            let slot = self.chain.pop().expect("just matched");
            if let Some(w) = slot.window {
                self.resident_count -= 1;
                self.valid_count -= w.valid.count_ones();
            }
        }
        self.parked.remove(&cid);
        store.discard_context(cid);
    }

    fn free_reg(&mut self, addr: RegAddr, store: &mut dyn BackingStore) {
        if let Some(s) = self.chain.last_mut() {
            if s.cid == addr.cid {
                if let Some(w) = s.window.as_mut() {
                    if w.valid & (1 << addr.offset) != 0 {
                        self.valid_count -= 1;
                    }
                    w.valid &= !(1 << addr.offset);
                }
            }
        }
        store.discard_reg(addr.cid, addr.offset);
    }

    fn capacity(&self) -> u32 {
        self.cfg.windows * u32::from(self.cfg.window_regs)
    }

    fn occupancy(&self) -> Occupancy {
        Occupancy {
            valid_regs: self.valid_count,
            resident_contexts: self.resident_count as u32,
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
            "Windowed {}x{} ({:?})",
            self.cfg.windows, self.cfg.window_regs, self.cfg.engine
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MapStore;

    fn file(windows: u32) -> WindowedFile {
        WindowedFile::new(WindowedConfig {
            windows,
            window_regs: 4,
            engine: SpillEngine::software(),
        })
    }

    #[test]
    fn call_chain_within_windows_is_free() {
        let mut f = file(4);
        let mut s = MapStore::new();
        f.thread_switch(0, &mut s).unwrap();
        for cid in 1..4u16 {
            assert_eq!(f.call_push(cid, &mut s).unwrap(), 0);
            f.write(RegAddr::new(cid, 0), u32::from(cid), &mut s)
                .unwrap();
        }
        assert_eq!(f.stats().regs_spilled, 0);
        assert_eq!(f.occupancy().resident_contexts, 4);
    }

    #[test]
    fn overflow_spills_deepest_and_underflow_reloads() {
        let mut f = file(2);
        let mut s = MapStore::new();
        f.thread_switch(0, &mut s).unwrap();
        f.write(RegAddr::new(0, 1), 100, &mut s).unwrap();
        f.call_push(1, &mut s).unwrap();
        f.write(RegAddr::new(1, 1), 101, &mut s).unwrap();
        // Third activation overflows: window of cid 0 spills.
        let cycles = f.call_push(2, &mut s).unwrap();
        assert!(cycles > 0);
        assert_eq!(f.stats().regs_spilled, 1);
        // Return path: pop 2, caller 1 still resident (free).
        f.free_context(2, &mut s);
        assert_eq!(f.switch_to(1, &mut s).unwrap(), 0);
        assert_eq!(f.read(RegAddr::new(1, 1), &mut s).unwrap().value, 101);
        // Pop 1: caller 0 was spilled → underflow reload.
        f.free_context(1, &mut s);
        let cycles = f.switch_to(0, &mut s).unwrap();
        assert!(cycles > 0, "underflow must reload");
        assert_eq!(f.read(RegAddr::new(0, 1), &mut s).unwrap().value, 100);
    }

    #[test]
    fn thread_switch_flushes_everything() {
        let mut f = file(4);
        let mut s = MapStore::new();
        f.thread_switch(0, &mut s).unwrap();
        f.write(RegAddr::new(0, 0), 1, &mut s).unwrap();
        f.call_push(1, &mut s).unwrap();
        f.write(RegAddr::new(1, 0), 2, &mut s).unwrap();
        // Dispatch another thread: both resident windows spill.
        let cycles = f.thread_switch(10, &mut s).unwrap();
        assert!(cycles > 0);
        assert_eq!(f.stats().regs_spilled, 2);
        f.write(RegAddr::new(10, 0), 3, &mut s).unwrap();
        // Come back: only the top window (cid 1) reloads eagerly.
        let cycles = f.thread_switch(1, &mut s).unwrap();
        assert!(cycles > 0);
        assert_eq!(f.read(RegAddr::new(1, 0), &mut s).unwrap().value, 2);
        // Returning into cid 0 underflows and reloads it.
        f.free_context(1, &mut s);
        f.switch_to(0, &mut s).unwrap();
        assert_eq!(f.read(RegAddr::new(0, 0), &mut s).unwrap().value, 1);
    }

    #[test]
    fn access_requires_current_window() {
        let mut f = file(2);
        let mut s = MapStore::new();
        assert!(matches!(
            f.read(RegAddr::new(5, 0), &mut s),
            Err(RegFileError::NotCurrent(5))
        ));
        f.thread_switch(0, &mut s).unwrap();
        assert!(matches!(
            f.write(RegAddr::new(5, 0), 1, &mut s),
            Err(RegFileError::NotCurrent(5))
        ));
    }

    #[test]
    fn read_undefined_detected() {
        let mut f = file(2);
        let mut s = MapStore::new();
        f.thread_switch(0, &mut s).unwrap();
        assert!(matches!(
            f.read(RegAddr::new(0, 3), &mut s),
            Err(RegFileError::ReadUndefined(_))
        ));
    }

    #[test]
    fn describe_names_windows() {
        assert!(file(8).describe().contains("Windowed 8x4"));
    }
}
