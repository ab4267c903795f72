//! A conventional, single-context register file.
//!
//! The degenerate case of the segmented organization: one frame, so every
//! context switch spills and reloads the whole register set through memory.
//! This is the "conventional processor" of the paper's introduction, whose
//! switch cost "may take hundreds of cycles".

use crate::addr::{Cid, RegAddr};
use crate::policy::SpillEngine;
use crate::segmented::{FramePolicy, SegmentedConfig, SegmentedFile};
use crate::stats::{Occupancy, RegFileStats};
use crate::traits::{Access, BackingStore, RegFileError, RegisterFile};
use crate::Word;

/// A classic indexed register file holding exactly one context.
pub struct ConventionalFile {
    inner: SegmentedFile,
}

impl ConventionalFile {
    /// Creates a file of `regs` registers with a hardware spill engine.
    pub fn new(regs: u8) -> Self {
        Self::with_engine(regs, SpillEngine::hardware())
    }

    /// Creates a file of `regs` registers with an explicit spill engine
    /// (software traps model a conventional OS context switch).
    pub fn with_engine(regs: u8, engine: SpillEngine) -> Self {
        let mut cfg = SegmentedConfig::paper_default(1, regs);
        cfg.engine = engine;
        cfg.policy = FramePolicy::Full;
        ConventionalFile {
            inner: SegmentedFile::new(cfg),
        }
    }
}

impl RegisterFile for ConventionalFile {
    #[inline(always)]
    fn read(
        &mut self,
        addr: RegAddr,
        store: &mut dyn BackingStore,
    ) -> Result<Access, RegFileError> {
        self.inner.read(addr, store)
    }

    #[inline(always)]
    fn write(
        &mut self,
        addr: RegAddr,
        value: Word,
        store: &mut dyn BackingStore,
    ) -> Result<Access, RegFileError> {
        self.inner.write(addr, value, store)
    }

    fn switch_to(&mut self, cid: Cid, store: &mut dyn BackingStore) -> Result<u32, RegFileError> {
        self.inner.switch_to(cid, store)
    }

    fn free_context(&mut self, cid: Cid, store: &mut dyn BackingStore) {
        self.inner.free_context(cid, store);
    }

    fn free_reg(&mut self, addr: RegAddr, store: &mut dyn BackingStore) {
        self.inner.free_reg(addr, store);
    }

    fn capacity(&self) -> u32 {
        self.inner.capacity()
    }

    fn occupancy(&self) -> Occupancy {
        self.inner.occupancy()
    }

    fn stats(&self) -> &RegFileStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn describe(&self) -> String {
        format!("Conventional {} regs", self.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MapStore;

    #[test]
    fn every_switch_moves_the_whole_file() {
        let mut f = ConventionalFile::new(8);
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
    }

    #[test]
    fn describe_names_it() {
        assert!(ConventionalFile::new(32)
            .describe()
            .contains("Conventional"));
    }
}
