//! The composed memory system: data cache over main memory, plus the
//! Ctable used by register-file spill engines.

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::ctable::Ctable;
use crate::memory::MainMemory;
use crate::{Addr, Word};

/// Configuration of a [`MemSystem`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemConfig {
    /// Data-cache geometry and latencies.
    pub dcache: CacheConfig,
    /// Number of Context IDs the Ctable can map.
    pub ctable_slots: usize,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            dcache: CacheConfig::default(),
            ctable_slots: 4096,
        }
    }
}

/// Data cache + main memory + Ctable.
///
/// All latencies are returned to the caller (the processor model), which
/// charges them to the running thread; `MemSystem` itself keeps no clock.
pub struct MemSystem {
    memory: MainMemory,
    dcache: Cache,
    ctable: Ctable,
}

impl MemSystem {
    /// Creates a memory system from `cfg`.
    pub fn new(cfg: MemConfig) -> Self {
        MemSystem {
            memory: MainMemory::new(),
            dcache: Cache::new(cfg.dcache),
            ctable: Ctable::new(cfg.ctable_slots),
        }
    }

    /// Loads the word at `addr` through the data cache.
    ///
    /// Returns `(value, cycles)`.
    #[inline]
    pub fn load(&mut self, addr: Addr) -> (Word, u32) {
        let cycles = self.dcache.access(addr, false);
        (self.memory.read(addr), cycles)
    }

    /// Stores `value` at `addr` through the data cache. Returns the cycle
    /// cost.
    #[inline]
    pub fn store(&mut self, addr: Addr, value: Word) -> u32 {
        let cycles = self.dcache.access(addr, true);
        self.memory.write(addr, value);
        cycles
    }

    /// Stores `values` at consecutive addresses from `addr` through the
    /// data cache, writing each word's latency into `cycles`: the same
    /// result as one [`store`](Self::store) per word in ascending order,
    /// with one tag check per cache line and one page-chunked memory
    /// write.
    pub fn store_run(&mut self, addr: Addr, values: &[Word], cycles: &mut [u32]) {
        assert_eq!(values.len(), cycles.len(), "one latency per word");
        self.dcache.access_run(addr, true, cycles);
        self.memory.write_block(addr, values);
    }

    /// Loads `out.len()` words from consecutive addresses at `addr`
    /// through the data cache, writing each word's latency into
    /// `cycles`: the same result as one [`load`](Self::load) per word in
    /// ascending order, with one tag check per cache line and one
    /// page-chunked memory read.
    pub fn load_run(&mut self, addr: Addr, out: &mut [Word], cycles: &mut [u32]) {
        assert_eq!(out.len(), cycles.len(), "one latency per word");
        self.dcache.access_run(addr, false, cycles);
        self.memory.read_into(addr, out);
    }

    /// Atomic fetch-and-add on `addr` (uniprocessor, so trivially atomic).
    ///
    /// Returns `(old_value, cycles)`.
    #[inline]
    pub fn fetch_add(&mut self, addr: Addr, delta: i32) -> (Word, u32) {
        let cycles = self.dcache.access(addr, true);
        let old = self.memory.read(addr);
        self.memory.write(addr, old.wrapping_add(delta as Word));
        (old, cycles)
    }

    /// Reads a word without touching the cache model or statistics — used
    /// by the simulator's own bookkeeping and by tests.
    #[inline]
    pub fn peek(&self, addr: Addr) -> Word {
        self.memory.peek(addr)
    }

    /// Writes a word bypassing the cache model (program loading, test
    /// setup). Functionally identical to `store` but free of charge.
    pub fn poke(&mut self, addr: Addr, value: Word) {
        self.memory.write(addr, value);
    }

    /// Writes a block bypassing the cache model.
    pub fn poke_block(&mut self, addr: Addr, values: &[Word]) {
        self.memory.write_block(addr, values);
    }

    /// Reads a block into `out` bypassing the cache model — the read
    /// dual of [`poke_block`](Self::poke_block), allocation-free and
    /// page-chunked (result readback, bulk diagnostics).
    pub fn read_into(&mut self, addr: Addr, out: &mut [Word]) {
        self.memory.read_into(addr, out);
    }

    /// The Ctable (shared with register-file spill engines).
    pub fn ctable(&self) -> &Ctable {
        &self.ctable
    }

    /// Mutable access to the Ctable.
    pub fn ctable_mut(&mut self) -> &mut Ctable {
        &mut self.ctable
    }

    /// Data-cache statistics.
    pub fn dcache_stats(&self) -> CacheStats {
        self.dcache.stats()
    }

    /// Resets data-cache statistics.
    pub fn reset_stats(&mut self) {
        self.dcache.reset_stats();
    }
}

impl Default for MemSystem {
    fn default() -> Self {
        Self::new(MemConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_roundtrip_with_latency() {
        let mut m = MemSystem::default();
        let c1 = m.store(100, 42);
        assert!(c1 > 1, "first store misses");
        let (v, c2) = m.load(100);
        assert_eq!(v, 42);
        assert_eq!(c2, 1, "second access hits");
    }

    #[test]
    fn runs_match_word_accesses() {
        let (mut runs, mut words) = (MemSystem::default(), MemSystem::default());
        let base = 0x1_0000 - 3; // crosses a page and several lines
        let values: Vec<Word> = (10..20).collect();
        let mut cycles = vec![0; values.len()];
        runs.store_run(base, &values, &mut cycles);
        let want: Vec<u32> = (0..10)
            .map(|i| words.store(base + i, values[i as usize]))
            .collect();
        assert_eq!(cycles, want);
        let mut out = vec![0; 10];
        runs.load_run(base, &mut out, &mut cycles);
        let want: Vec<(Word, u32)> = (0..10).map(|i| words.load(base + i)).collect();
        assert_eq!(out, want.iter().map(|w| w.0).collect::<Vec<_>>());
        assert_eq!(cycles, want.iter().map(|w| w.1).collect::<Vec<_>>());
        assert_eq!(runs.dcache_stats(), words.dcache_stats());
    }

    #[test]
    fn fetch_add_returns_old() {
        let mut m = MemSystem::default();
        m.poke(7, 10);
        let (old, _) = m.fetch_add(7, -3);
        assert_eq!(old, 10);
        assert_eq!(m.peek(7), 7);
    }

    #[test]
    fn poke_bypasses_cache_stats() {
        let mut m = MemSystem::default();
        m.poke_block(0, &[1, 2, 3]);
        assert_eq!(m.dcache_stats().accesses, 0);
        assert_eq!(m.peek(2), 3);
    }

    #[test]
    fn ctable_reachable() {
        let mut m = MemSystem::default();
        m.ctable_mut().map(1, 0x800);
        assert_eq!(m.ctable().lookup(1), Ok(0x800));
    }
}
