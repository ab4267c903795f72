//! Set-associative data-cache timing model.
//!
//! The cache is a *timing* model: it tracks tags, valid/dirty bits and LRU
//! state, and reports how many cycles each access costs, but the data
//! itself lives in [`crate::MainMemory`]. On a uniprocessor this split is
//! exact — there is no observer that could see stale data — and it keeps
//! the functional simulator simple (the paper's own register-file simulator
//! made the same separation between traffic counting and data movement).

use crate::Addr;

/// Configuration of a [`Cache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in words.
    pub capacity_words: u32,
    /// Line length in words (power of two).
    pub line_words: u32,
    /// Associativity (ways per set); `1` = direct mapped.
    pub ways: u32,
    /// Latency of a hit, in cycles.
    pub hit_cycles: u32,
    /// Additional penalty of a miss (line fill from memory), in cycles.
    pub miss_penalty: u32,
}

impl CacheConfig {
    /// A cache typical of the Sparc-2-class machines the paper measured
    /// against: 64 KB, 16-byte (4-word) lines, direct... in fact
    /// 4-way for robustness, 1-cycle hits, 20-cycle miss penalty.
    pub fn sparc2_dcache() -> Self {
        CacheConfig {
            capacity_words: 16 * 1024,
            line_words: 4,
            ways: 4,
            hit_cycles: 1,
            miss_penalty: 20,
        }
    }

    fn sets(&self) -> u32 {
        (self.capacity_words / self.line_words / self.ways).max(1)
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::sparc2_dcache()
    }
}

/// Access statistics kept by a [`Cache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses (reads + writes).
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines written back to memory on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`; zero when no accesses were made.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

#[derive(Clone, Copy, Default)]
struct Way {
    tag: u32,
    valid: bool,
    dirty: bool,
    /// Monotone timestamp of last touch, for LRU.
    stamp: u64,
}

/// The cache proper. See the module docs for the functional/timing split.
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Way>, // sets() * ways entries, set-major
    // Geometry, precomputed at construction so `access` indexes with
    // shifts and masks only (line_words and the set count are asserted
    // powers of two, making these exact equivalents of the divisions).
    line_shift: u32,
    set_mask: u32,
    set_shift: u32,
    ways: usize,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if `line_words` or the derived set count is not a power of
    /// two, or if any parameter is zero — configuration bugs, not runtime
    /// conditions.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.line_words.is_power_of_two(),
            "line_words must be a power of two"
        );
        assert!(cfg.ways >= 1, "ways must be >= 1");
        assert!(
            cfg.sets().is_power_of_two(),
            "set count must be a power of two"
        );
        let entries = (cfg.sets() * cfg.ways) as usize;
        Cache {
            sets: vec![Way::default(); entries],
            line_shift: cfg.line_words.trailing_zeros(),
            set_mask: cfg.sets() - 1,
            set_shift: cfg.sets().trailing_zeros(),
            ways: cfg.ways as usize,
            cfg,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (but not cache contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Performs an access at `addr` and returns its latency in cycles.
    ///
    /// `write` selects a store; the policy is write-back, write-allocate,
    /// so stores miss and fill exactly like loads.
    #[inline]
    pub fn access(&mut self, addr: Addr, write: bool) -> u32 {
        self.access_way(addr, write).0
    }

    /// Performs `cycles.len()` accesses at consecutive addresses from
    /// `addr` (all loads or all stores) and writes each word's latency
    /// into `cycles`. The result is exactly that of calling
    /// [`access`](Self::access) once per word in ascending order — the
    /// clock, LRU stamps, dirty bits, statistics and every latency — but
    /// the tag check runs once per cache line: once a line's first word
    /// has been accessed the line is resident, so its remaining words are
    /// hits that only advance the clock and refresh the line's stamp.
    pub fn access_run(&mut self, addr: Addr, write: bool, cycles: &mut [u32]) {
        let line_words = self.cfg.line_words;
        let mut addr = addr;
        let mut rest = cycles;
        while let Some((first, tail)) = rest.split_first_mut() {
            let (cyc, way) = self.access_way(addr, write);
            *first = cyc;
            // Words after `addr` in the same line (a run may start
            // mid-line and end before the line does).
            let in_line = (line_words - 1 - (addr & (line_words - 1))) as usize;
            let (hits, tail) = tail.split_at_mut(in_line.min(tail.len()));
            if !hits.is_empty() {
                let n = hits.len() as u64;
                self.clock += n;
                self.stats.accesses += n;
                self.stats.hits += n;
                self.sets[way].stamp = self.clock;
                hits.fill(self.cfg.hit_cycles);
            }
            addr = addr.wrapping_add(1 + hits.len() as Addr);
            rest = tail;
        }
    }

    /// One access: its latency and the index in `sets` of the way that
    /// now holds the line.
    #[inline]
    fn access_way(&mut self, addr: Addr, write: bool) -> (u32, usize) {
        self.clock += 1;
        self.stats.accesses += 1;

        let line_addr = addr >> self.line_shift;
        let set = line_addr & self.set_mask;
        let tag = line_addr >> self.set_shift;
        let base = set as usize * self.ways;
        let ways = &mut self.sets[base..base + self.ways];

        // Hit?
        if let Some(i) = ways.iter().position(|w| w.valid && w.tag == tag) {
            let w = &mut ways[i];
            w.stamp = self.clock;
            w.dirty |= write;
            self.stats.hits += 1;
            return (self.cfg.hit_cycles, base + i);
        }

        // Miss: choose the LRU way (invalid ways first).
        self.stats.misses += 1;
        let (i, victim) = ways
            .iter_mut()
            .enumerate()
            .min_by_key(|(_, w)| if w.valid { w.stamp + 1 } else { 0 })
            .expect("ways >= 1");
        let mut cycles = self.cfg.hit_cycles + self.cfg.miss_penalty;
        if victim.valid && victim.dirty {
            self.stats.writebacks += 1;
            // Write-back costs another memory transaction.
            cycles += self.cfg.miss_penalty;
        }
        *victim = Way {
            tag,
            valid: true,
            dirty: write,
            stamp: self.clock,
        };
        (cycles, base + i)
    }

    /// Invalidates the whole cache (e.g. between experiment runs).
    pub fn flush(&mut self) {
        for w in &mut self.sets {
            *w = Way::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 16 words, 2-word lines, 2-way: 4 sets.
        Cache::new(CacheConfig {
            capacity_words: 16,
            line_words: 2,
            ways: 2,
            hit_cycles: 1,
            miss_penalty: 10,
        })
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny();
        assert_eq!(c.access(0, false), 11);
        assert_eq!(c.access(1, false), 1); // same line
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Three lines mapping to set 0 (line addrs 0, 4, 8 with 4 sets).
        c.access(0, false); // miss, way A
        c.access(8, false); // miss, way B
        c.access(0, false); // hit, refreshes line 0
        c.access(16, false); // miss, evicts line 8 (LRU)
        assert_eq!(c.access(0, false), 1, "line 0 must still be resident");
        assert_eq!(c.access(8, false), 11, "line 8 was evicted");
    }

    #[test]
    fn dirty_eviction_costs_writeback() {
        let mut c = tiny();
        c.access(0, true); // miss, dirty
        c.access(8, false); // miss, clean
        c.access(16, false); // miss, evicts LRU = line 0 (dirty) → writeback
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn writeback_penalty_charged() {
        let mut c = tiny();
        c.access(0, true);
        c.access(8, true);
        // Evicting a dirty line costs hit + 2 * miss_penalty.
        let cycles = c.access(16, false);
        assert_eq!(cycles, 21);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = tiny();
        c.access(0, false);
        c.flush();
        assert_eq!(c.access(0, false), 11);
    }

    #[test]
    fn miss_ratio() {
        let mut c = tiny();
        assert_eq!(c.stats().miss_ratio(), 0.0);
        c.access(0, false);
        c.access(0, false);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn access_run_counts_as_a_recent_use() {
        // A two-word run over line 0 leaves line 0 more recent than line
        // 8, so the next conflict evicts line 8, as two single accesses
        // would.
        let mut c = tiny();
        c.access(0, false);
        c.access(8, false);
        let mut cycles = [0; 2];
        c.access_run(0, true, &mut cycles);
        assert_eq!(cycles, [1, 1]);
        c.access(16, false);
        assert_eq!(c.access(0, false), 1, "line 0 was refreshed by the run");
        assert_eq!(c.stats().writebacks, 0, "line 8 was clean");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_config_panics() {
        Cache::new(CacheConfig {
            capacity_words: 16,
            line_words: 3,
            ways: 1,
            hit_cycles: 1,
            miss_penalty: 1,
        });
    }
}
