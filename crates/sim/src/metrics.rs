//! Measurement collection and the end-of-run report.

use nsf_core::{Occupancy, RegFileStats};
use nsf_isa::InstClass;
use nsf_mem::CacheStats;

/// Occupancy averages accumulated by periodic sampling (the paper samples
/// "active registers" and "resident contexts" over the whole run).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OccupancySummary {
    /// Number of samples taken.
    pub samples: u64,
    /// Sum of valid-register counts over samples.
    pub sum_valid_regs: u64,
    /// Sum of resident-context counts over samples.
    pub sum_contexts: u64,
    /// Maximum valid registers ever observed.
    pub max_valid_regs: u32,
    /// Maximum resident contexts ever observed.
    pub max_contexts: u32,
}

impl OccupancySummary {
    /// Records one sample.
    #[inline]
    pub fn record(&mut self, o: Occupancy) {
        self.samples += 1;
        self.sum_valid_regs += u64::from(o.valid_regs);
        self.sum_contexts += u64::from(o.resident_contexts);
        self.max_valid_regs = self.max_valid_regs.max(o.valid_regs);
        self.max_contexts = self.max_contexts.max(o.resident_contexts);
    }

    /// Mean valid registers.
    pub fn avg_valid_regs(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum_valid_regs as f64 / self.samples as f64
        }
    }

    /// Mean resident contexts.
    pub fn avg_contexts(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum_contexts as f64 / self.samples as f64
        }
    }
}

/// Everything measured over one program run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Which register file ran (human readable).
    pub regfile_desc: String,
    /// Register slots in the file.
    pub regfile_capacity: u32,
    /// Instructions executed.
    pub instructions: u64,
    /// Total cycles (busy + idle).
    pub cycles: u64,
    /// Cycles with no ready thread.
    pub idle_cycles: u64,
    /// Instruction counts per class.
    pub class_counts: [u64; 7],
    /// Times the running Context ID changed (calls, returns, thread
    /// switches) — the paper's "context switch".
    pub context_switches: u64,
    /// Thread-to-thread switches only.
    pub thread_switches: u64,
    /// Procedure calls executed.
    pub calls: u64,
    /// Procedure returns executed.
    pub returns: u64,
    /// Threads spawned.
    pub spawns: u64,
    /// Static program size (instructions).
    pub static_instructions: usize,
    /// Register file counters.
    pub regfile: RegFileStats,
    /// Data cache counters.
    pub dcache: CacheStats,
    /// Occupancy averages.
    pub occupancy: OccupancySummary,
    /// Instructions executed by each thread, indexed by thread id
    /// (thread 0 is the initial thread).
    pub thread_instructions: Vec<u64>,
    /// Instruction-cache counters, when an icache was configured.
    pub icache: Option<CacheStats>,
}

impl RunReport {
    /// Index of `class` in [`RunReport::class_counts`].
    pub fn class_index(class: InstClass) -> usize {
        match class {
            InstClass::Alu => 0,
            InstClass::Mem => 1,
            InstClass::RemoteMem => 2,
            InstClass::Control => 3,
            InstClass::Proc => 4,
            InstClass::Thread => 5,
            InstClass::Misc => 6,
        }
    }

    /// Instructions per context switch (Table 1, last column).
    pub fn instrs_per_switch(&self) -> f64 {
        if self.context_switches == 0 {
            self.instructions as f64
        } else {
            self.instructions as f64 / self.context_switches as f64
        }
    }

    /// Registers reloaded as a fraction of instructions (Figs. 10/12/13).
    pub fn reloads_per_instr(&self) -> f64 {
        self.regfile.reloads_per_instruction(self.instructions)
    }

    /// Live registers reloaded as a fraction of instructions.
    pub fn live_reloads_per_instr(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.regfile.live_regs_reloaded as f64 / self.instructions as f64
        }
    }

    /// Mean fraction of the file holding active data (Fig. 9).
    pub fn utilization(&self) -> f64 {
        if self.regfile_capacity == 0 {
            0.0
        } else {
            self.occupancy.avg_valid_regs() / f64::from(self.regfile_capacity)
        }
    }

    /// Peak fraction of the file holding active data (Fig. 9 "max").
    pub fn max_utilization(&self) -> f64 {
        if self.regfile_capacity == 0 {
            0.0
        } else {
            f64::from(self.occupancy.max_valid_regs) / f64::from(self.regfile_capacity)
        }
    }

    /// Spill/reload cycles as a fraction of execution time (Fig. 14).
    pub fn spill_overhead(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.regfile.spill_reload_cycles as f64 / self.cycles as f64
        }
    }

    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_averaging() {
        let mut s = OccupancySummary::default();
        s.record(Occupancy {
            valid_regs: 10,
            resident_contexts: 2,
        });
        s.record(Occupancy {
            valid_regs: 20,
            resident_contexts: 4,
        });
        assert_eq!(s.avg_valid_regs(), 15.0);
        assert_eq!(s.avg_contexts(), 3.0);
        assert_eq!(s.max_valid_regs, 20);
        assert_eq!(s.max_contexts, 4);
    }

    #[test]
    fn derived_rates() {
        let mut r = RunReport {
            instructions: 1000,
            cycles: 2000,
            context_switches: 50,
            regfile_capacity: 100,
            ..Default::default()
        };
        r.regfile.regs_reloaded = 10;
        r.regfile.spill_reload_cycles = 200;
        r.occupancy.record(Occupancy {
            valid_regs: 70,
            resident_contexts: 5,
        });
        assert_eq!(r.instrs_per_switch(), 20.0);
        assert_eq!(r.reloads_per_instr(), 0.01);
        assert_eq!(r.utilization(), 0.7);
        assert_eq!(r.spill_overhead(), 0.1);
        assert_eq!(r.cpi(), 2.0);
    }

    #[test]
    fn zero_denominators_are_safe() {
        let r = RunReport::default();
        assert_eq!(r.instrs_per_switch(), 0.0);
        assert_eq!(r.reloads_per_instr(), 0.0);
        assert_eq!(r.utilization(), 0.0);
        assert_eq!(r.spill_overhead(), 0.0);
        assert_eq!(r.cpi(), 0.0);
    }
}
