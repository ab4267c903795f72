//! Uniform statistics reported by every register file organization.
//!
//! The paper's evaluation (§7–§8) is phrased entirely in terms of these
//! counters: registers reloaded per instruction (Figs. 10, 12, 13), live
//! registers reloaded (Fig. 10), occupancy / active registers (Fig. 9),
//! resident contexts (Fig. 11), and spill/reload cycle overhead (Fig. 14).

/// Counters accumulated by a register file while a program runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegFileStats {
    /// Register read operations issued.
    pub reads: u64,
    /// Register write operations issued.
    pub writes: u64,
    /// Reads that found their register resident and valid.
    pub read_hits: u64,
    /// Reads that missed (register spilled or never loaded).
    pub read_misses: u64,
    /// Writes that hit a resident line.
    pub write_hits: u64,
    /// Writes that missed (allocated or fetched a line).
    pub write_misses: u64,
    /// Lines transferred from the backing store into the file.
    pub lines_reloaded: u64,
    /// Registers transferred from the backing store, counted per the active
    /// [`crate::ReloadPolicy`] (whole-line policies count empty slots too).
    pub regs_reloaded: u64,
    /// Of `regs_reloaded`, registers that actually held data — the paper's
    /// "live registers reloaded" curve.
    pub live_regs_reloaded: u64,
    /// Registers written back to the backing store on eviction.
    pub regs_spilled: u64,
    /// Of `regs_spilled`, registers whose writeback was prepaid by a
    /// background "dribble" engine during idle cycles (related work
    /// \[29\]): the traffic still happened, only the stall was hidden.
    pub regs_dribbled: u64,
    /// Context-switch notifications received.
    pub context_switches: u64,
    /// Switches that found the incoming context resident.
    pub switch_hits: u64,
    /// Total cycles spent moving registers (spill + reload), including
    /// spill-engine overhead — the numerator of Figure 14.
    pub spill_reload_cycles: u64,
    /// Cycles a multi-issue frontend stalled because the file ran out of
    /// read or write ports. Engines never touch this counter: the
    /// pipeline frontend (`nsf-sim`'s scoreboard) charges it and merges
    /// it into the run's stats, so it stays 0 under single-issue.
    pub port_conflict_cycles: u64,
}

impl RegFileStats {
    /// Registers reloaded per instruction executed (the paper's Figures
    /// 10, 12 and 13 y-axis), given the instruction count from the
    /// simulator.
    pub fn reloads_per_instruction(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.regs_reloaded as f64 / instructions as f64
        }
    }

    /// Read miss ratio in `[0, 1]`.
    pub fn read_miss_ratio(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.read_misses as f64 / self.reads as f64
        }
    }

    /// Checks the cross-counter invariants every organization must
    /// maintain, returning a description of the first violation. Used by
    /// the differential checker (`nsf-check`) and the fault-injection
    /// tests: a store fault may abort an operation mid-way, but it must
    /// never leave the counters contradicting each other.
    pub fn invariant_violation(&self) -> Option<String> {
        if self.read_hits + self.read_misses != self.reads {
            return Some(format!(
                "read_hits {} + read_misses {} != reads {}",
                self.read_hits, self.read_misses, self.reads
            ));
        }
        if self.write_hits + self.write_misses != self.writes {
            return Some(format!(
                "write_hits {} + write_misses {} != writes {}",
                self.write_hits, self.write_misses, self.writes
            ));
        }
        if self.live_regs_reloaded > self.regs_reloaded {
            return Some(format!(
                "live_regs_reloaded {} > regs_reloaded {}",
                self.live_regs_reloaded, self.regs_reloaded
            ));
        }
        if self.regs_dribbled > self.regs_spilled {
            return Some(format!(
                "regs_dribbled {} > regs_spilled {}",
                self.regs_dribbled, self.regs_spilled
            ));
        }
        if self.switch_hits > self.context_switches {
            return Some(format!(
                "switch_hits {} > context_switches {}",
                self.switch_hits, self.context_switches
            ));
        }
        None
    }

    /// Merges another stats block into this one (used when aggregating
    /// across benchmark runs).
    pub fn merge(&mut self, other: &RegFileStats) {
        for ((_, v), (_, o)) in self.fields_mut().into_iter().zip(other.fields()) {
            *v += o;
        }
    }
}

/// Defines [`RegFileStats::fields`] and [`RegFileStats::fields_mut`]
/// from one list of the counters. The destructuring patterns have no
/// `..`, so a counter added to the struct but not to the list is a
/// compile error.
macro_rules! counter_table {
    ($($name:ident),+ $(,)?) => {
        impl RegFileStats {
            /// Every counter with its field name, in declaration order:
            /// the one table that merging, the stream store's encoding,
            /// trace diffs and the checker's twin comparison walk.
            pub fn fields(&self) -> [(&'static str, u64); 15] {
                let RegFileStats { $($name),+ } = *self;
                [$((stringify!($name), $name)),+]
            }

            /// [`RegFileStats::fields`] with each counter writable, in
            /// the same order: its inverse.
            pub fn fields_mut(&mut self) -> [(&'static str, &mut u64); 15] {
                let RegFileStats { $($name),+ } = self;
                [$((stringify!($name), $name)),+]
            }
        }
    };
}

counter_table!(
    reads,
    writes,
    read_hits,
    read_misses,
    write_hits,
    write_misses,
    lines_reloaded,
    regs_reloaded,
    live_regs_reloaded,
    regs_spilled,
    regs_dribbled,
    context_switches,
    switch_hits,
    spill_reload_cycles,
    port_conflict_cycles,
);

/// A point-in-time occupancy snapshot, sampled by the simulator once per
/// instruction to produce the paper's utilization (Fig. 9) and resident
/// context (Fig. 11) averages.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Occupancy {
    /// Registers currently holding data ("active registers").
    pub valid_regs: u32,
    /// Distinct contexts with at least one resident register (NSF) or an
    /// assigned frame (segmented file).
    pub resident_contexts: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_denominators() {
        let s = RegFileStats::default();
        assert_eq!(s.reloads_per_instruction(0), 0.0);
        assert_eq!(s.read_miss_ratio(), 0.0);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = RegFileStats {
            reads: 1,
            regs_reloaded: 5,
            ..Default::default()
        };
        let b = RegFileStats {
            reads: 2,
            regs_reloaded: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.reads, 3);
        assert_eq!(a.regs_reloaded, 12);
    }

    #[test]
    fn counter_table_lists_every_field_in_declaration_order() {
        let mut s = RegFileStats::default();
        for (i, (_, v)) in s.fields_mut().into_iter().enumerate() {
            *v = i as u64 + 1;
        }
        assert_eq!((s.reads, s.port_conflict_cycles), (1, 15));
        // The derived Debug prints every field in declaration order.
        let listed: Vec<String> = s
            .fields()
            .iter()
            .map(|(n, v)| format!("{n}: {v}"))
            .collect();
        assert_eq!(
            format!("{s:?}"),
            format!("RegFileStats {{ {} }}", listed.join(", "))
        );
    }

    #[test]
    fn invariants_catch_counter_drift() {
        assert_eq!(RegFileStats::default().invariant_violation(), None);
        let ok = RegFileStats {
            reads: 3,
            read_hits: 2,
            read_misses: 1,
            writes: 1,
            write_hits: 1,
            regs_reloaded: 4,
            live_regs_reloaded: 4,
            regs_spilled: 2,
            regs_dribbled: 1,
            context_switches: 5,
            switch_hits: 5,
            ..Default::default()
        };
        assert_eq!(ok.invariant_violation(), None);
        let drifted = RegFileStats {
            reads: 3,
            read_hits: 1,
            read_misses: 1,
            ..Default::default()
        };
        assert!(drifted.invariant_violation().unwrap().contains("reads"));
        let dribble = RegFileStats {
            regs_dribbled: 2,
            regs_spilled: 1,
            ..Default::default()
        };
        assert!(dribble
            .invariant_violation()
            .unwrap()
            .contains("regs_dribbled"));
    }

    #[test]
    fn reloads_per_instruction_ratio() {
        let s = RegFileStats {
            regs_reloaded: 25,
            ..Default::default()
        };
        assert!((s.reloads_per_instruction(100) - 0.25).abs() < 1e-12);
    }
}
