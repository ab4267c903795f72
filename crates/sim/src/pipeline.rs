//! The scoreboarded multi-issue frontend.
//!
//! The paper's evaluation is single-issue, so its register files never
//! face port pressure: a 3-ported file always has a port for the one
//! instruction in flight. This module adds the scenario ROADMAP item 4
//! calls for — an in-order frontend with a configurable issue width
//! ([`SimConfig::issue_width`](crate::SimConfig)), a register
//! scoreboard with result forwarding, and per-cycle arbitration of the
//! file's read/write ports — so organizations are measured in the
//! regime where read ports become the bottleneck.
//!
//! ## Timing overlay, not reordering
//!
//! Functional execution stays exactly the serial machine's: one
//! instruction at a time, in program order, against the same engines
//! and memory. The pipeline only replaces the *clock accounting* of the
//! base issue charge. Each instruction either
//!
//! * **co-issues** into the current cycle's group — free — when a slot
//!   is open, it is single-cycle, none of its sources were written by
//!   the group (results forward between *cycles*, not within one), and
//!   the group still has read/write ports for its register-file
//!   accesses; or
//! * **opens a new cycle**, paying its base cycles. If ports were the
//!   *only* reason it could not co-issue, that cycle is charged to
//!   [`nsf_core::RegFileStats::port_conflict_cycles`].
//!
//! Any cycles charged outside issue — engine reload/spill stalls,
//! cache latencies, taken branches, context switches, idle — break the
//! current group: the frontend cannot issue past a stall. The pipeline
//! detects these as clock movement between issues, so every stall site
//! flushes without being instrumented.
//!
//! ## The CAM decoder's ported-access penalty
//!
//! A single-issue base cycle hides the register file's access time.
//! In a multi-issue cycle the file really performs several ported
//! accesses back-to-back, so the *slower* CAM-decoded access of the
//! NSF stretches the cycle where an indexed decode would not. Each
//! co-issued register-file access therefore accrues the NSF's ported
//! access-time overhead from the calibrated `nsf-vlsi` timing model
//! ([`TimingModel::nsf_ported_overhead`]) as a fixed-point fraction of
//! a cycle; whole cycles are charged to the clock as they accumulate.
//! Indexed organizations (segmented, windowed, conventional) accrue
//! nothing — this is the first place the paper's Figure 6 latency gap
//! becomes visible in *cycles*, not just nanoseconds.
//!
//! Because the functional stream is width-invariant, co-issuing an
//! instruction always saves exactly one cycle and costs at most its
//! (clamped, sub-cycle) access penalty, so CPI is non-increasing in
//! issue width for every organization.

use crate::config::{RegFileSpec, SimConfig};
use nsf_isa::{Inst, Reg};
use nsf_vlsi::{Geometry, Ports, Tech, TimingModel};

/// Context-ID width assumed for the swept NSF decoders — the paper's
/// 64-context tag (6 bits), matching `nsf-explore`'s cost mapping.
const CID_BITS: u32 = 6;

/// Fixed-point scale for sub-cycle penalties: `1 << 32` = one cycle.
const FP_ONE: u64 = 1 << 32;

/// The registers one instruction touches: up to two sources and one
/// destination. Global (`Reg::G`) registers live in the scheduler, not
/// the register file, so they participate in hazard tracking but never
/// consume file ports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegUses {
    /// Source registers (read before execute).
    pub reads: [Option<Reg>; 2],
    /// Destination register (written by execute).
    pub write: Option<Reg>,
}

impl RegUses {
    /// Register-*file* port demand: `(read ports, write ports)` — `R`
    /// registers only.
    #[inline]
    pub fn port_demand(&self) -> (u32, u32) {
        let reads = self
            .reads
            .iter()
            .filter(|r| matches!(r, Some(Reg::R(_))))
            .count() as u32;
        let writes = u32::from(matches!(self.write, Some(Reg::R(_))));
        (reads, writes)
    }
}

/// The architectural registers instruction `inst` reads and writes, as
/// decoded by the serial machine's execute loop: [`Inst::reads`] and
/// [`Inst::writes`], with two exceptions. `rfree` counts as a write (it
/// mutates file state through a write port); remote loads count only
/// their address read (the value arrives via the pending-write path
/// after the thread blocks).
pub fn reg_uses(inst: &Inst) -> RegUses {
    let write = match *inst {
        Inst::RFree { reg } => Some(reg),
        Inst::LwRemote { .. } => None,
        _ => inst.writes(),
    };
    RegUses {
        reads: inst.reads(),
        write,
    }
}

/// Registers written by the current issue group: a 256-bit set over `R`
/// offsets plus a 64-bit set over `G` indices. Context IDs are ignored
/// — co-issue never spans a context switch (switches charge cycles,
/// which flush the group).
#[derive(Clone, Copy, Debug, Default)]
struct WriteSet {
    r: [u64; 4],
    g: u64,
}

impl WriteSet {
    #[inline]
    fn clear(&mut self) {
        *self = WriteSet::default();
    }

    #[inline]
    fn insert(&mut self, reg: Reg) {
        match reg {
            Reg::R(off) => self.r[usize::from(off >> 6)] |= 1 << (off & 63),
            Reg::G(i) => self.g |= 1 << (i & 63),
        }
    }

    #[inline]
    fn contains(&self, reg: Reg) -> bool {
        match reg {
            Reg::R(off) => self.r[usize::from(off >> 6)] & (1 << (off & 63)) != 0,
            Reg::G(i) => self.g & (1 << (i & 63)) != 0,
        }
    }

    /// RAW or WAW between `uses` and this group's writes. (Forwarding
    /// covers *prior* cycles; same-cycle producers cannot feed
    /// consumers, and two same-cycle writers would race.)
    #[inline]
    fn hazard(&self, uses: &RegUses) -> bool {
        uses.reads.iter().flatten().any(|&reg| self.contains(reg))
            || uses.write.is_some_and(|reg| self.contains(reg))
    }
}

/// The per-ported-access penalty (fraction of a cycle, fixed-point) a
/// CAM-decoded organization pays in multi-access cycles, from the
/// calibrated `nsf-vlsi` ported timing model. Indexed decoders pay
/// nothing. Clamped to a quarter cycle so one instruction's accesses
/// (at most three) can never cost more than the cycle co-issuing saves.
fn cam_penalty_fp(spec: &RegFileSpec, read_ports: u32, write_ports: u32) -> u64 {
    let RegFileSpec::Nsf(cfg) = spec else {
        return 0;
    };
    let line = u32::from(cfg.regs_per_line).max(1);
    // Round both capacities up to whole lines: swept configs need not
    // divide evenly, and the penalty is a smooth function of rows.
    let total = cfg.total_regs.max(1).div_ceil(line) * line;
    let ctx = u32::from(cfg.ctx_regs).max(1).div_ceil(line) * line;
    let geom = Geometry::associative(total, line, ctx, CID_BITS);
    let ports = Ports {
        reads: read_ports,
        writes: write_ports,
    };
    let overhead = TimingModel::new(Tech::cmos_1p2um())
        .nsf_ported_overhead(geom, ports)
        .clamp(0.0, 0.25);
    (overhead * FP_ONE as f64) as u64
}

/// Issue-group state of the scoreboarded frontend. Owned by the
/// [`Machine`](crate::Machine) only when `issue_width > 1`; the
/// single-issue clock path never constructs one.
#[derive(Debug)]
pub struct Pipeline {
    width: u32,
    read_ports: u32,
    write_ports: u32,
    /// Instructions issued into the current cycle (`0` = no open group).
    slots: u32,
    reads_used: u32,
    writes_used: u32,
    writes: WriteSet,
    /// Clock value immediately after our last issue charge; any drift
    /// means stall/latency cycles elapsed and the group must flush.
    expected_clock: u64,
    /// Per-ported-access CAM penalty (fixed point; 0 for indexed files).
    penalty_fp: u64,
    /// Accrued sub-cycle CAM penalty.
    acc_fp: u64,
    /// Cycles charged because an instruction could not get a file port.
    pub port_conflict_cycles: u64,
    /// Whole cycles charged for CAM ported-access overhead.
    pub cam_penalty_cycles: u64,
}

impl Pipeline {
    /// Builds the frontend for `cfg` (`cfg.issue_width` must be > 1;
    /// the caller keeps width 1 on the legacy path).
    pub fn new(cfg: &SimConfig) -> Self {
        Pipeline {
            width: cfg.issue_width,
            read_ports: cfg.read_ports,
            write_ports: cfg.write_ports,
            slots: 0,
            reads_used: 0,
            writes_used: 0,
            writes: WriteSet::default(),
            expected_clock: 0,
            penalty_fp: cam_penalty_fp(&cfg.regfile, cfg.read_ports, cfg.write_ports),
            acc_fp: 0,
            port_conflict_cycles: 0,
            cam_penalty_cycles: 0,
        }
    }

    /// Closes the current group: the next instruction opens a new cycle.
    #[inline]
    fn close(&mut self) {
        self.slots = 0;
        self.reads_used = 0;
        self.writes_used = 0;
        self.writes.clear();
    }

    /// Accounts one instruction's issue, advancing `clock` by the cycles
    /// it costs (0 when it co-issues). `uses` is the instruction's
    /// [`reg_uses`], which the machine predecodes once per program.
    /// Replaces the serial machine's `clock += base_cycles` charge;
    /// everything downstream of issue (engine stalls, memory latency,
    /// branch/switch penalties) still charges the clock directly and
    /// flushes the group via `expected_clock` drift.
    #[inline]
    pub fn issue(&mut self, uses: &RegUses, base: u32, clock: &mut u64) {
        if *clock != self.expected_clock {
            // Stall or latency cycles elapsed since the last issue: the
            // frontend drained; start a fresh group.
            self.close();
        }
        let (nreads, nwrites) = uses.port_demand();
        let single_cycle = base == 1;
        let fits_slots = self.slots < self.width;
        let fits_ports = self.reads_used + nreads <= self.read_ports
            && self.writes_used + nwrites <= self.write_ports;
        let hazard = self.writes.hazard(uses);

        if self.slots > 0 && fits_slots && single_cycle && !hazard && fits_ports {
            // Co-issue: a free slot this cycle. Its ported accesses run
            // alongside the group's — a CAM decode stretches the cycle.
            self.slots += 1;
            self.reads_used += nreads;
            self.writes_used += nwrites;
            if let Some(w) = uses.write {
                self.writes.insert(w);
            }
            self.charge_cam_penalty(nreads + nwrites, clock);
        } else {
            if self.slots > 0 && fits_slots && single_cycle && !hazard {
                // A slot was open and no hazard blocked it: the file's
                // port count alone forced the new cycle.
                self.port_conflict_cycles += 1;
            }
            *clock += u64::from(base);
            // An instruction demanding more ports than the file has
            // serializes its own accesses over extra cycles.
            let shortfall = Self::serialize_cycles(nreads, self.read_ports)
                .max(Self::serialize_cycles(nwrites, self.write_ports));
            if shortfall > 0 {
                *clock += u64::from(shortfall);
                self.port_conflict_cycles += u64::from(shortfall);
            }
            self.slots = 1;
            self.reads_used = nreads.min(self.read_ports);
            self.writes_used = nwrites.min(self.write_ports);
            self.writes.clear();
            if let Some(w) = uses.write {
                self.writes.insert(w);
            }
            if !single_cycle {
                // Multi-cycle classes own their cycles; nothing rides.
                self.close();
            }
        }
        self.expected_clock = *clock;
    }

    /// Extra cycles needed to push `demand` accesses through `ports`
    /// ports (0 when they fit in one cycle).
    #[inline]
    fn serialize_cycles(demand: u32, ports: u32) -> u32 {
        if demand <= ports {
            0
        } else {
            demand.div_ceil(ports.max(1)) - 1
        }
    }

    /// Accrues the CAM ported-access penalty for `accesses` file
    /// accesses in a shared (multi-access) cycle, charging whole cycles
    /// as they accumulate. The stretch breaks the group.
    #[inline]
    fn charge_cam_penalty(&mut self, accesses: u32, clock: &mut u64) {
        if self.penalty_fp == 0 || accesses == 0 {
            return;
        }
        self.acc_fp += u64::from(accesses) * self.penalty_fp;
        let whole = self.acc_fp >> 32;
        if whole > 0 {
            self.acc_fp &= FP_ONE - 1;
            *clock += whole;
            self.cam_penalty_cycles += whole;
            self.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsf_core::NsfConfig;

    fn wide(width: u32, reads: u32, writes: u32) -> Pipeline {
        let cfg = SimConfig {
            issue_width: width,
            read_ports: reads,
            write_ports: writes,
            regfile: RegFileSpec::paper_segmented(4, 32), // no CAM penalty
            ..SimConfig::default()
        };
        Pipeline::new(&cfg)
    }

    fn r(off: u8) -> Reg {
        Reg::R(off)
    }

    #[test]
    fn reg_uses_match_the_execute_loop() {
        let add = Inst::Add {
            rd: r(2),
            rs1: r(0),
            rs2: r(1),
        };
        assert_eq!(reg_uses(&add).port_demand(), (2, 1));
        let sw = Inst::Sw {
            base: r(3),
            src: r(4),
            imm: 0,
        };
        assert_eq!(reg_uses(&sw).port_demand(), (2, 0));
        let li = Inst::Li { rd: r(5), imm: 1 };
        assert_eq!(reg_uses(&li).port_demand(), (0, 1));
        // Globals never demand file ports but do carry hazards.
        let gadd = Inst::Add {
            rd: Reg::G(1),
            rs1: Reg::G(2),
            rs2: r(0),
        };
        assert_eq!(reg_uses(&gadd).port_demand(), (1, 0));
        assert_eq!(reg_uses(&Inst::Halt), RegUses::default());
    }

    #[test]
    fn reg_uses_are_the_operand_table_but_for_two_exceptions() {
        // Every opcode decodes to one variant, and encoding gives every
        // variant an opcode: this walks each `Inst` variant once.
        let word = |op: u32| op << 26 | 1 << 20 | 2 << 14 | 3 << 8;
        let insts: Vec<Inst> = (0..64)
            .filter_map(|op| nsf_isa::encode::decode(word(op)).ok())
            .collect();
        assert_eq!(insts.len(), 45, "one instance per variant");
        for inst in &insts {
            let uses = reg_uses(inst);
            assert_eq!(uses.reads, inst.reads(), "{inst}");
            match *inst {
                // The loaded value arrives after the thread blocks.
                Inst::LwRemote { rd, .. } => {
                    assert_eq!((inst.writes(), uses.write), (Some(rd), None))
                }
                // A deallocation hint takes a write port.
                Inst::RFree { reg } => assert_eq!((inst.writes(), uses.write), (None, Some(reg))),
                _ => assert_eq!(uses.write, inst.writes(), "{inst}"),
            }
        }
    }

    #[test]
    fn independent_ops_co_issue_for_free() {
        let mut p = wide(2, 4, 2);
        let mut clock = 0;
        let a = Inst::Add {
            rd: r(2),
            rs1: r(0),
            rs2: r(1),
        };
        let b = Inst::Add {
            rd: r(5),
            rs1: r(3),
            rs2: r(4),
        };
        p.issue(&reg_uses(&a), 1, &mut clock);
        assert_eq!(clock, 1, "group opener pays its base cycle");
        p.issue(&reg_uses(&b), 1, &mut clock);
        assert_eq!(clock, 1, "independent op co-issues for free");
        assert_eq!(p.port_conflict_cycles, 0);
    }

    #[test]
    fn raw_hazard_blocks_co_issue_without_blaming_ports() {
        let mut p = wide(2, 8, 4);
        let mut clock = 0;
        let a = Inst::Add {
            rd: r(2),
            rs1: r(0),
            rs2: r(1),
        };
        let b = Inst::Add {
            rd: r(3),
            rs1: r(2), // reads a's result: same-cycle RAW
            rs2: r(1),
        };
        p.issue(&reg_uses(&a), 1, &mut clock);
        p.issue(&reg_uses(&b), 1, &mut clock);
        assert_eq!(clock, 2, "dependent op waits a cycle for forwarding");
        assert_eq!(p.port_conflict_cycles, 0, "hazard, not a port conflict");
    }

    #[test]
    fn port_exhaustion_is_charged_to_the_conflict_counter() {
        let mut p = wide(2, 2, 1);
        let mut clock = 0;
        let a = Inst::Add {
            rd: r(2),
            rs1: r(0),
            rs2: r(1),
        };
        let b = Inst::Add {
            rd: r(5),
            rs1: r(3),
            rs2: r(4),
        };
        p.issue(&reg_uses(&a), 1, &mut clock); // uses both read ports
        p.issue(&reg_uses(&b), 1, &mut clock); // independent, but no ports left
        assert_eq!(clock, 2);
        assert_eq!(p.port_conflict_cycles, 1);
    }

    #[test]
    fn width_limits_the_group_without_blaming_ports() {
        let mut p = wide(2, 16, 8);
        let mut clock = 0;
        let li = |rd| Inst::Li { rd: r(rd), imm: 0 };
        p.issue(&reg_uses(&li(0)), 1, &mut clock);
        p.issue(&reg_uses(&li(1)), 1, &mut clock);
        p.issue(&reg_uses(&li(2)), 1, &mut clock); // third of a 2-wide group
        assert_eq!(clock, 2);
        assert_eq!(p.port_conflict_cycles, 0);
    }

    #[test]
    fn external_stall_cycles_flush_the_group() {
        let mut p = wide(4, 16, 8);
        let mut clock = 0;
        let li = |rd| Inst::Li { rd: r(rd), imm: 0 };
        p.issue(&reg_uses(&li(0)), 1, &mut clock);
        clock += 7; // engine stall / memory latency outside issue
        p.issue(&reg_uses(&li(1)), 1, &mut clock);
        assert_eq!(clock, 9, "post-stall instruction opens a new cycle");
    }

    #[test]
    fn multi_cycle_classes_own_their_cycles() {
        let mut p = wide(4, 16, 8);
        let mut clock = 0;
        p.issue(&reg_uses(&Inst::Call { target: 0 }), 2, &mut clock);
        assert_eq!(clock, 2);
        let li = Inst::Li { rd: r(0), imm: 0 };
        p.issue(&reg_uses(&li), 1, &mut clock);
        assert_eq!(clock, 3, "nothing co-issues with a multi-cycle op");
    }

    #[test]
    fn single_instruction_port_shortfall_serializes() {
        let mut p = wide(2, 1, 1);
        let mut clock = 0;
        let a = Inst::Add {
            rd: r(2),
            rs1: r(0),
            rs2: r(1), // 2 reads through a 1-read-port file
        };
        p.issue(&reg_uses(&a), 1, &mut clock);
        assert_eq!(clock, 2, "second read port cycle");
        assert_eq!(p.port_conflict_cycles, 1);
    }

    #[test]
    fn nsf_accrues_cam_penalty_only_when_co_issuing() {
        let cfg = SimConfig {
            issue_width: 4,
            read_ports: 8,
            write_ports: 4,
            regfile: RegFileSpec::Nsf(NsfConfig::paper_default(128)),
            ..SimConfig::default()
        };
        let mut p = Pipeline::new(&cfg);
        assert!(p.penalty_fp > 0, "NSF has a ported-access penalty");
        assert!(
            p.penalty_fp <= FP_ONE / 4,
            "penalty clamped below a quarter cycle"
        );
        let mut clock = 0;
        let li = |rd| Inst::Li { rd: r(rd), imm: 0 };
        // Enough co-issued accesses to roll over a whole cycle.
        let mut issued = 0u64;
        while p.cam_penalty_cycles == 0 && issued < 1000 {
            p.issue(&reg_uses(&li((issued % 200) as u8)), 1, &mut clock);
            issued += 1;
        }
        assert!(p.cam_penalty_cycles > 0, "accrual reaches whole cycles");
        assert!(
            clock < issued,
            "co-issue savings dominate the CAM penalty ({clock} vs {issued})"
        );
    }

    #[test]
    fn indexed_files_pay_no_cam_penalty() {
        for spec in [
            RegFileSpec::paper_segmented(4, 32),
            RegFileSpec::sparc_windows(16),
            RegFileSpec::Oracle,
        ] {
            assert_eq!(cam_penalty_fp(&spec, 2, 1), 0, "{spec:?}");
        }
    }

    #[test]
    fn cam_penalty_handles_undivisible_sweep_configs() {
        let mut cfg = NsfConfig::paper_default(80);
        cfg.regs_per_line = 3; // 80 % 3 != 0: must not panic
        let fp = cam_penalty_fp(&RegFileSpec::Nsf(cfg), 2, 1);
        assert!(fp > 0);
    }
}
