//! Observing a run's frontend: the [`FrontendProbe`] hook on
//! [`Machine::run_probed`](crate::Machine::run_probed).
//!
//! Every figure in the paper sweeps *register file organizations* over a
//! fixed workload, so consecutive sweep points re-fetch, re-decode and
//! re-schedule an identical instruction stream and differ only in
//! register-file behaviour. A probe sees that shared part of a run as it
//! happens — every register-file operation with its architectural
//! result, every program memory access, and the frontend's cycle
//! charges — so one recorded run can drive a replay into any
//! frontend-equal configuration (the frontend event-stream cache in
//! `nsf-trace` is the intended consumer).
//!
//! ## Why a recording is organization-independent
//!
//! For the programs capture accepts (single-threaded, no channel,
//! remote or synchronization operations — see [`batchable_program`]) on
//! a single-issue frontend, the clock is *write-only* during execution:
//! scheduler decisions, branch outcomes and memory addresses depend only
//! on architectural register values, and a register file organization
//! may change only *when* a value arrives, never *what* it is. So every
//! value a probe sees is the same under every organization, and a
//! replay that regenerates the organization-specific stall and cache
//! cycles reproduces each live run's report exactly. Replay checks every
//! recorded value against what its own engine and memory produce, so the
//! claim is enforced, not assumed.

use nsf_core::LaneOp;
use nsf_isa::{Inst, Program};
use nsf_mem::{Addr, Word};

/// `true` when `program` contains none of the operations that block a
/// thread or touch scheduler-visible state beyond one thread: spawns,
/// yields, channels, remote memory and synchronizing loads. Only such
/// single-threaded streams can be captured and replayed — anything else
/// wakes the scheduler at clock-dependent times, and the clock depends
/// on the register file organization.
pub fn batchable_program(program: &Program) -> bool {
    use Inst::*;
    program.insts().iter().all(|i| {
        !matches!(
            i,
            Spawn { .. }
                | Yield
                | ChNew { .. }
                | ChSend { .. }
                | ChRecv { .. }
                | LwRemote { .. }
                | SwRemote { .. }
                | SyncWait { .. }
        )
    })
}

/// Observer of a [`Machine`](crate::Machine) run's frontend: every
/// architectural event the fetch/decode/schedule/memory frontend
/// produces, in execution order, plus the organization-independent
/// cycle charges.
///
/// Methods default to no-ops; [`NoProbe`] (the plain
/// [`Machine::run_and_keep`](crate::Machine::run_and_keep) path)
/// monomorphizes to nothing, so probing is free when unused.
pub trait FrontendProbe {
    /// One register-file operation completed; `value` is the
    /// architectural result — `Some` for reads, else `None`.
    fn reg_op(&mut self, op: LaneOp, value: Option<Word>) {
        let _ = (op, value);
    }
    /// The program loaded `value` from `addr`.
    fn mem_load(&mut self, addr: Addr, value: Word) {
        let _ = (addr, value);
    }
    /// The program stored `value` at `addr`.
    fn mem_store(&mut self, addr: Addr, value: Word) {
        let _ = (addr, value);
    }
    /// The program atomically added `delta` at `addr`; `old` is the
    /// value read back.
    fn mem_amo(&mut self, addr: Addr, delta: i32, old: Word) {
        let _ = (addr, delta, old);
    }
    /// The clock advanced by `cycles` of base, fetch-penalty,
    /// taken-branch or switch-overhead charge — the organization-
    /// independent part of the clock. Register-file stall and data-cache
    /// cycles are not reported; a replay regenerates them. A multi-issue
    /// frontend's base charges depend on port pressure and are not
    /// reported either.
    fn shared_charge(&mut self, cycles: u32) {
        let _ = cycles;
    }
    /// The occupancy sampling interval elapsed (the run recorded a
    /// sample at this point).
    fn occupancy_sample(&mut self) {}
    /// The clock reads `cycle` as a slice starts and after each
    /// instruction that does not end its slice: a stamp for the events
    /// that follow (the `.nsftrace` recorder's cycle field).
    fn clock(&mut self, cycle: u64) {
        let _ = cycle;
    }
}

/// The do-nothing probe behind [`Machine::run_and_keep`](crate::Machine::run_and_keep).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoProbe;

impl FrontendProbe for NoProbe {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RegFileSpec, SimConfig};
    use crate::machine::Machine;
    use nsf_isa::asm::assemble;

    /// A program exercising ALU ops, branches, memory, nested calls,
    /// register frees and an atomic — everything capturable.
    const DEEP: &str = "main:
            li r0, 0
            li r1, 12
            li r9, 4096
        loop:
            sw r0, -1(g0)
            call square
            lw r2, (r9)
            add r2, r2, g1
            sw r2, (r9)
            amoadd r3, 1(r9)
            addi r0, r0, 1
            rfree r3
            bne r0, r1, loop
            halt
        square:
            addi g0, g0, -1
            lw r0, (g0)
            call bias
            mul r1, r0, r0
            add g1, r1, g1
            addi g0, g0, 1
            ret
        bias:
            li r0, 3
            mv g1, r0
            ret";

    /// Counts what a probe is shown.
    #[derive(Default)]
    struct Tally {
        reads: u64,
        writes: u64,
        switches: u64,
        frees: u64,
        free_regs: u64,
        loads: u64,
        stores: u64,
        amos: u64,
        shared: u64,
        samples: u64,
        stamps: u64,
        last_stamp: u64,
    }

    impl FrontendProbe for Tally {
        fn reg_op(&mut self, op: LaneOp, value: Option<Word>) {
            assert_eq!(value.is_some(), matches!(op, LaneOp::Read(_)), "{op:?}");
            match op {
                LaneOp::Read(_) => self.reads += 1,
                LaneOp::Write(..) => self.writes += 1,
                LaneOp::SwitchTo(_) | LaneOp::CallPush(_) | LaneOp::ThreadSwitch(_) => {
                    self.switches += 1;
                }
                LaneOp::FreeContext(_) => self.frees += 1,
                LaneOp::FreeReg(_) => self.free_regs += 1,
            }
        }
        fn mem_load(&mut self, _: Addr, _: Word) {
            self.loads += 1;
        }
        fn mem_store(&mut self, _: Addr, _: Word) {
            self.stores += 1;
        }
        fn mem_amo(&mut self, _: Addr, _: i32, _: Word) {
            self.amos += 1;
        }
        fn shared_charge(&mut self, cycles: u32) {
            self.shared += u64::from(cycles);
        }
        fn occupancy_sample(&mut self) {
            self.samples += 1;
        }
        fn clock(&mut self, cycle: u64) {
            assert!(cycle >= self.last_stamp, "stamps never go back");
            self.stamps += 1;
            self.last_stamp = cycle;
        }
    }

    #[test]
    fn probing_is_observational_and_complete() {
        let program = assemble(DEEP).unwrap();
        let cfg = SimConfig {
            sample_interval: 7,
            ..SimConfig::with_regfile(RegFileSpec::paper_nsf(64))
        };
        let plain = Machine::new(program.clone(), cfg).unwrap().run().unwrap();
        let mut tally = Tally::default();
        let mut m = Machine::new(program, cfg).unwrap();
        let probed = m.run_probed(&mut tally).unwrap();
        assert_eq!(plain, probed, "a probe must never perturb the run");
        assert_eq!(tally.reads, probed.regfile.reads);
        assert_eq!(tally.writes, probed.regfile.writes);
        assert_eq!(tally.switches, probed.context_switches);
        assert_eq!(tally.frees, probed.returns + 1, "every context is freed");
        assert_eq!(tally.free_regs, 12, "one rfree per iteration");
        assert_eq!((tally.loads, tally.stores, tally.amos), (24, 24, 12));
        assert_eq!(tally.samples, probed.instructions / 7);
        assert_eq!(
            tally.stamps, probed.instructions,
            "one stamp per instruction"
        );
        assert!(tally.shared >= probed.instructions && tally.shared <= probed.cycles);
    }

    #[test]
    fn unbatchable_programs_are_recognized() {
        let p = assemble("main: li r0, 0\n spawn main, r0\n halt").unwrap();
        assert!(!batchable_program(&p));
        assert!(batchable_program(&assemble(DEEP).unwrap()));
    }
}
