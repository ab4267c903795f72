//! The processor model: fetch/execute over a register file organization,
//! the memory hierarchy and the thread scheduler.

use crate::backing::{BackingMap, CtableBacking};
use crate::config::{CycleTable, SimConfig};
use crate::metrics::RunReport;
use crate::pipeline::{reg_uses, Pipeline, RegUses};
use crate::probe::{FrontendProbe, NoProbe};
use crate::trace::{TraceBuffer, TraceEntry};
use nsf_core::{Cid, EngineDispatch, LaneOp, RegAddr, RegFileError, RegisterFile};
use nsf_isa::{Inst, InstClass, Program, Reg, NUM_GLOBAL_REGS};
use nsf_mem::{Cache, MemSystem, Word};
use nsf_runtime::{BlockReason, SchedDecision, Scheduler, SchedulerError, ThreadId};
use std::fmt;

/// Simulation failure.
#[derive(Debug)]
pub enum SimError {
    /// A register file operation failed (read-before-write, bad offset,
    /// backing fault).
    RegFile {
        /// The failing operation's program counter.
        pc: u32,
        /// The underlying error.
        source: RegFileError,
    },
    /// Scheduler resource exhaustion.
    Sched(SchedulerError),
    /// Program counter left the program.
    PcOutOfRange {
        /// The bad program counter.
        pc: u32,
    },
    /// All remaining threads are blocked with nothing in flight.
    Deadlock {
        /// Cycle at which the deadlock was detected.
        cycle: u64,
    },
    /// An operation named an unallocated channel.
    BadChannel {
        /// The invalid channel id.
        id: u32,
    },
    /// The configured instruction budget was exceeded.
    MaxInstructions {
        /// The configured limit.
        limit: u64,
    },
    /// The configuration is internally inconsistent.
    BadConfig(String),
    /// A replayed lane observed a different architectural value than
    /// the live run it replays recorded (frontend-stream replay in
    /// `nsf-trace`). Register-file organizations may only change
    /// *timing*; a value divergence is a simulator or engine bug and
    /// must never be reported as a data point.
    LaneDivergence {
        /// Where the divergence happened (the replayed event's index).
        pc: u32,
        /// Index of the lane that diverged.
        lane: usize,
        /// Human-readable description of the disagreement.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::RegFile { pc, source } => {
                write!(f, "register file error at pc {pc}: {source}")
            }
            SimError::Sched(e) => write!(f, "scheduler error: {e}"),
            SimError::PcOutOfRange { pc } => write!(f, "pc {pc} outside program"),
            SimError::Deadlock { cycle } => write!(f, "deadlock at cycle {cycle}"),
            SimError::BadChannel { id } => write!(f, "invalid channel {id}"),
            SimError::MaxInstructions { limit } => {
                write!(f, "instruction budget of {limit} exceeded")
            }
            SimError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            SimError::LaneDivergence { pc, lane, detail } => {
                write!(f, "lane {lane} diverged at event {pc}: {detail}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::RegFile { source, .. } => Some(source),
            SimError::Sched(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SchedulerError> for SimError {
    fn from(e: SchedulerError) -> Self {
        SimError::Sched(e)
    }
}

/// Notional virtual base of the program image (icache address space).
const ICACHE_BASE: u32 = 0x7000_0000;

enum Status {
    /// Keep issuing from the same thread.
    Continue,
    /// The thread blocked, yielded or finished; back to the scheduler.
    Suspended,
}

/// One instruction, predecoded once per program by [`Machine::new`]:
/// everything the per-instruction path needs besides operand values.
#[derive(Clone, Copy, Debug)]
struct Decoded {
    inst: Inst,
    /// Index into [`RunReport::class_counts`].
    class: u8,
    /// Base issue cycles of the instruction's class.
    base: u32,
    /// Registers read and written (the multi-issue scoreboard's input).
    uses: RegUses,
}

impl Decoded {
    fn new(inst: Inst, cycles: &CycleTable) -> Self {
        let class = inst.class();
        let base = match class {
            InstClass::Alu => cycles.alu,
            InstClass::Mem | InstClass::RemoteMem => cycles.mem_base,
            InstClass::Control => cycles.control,
            InstClass::Proc => cycles.proc_op,
            InstClass::Thread => cycles.thread_op,
            InstClass::Misc => cycles.misc,
        };
        Decoded {
            inst,
            class: RunReport::class_index(class) as u8,
            base,
            uses: reg_uses(&inst),
        }
    }
}

/// The running thread's per-instruction state, hoisted out of the
/// scheduler while the thread runs: [`Machine::resume`] loads it and
/// [`Machine::park`] writes it back when the thread stops issuing.
#[derive(Clone, Copy, Debug, Default)]
struct Running {
    tid: ThreadId,
    pc: u32,
    cid: Cid,
    globals: [Word; NUM_GLOBAL_REGS as usize],
    instructions: u64,
}

/// The machine: program + memory + register file + threads.
///
/// # Examples
///
/// ```
/// use nsf_isa::asm::assemble;
/// use nsf_sim::{Machine, SimConfig};
///
/// let program = assemble(
///     "main: li r0, 6
///            li r1, 7
///            mul r2, r0, r1
///            li r3, 4096
///            sw r2, (r3)
///            halt",
/// )
/// .unwrap();
/// let mut machine = Machine::new(program, SimConfig::default())?;
/// let report = machine.run_and_keep()?;
/// assert_eq!(machine.mem.peek(4096), 42);
/// assert_eq!(report.instructions, 6);
/// # Ok::<(), nsf_sim::SimError>(())
/// ```
pub struct Machine {
    cfg: SimConfig,
    /// The program, predecoded: one entry per pc.
    code: Box<[Decoded]>,
    /// The memory system (public so harnesses can stage inputs with
    /// `poke`/`peek` and read results back).
    pub mem: MemSystem,
    /// The register file. A run dispatches on its family once and then
    /// drives the concrete engine (see [`Machine::run_probed`]).
    regfile: EngineDispatch,
    sched: Scheduler,
    backing: BackingMap,
    clock: u64,
    report: RunReport,
    last_thread: Option<ThreadId>,
    active_cid: Option<Cid>,
    /// The running thread's hoisted state (meaningful only inside a
    /// slice).
    running: Running,
    /// Instructions left until the next occupancy sample; `0` when
    /// sampling is disabled (`sample_interval == 0`).
    sample_countdown: u64,
    trace: TraceBuffer,
    icache: Option<Cache>,
    /// The scoreboarded multi-issue frontend; `None` at `issue_width
    /// == 1`, where the clock path is bit-identical to the pre-pipeline
    /// machine.
    pipeline: Option<Pipeline>,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("clock", &self.clock)
            .field("instructions", &self.report.instructions)
            .field("regfile", &self.regfile.describe())
            .field("active_cid", &self.active_cid)
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Builds a machine and spawns the initial thread at the program's
    /// entry point with `g1 = 0`.
    pub fn new(program: Program, cfg: SimConfig) -> Result<Self, SimError> {
        if (cfg.sched.cid_capacity as usize) > cfg.mem.ctable_slots {
            return Err(SimError::BadConfig(format!(
                "cid_capacity {} exceeds ctable_slots {}: contexts could not \
                 be mapped to backing store",
                cfg.sched.cid_capacity, cfg.mem.ctable_slots
            )));
        }
        let regfile = cfg.regfile.build()?;
        if cfg.issue_width == 0 {
            return Err(SimError::BadConfig(
                "issue_width 0: the frontend must issue something".into(),
            ));
        }
        if cfg.issue_width > 1 && (cfg.read_ports == 0 || cfg.write_ports == 0) {
            return Err(SimError::BadConfig(format!(
                "a multi-issue frontend needs at least one read and one \
                 write port (got {}R/{}W)",
                cfg.read_ports, cfg.write_ports
            )));
        }
        let mut m = Machine {
            code: program
                .insts()
                .iter()
                .map(|&inst| Decoded::new(inst, &cfg.cycles))
                .collect(),
            mem: MemSystem::new(cfg.mem),
            regfile,
            sched: Scheduler::new(cfg.sched),
            backing: BackingMap::new(),
            clock: 0,
            report: RunReport::default(),
            last_thread: None,
            active_cid: None,
            running: Running::default(),
            sample_countdown: cfg.sample_interval,
            trace: TraceBuffer::new(cfg.trace_depth),
            icache: cfg.icache.map(Cache::new),
            pipeline: (cfg.issue_width > 1).then(|| Pipeline::new(&cfg)),
            cfg,
        };
        m.sched.spawn(program.entry(), 0)?;
        Ok(m)
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Current cycle count.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The post-mortem execution trace (empty unless
    /// `SimConfig::trace_depth > 0`).
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// Runs to completion and returns the measurement report.
    pub fn run(mut self) -> Result<RunReport, SimError> {
        self.run_and_keep()
    }

    /// Runs to completion but keeps the machine alive, so callers can
    /// inspect memory (`self.mem.peek(..)`) after the program finishes.
    pub fn run_and_keep(&mut self) -> Result<RunReport, SimError> {
        self.run_probed(&mut NoProbe)
    }

    /// [`Machine::run_and_keep`] with a [`FrontendProbe`] observing the
    /// frontend: every register-file operation, program memory access,
    /// organization-independent cycle charge, occupancy sample and clock
    /// stamp, in execution order. Probing never perturbs the run: the
    /// report (and memory) are identical to an unprobed run's.
    ///
    /// The run dispatches on the engine family once: the loop is
    /// monomorphized per concrete engine, so the register-file hit paths
    /// inline into it. The engine is moved out of `self` for the run and
    /// put back after it.
    pub fn run_probed<P: FrontendProbe>(&mut self, probe: &mut P) -> Result<RunReport, SimError> {
        let mut regfile = std::mem::replace(&mut self.regfile, placeholder_engine());
        let result = match &mut regfile {
            EngineDispatch::Nsf(rf) => self.run_on(rf, probe),
            EngineDispatch::Segmented(rf) => self.run_on(rf, probe),
            EngineDispatch::Windowed(rf) => self.run_on(rf, probe),
            EngineDispatch::Oracle(rf) => self.run_on(rf, probe),
        };
        self.regfile = regfile;
        result?;
        self.finish_report();
        Ok(self.report.clone())
    }

    /// The scheduler loop over engine `rf`.
    fn run_on<E: RegisterFile, P: FrontendProbe>(
        &mut self,
        rf: &mut E,
        probe: &mut P,
    ) -> Result<(), SimError> {
        loop {
            let decision = {
                let (sched, mem) = (&mut self.sched, &self.mem);
                sched.next(self.clock, |addr| mem.peek(addr) == 0)
            };
            match decision {
                SchedDecision::Run(tid) => {
                    if self.last_thread != Some(tid) {
                        if self.last_thread.is_some() {
                            self.report.thread_switches += 1;
                            self.charge(self.cfg.cycles.switch_overhead, probe);
                        }
                        self.last_thread = Some(tid);
                    }
                    self.resume(tid);
                    let slice = self
                        .switch_context(rf, self.running.cid, LaneOp::ThreadSwitch, probe)
                        .and_then(|()| self.run_slice(rf, probe));
                    self.park();
                    slice?;
                }
                SchedDecision::AdvanceTo(t) => {
                    self.report.idle_cycles += t - self.clock;
                    self.clock = t;
                }
                SchedDecision::AllDone => return Ok(()),
                SchedDecision::Deadlock => return Err(SimError::Deadlock { cycle: self.clock }),
            }
        }
    }

    fn finish_report(&mut self) {
        self.report.cycles = self.clock;
        self.report.regfile = *self.regfile.stats();
        if let Some(p) = &self.pipeline {
            // Engines never see port arbitration; the frontend owns the
            // counter and folds it into the run's register-file stats.
            self.report.regfile.port_conflict_cycles = p.port_conflict_cycles;
        }
        self.report.regfile_desc = self.regfile.describe();
        self.report.regfile_capacity = self.regfile.capacity();
        self.report.dcache = self.mem.dcache_stats();
        self.report.static_instructions = self.code.len();
        self.report.thread_instructions = self
            .sched
            .threads()
            .iter()
            .map(|t| t.instructions)
            .collect();
        self.report.icache = self.icache.as_ref().map(|c| c.stats());
    }

    // The non-generic helpers below are `#[inline]`: `run_probed` is
    // generic, so it is compiled in the caller's crate, which cannot
    // inline unmarked functions from this one.

    /// Loads thread `tid`'s per-instruction state out of the scheduler.
    #[inline]
    fn resume(&mut self, tid: ThreadId) {
        let t = self.sched.thread(tid);
        self.running = Running {
            tid,
            pc: t.pc,
            cid: t.cid,
            globals: t.globals,
            instructions: t.instructions,
        };
    }

    /// Writes the running thread's hoisted state back to the scheduler.
    #[inline]
    fn park(&mut self) {
        let r = self.running;
        let t = self.sched.thread_mut(r.tid);
        t.pc = r.pc;
        t.cid = r.cid;
        t.globals = r.globals;
        t.instructions = r.instructions;
    }

    /// Advances the clock by an organization-independent charge (base,
    /// fetch penalty, taken branch, thread-switch overhead).
    #[inline]
    fn charge<P: FrontendProbe>(&mut self, cycles: u32, probe: &mut P) {
        self.clock += u64::from(cycles);
        probe.shared_charge(cycles);
    }

    /// The register backing store over this machine's memory.
    #[inline(always)]
    fn store(&mut self) -> CtableBacking<'_> {
        CtableBacking {
            mem: &mut self.mem,
            map: &mut self.backing,
            base: self.cfg.backing_base,
        }
    }

    /// Applies a context operation (switch, call-push, thread switch,
    /// free) or a register free to the register file through the one
    /// Ctable lifecycle ([`CtableBacking::context_op`]), charging its
    /// stall cycles. Register reads and writes go through
    /// [`Machine::read_reg`] and [`Machine::write_reg`].
    fn context_op<E: RegisterFile, P: FrontendProbe>(
        &mut self,
        rf: &mut E,
        op: LaneOp,
        pc: u32,
        probe: &mut P,
    ) -> Result<(), SimError> {
        let stall = self
            .store()
            .context_op(rf, op)
            .map_err(|source| SimError::RegFile { pc, source })?;
        self.clock += u64::from(stall);
        probe.reg_op(op, None);
        Ok(())
    }

    /// Notifies the register file that `cid` is now running (no-op when it
    /// already is). Charges switch cycles. `op` routes the notification
    /// to the organization's plain / call-push / thread-switch handler.
    #[inline]
    fn switch_context<E: RegisterFile, P: FrontendProbe>(
        &mut self,
        rf: &mut E,
        cid: Cid,
        op: fn(Cid) -> LaneOp,
        probe: &mut P,
    ) -> Result<(), SimError> {
        if self.active_cid == Some(cid) {
            return Ok(());
        }
        self.context_op(rf, op(cid), 0, probe)?;
        self.report.context_switches += 1;
        self.active_cid = Some(cid);
        Ok(())
    }

    #[inline(always)]
    fn read_reg<E: RegisterFile, P: FrontendProbe>(
        &mut self,
        rf: &mut E,
        cid: Cid,
        r: Reg,
        pc: u32,
        probe: &mut P,
    ) -> Result<Word, SimError> {
        match r {
            Reg::G(i) => Ok(self.running.globals[usize::from(i)]),
            Reg::R(off) => {
                let addr = RegAddr::new(cid, off);
                let acc = rf
                    .read(addr, &mut self.store())
                    .map_err(|source| SimError::RegFile { pc, source })?;
                self.clock += u64::from(acc.stall_cycles);
                probe.reg_op(LaneOp::Read(addr), Some(acc.value));
                Ok(acc.value)
            }
        }
    }

    #[inline(always)]
    fn write_reg<E: RegisterFile, P: FrontendProbe>(
        &mut self,
        rf: &mut E,
        cid: Cid,
        r: Reg,
        value: Word,
        pc: u32,
        probe: &mut P,
    ) -> Result<(), SimError> {
        match r {
            Reg::G(i) => {
                self.running.globals[usize::from(i)] = value;
                Ok(())
            }
            Reg::R(off) => {
                let addr = RegAddr::new(cid, off);
                let acc = rf
                    .write(addr, value, &mut self.store())
                    .map_err(|source| SimError::RegFile { pc, source })?;
                self.clock += u64::from(acc.stall_cycles);
                probe.reg_op(LaneOp::Write(addr, value), None);
                Ok(())
            }
        }
    }

    #[inline]
    fn check_budget(&self) -> Result<(), SimError> {
        if self.report.instructions >= self.cfg.max_instructions {
            return Err(SimError::MaxInstructions {
                limit: self.cfg.max_instructions,
            });
        }
        Ok(())
    }

    /// Issues from the running thread until it blocks, yields, finishes
    /// or is preempted at the quantum.
    fn run_slice<E: RegisterFile, P: FrontendProbe>(
        &mut self,
        rf: &mut E,
        probe: &mut P,
    ) -> Result<(), SimError> {
        self.check_budget()?;
        // Deliver a pending remote-load value first. Only a blocking
        // remote load leaves one, so it can only be due as a slice starts.
        if let Some((r, v)) = self.sched.current_mut().pending_write.take() {
            let Running { pc, cid, .. } = self.running;
            self.write_reg(rf, cid, r, v, pc, probe)?;
        }
        let mut issued: u64 = 0;
        loop {
            if let Status::Suspended = self.step(rf, probe)? {
                return Ok(());
            }
            issued += 1;
            if let Some(q) = self.cfg.quantum {
                // Interleaved multithreading: preempt at the quantum if
                // anyone else is ready (never idle the pipeline for it).
                if issued >= q && self.sched.ready_count() > 0 {
                    self.sched.yield_current();
                    return Ok(());
                }
            }
            self.check_budget()?;
        }
    }

    /// Executes one instruction of the running thread.
    #[inline(always)]
    fn step<E: RegisterFile, P: FrontendProbe>(
        &mut self,
        rf: &mut E,
        probe: &mut P,
    ) -> Result<Status, SimError> {
        let Running { pc, cid, .. } = self.running;
        let Some(&d) = self.code.get(pc as usize) else {
            return Err(SimError::PcOutOfRange { pc });
        };

        self.report.instructions += 1;
        self.report.class_counts[usize::from(d.class)] += 1;
        self.running.instructions += 1;
        match &mut self.pipeline {
            // The multi-issue frontend arbitrates slots and file ports;
            // co-issued instructions ride the open cycle for free.
            Some(p) => p.issue(&d.uses, d.base, &mut self.clock),
            None => self.charge(d.base, probe),
        }

        if let Some(icache) = &mut self.icache {
            // Fetch through the icache: hits overlap the pipeline, so
            // only the penalty beyond the hit path stalls.
            let penalty = icache.access(ICACHE_BASE + pc, false) - icache.config().hit_cycles;
            self.charge(penalty, probe);
        }

        if self.trace.enabled() {
            self.trace.record(TraceEntry {
                cycle: self.clock,
                tid: self.running.tid,
                cid,
                pc,
                inst: d.inst,
            });
        }

        // Sample occupancy every `sample_interval` instructions; a zero
        // countdown means sampling is off.
        if self.sample_countdown != 0 {
            self.sample_countdown -= 1;
            if self.sample_countdown == 0 {
                self.sample_countdown = self.cfg.sample_interval;
                self.report.occupancy.record(rf.occupancy());
                probe.occupancy_sample();
            }
        }

        self.execute(rf, d.inst, pc, cid, probe)
    }

    #[allow(clippy::too_many_lines)]
    #[inline(always)]
    fn execute<E: RegisterFile, P: FrontendProbe>(
        &mut self,
        rf: &mut E,
        inst: Inst,
        pc: u32,
        cid: Cid,
        probe: &mut P,
    ) -> Result<Status, SimError> {
        use Inst::*;

        macro_rules! read {
            ($r:expr) => {
                self.read_reg(rf, cid, $r, pc, probe)?
            };
        }
        macro_rules! write {
            ($r:expr, $v:expr) => {
                self.write_reg(rf, cid, $r, $v, pc, probe)?
            };
        }
        macro_rules! alu3 {
            ($rd:expr, $a:expr, $b:expr, $f:expr) => {{
                let x = read!($a);
                let y = read!($b);
                #[allow(clippy::redundant_closure_call)]
                let v = ($f)(x, y);
                write!($rd, v);
                self.advance(1);
            }};
        }
        macro_rules! alui {
            ($rd:expr, $a:expr, $imm:expr, $f:expr) => {{
                let x = read!($a);
                #[allow(clippy::redundant_closure_call)]
                let v = ($f)(x, $imm as Word);
                write!($rd, v);
                self.advance(1);
            }};
        }
        macro_rules! branch {
            ($a:expr, $b:expr, $t:expr, $cmp:expr) => {{
                let x = read!($a);
                let y = read!($b);
                #[allow(clippy::redundant_closure_call)]
                if ($cmp)(x, y) {
                    self.charge(self.cfg.cycles.taken_extra, probe);
                    self.running.pc = $t;
                } else {
                    self.advance(1);
                }
            }};
        }

        match inst {
            Add { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |x: Word, y: Word| x.wrapping_add(y)),
            Sub { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |x: Word, y: Word| x.wrapping_sub(y)),
            Mul { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |x: Word, y: Word| x.wrapping_mul(y)),
            Div { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |x: Word, y: Word| div_s(x, y)),
            Rem { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |x: Word, y: Word| rem_s(x, y)),
            And { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |x: Word, y: Word| x & y),
            Or { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |x: Word, y: Word| x | y),
            Xor { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |x: Word, y: Word| x ^ y),
            Sll { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |x: Word, y: Word| x << (y & 31)),
            Srl { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |x: Word, y: Word| x >> (y & 31)),
            Sra { rd, rs1, rs2 } => {
                alu3!(rd, rs1, rs2, |x: Word, y: Word| ((x as i32) >> (y & 31))
                    as Word)
            }
            Slt { rd, rs1, rs2 } => {
                alu3!(rd, rs1, rs2, |x: Word, y: Word| Word::from(
                    (x as i32) < (y as i32)
                ))
            }
            Sltu { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |x: Word, y: Word| Word::from(x < y)),
            Seq { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |x: Word, y: Word| Word::from(x == y)),

            Addi { rd, rs1, imm } => alui!(rd, rs1, imm, |x: Word, y: Word| x.wrapping_add(y)),
            Andi { rd, rs1, imm } => alui!(rd, rs1, imm, |x: Word, y: Word| x & y),
            Ori { rd, rs1, imm } => alui!(rd, rs1, imm, |x: Word, y: Word| x | y),
            Xori { rd, rs1, imm } => alui!(rd, rs1, imm, |x: Word, y: Word| x ^ y),
            Slli { rd, rs1, imm } => alui!(rd, rs1, imm, |x: Word, y: Word| x << (y & 31)),
            Srli { rd, rs1, imm } => alui!(rd, rs1, imm, |x: Word, y: Word| x >> (y & 31)),
            Srai { rd, rs1, imm } => {
                alui!(rd, rs1, imm, |x: Word, y: Word| ((x as i32) >> (y & 31))
                    as Word)
            }
            Slti { rd, rs1, imm } => {
                alui!(rd, rs1, imm, |x: Word, y: Word| Word::from(
                    (x as i32) < (y as i32)
                ))
            }
            Li { rd, imm } => {
                write!(rd, imm as Word);
                self.advance(1);
            }
            Mv { rd, rs1 } => {
                let v = read!(rs1);
                write!(rd, v);
                self.advance(1);
            }

            Lw { rd, base, imm } => {
                let addr = read!(base).wrapping_add(imm as Word);
                let (v, cycles) = self.mem.load(addr);
                self.clock += u64::from(cycles);
                probe.mem_load(addr, v);
                write!(rd, v);
                self.advance(1);
            }
            Sw { base, src, imm } => {
                let addr = read!(base).wrapping_add(imm as Word);
                let v = read!(src);
                let cycles = self.mem.store(addr, v);
                self.clock += u64::from(cycles);
                probe.mem_store(addr, v);
                self.advance(1);
            }
            LwRemote { rd, base, imm } => {
                let addr = read!(base).wrapping_add(imm as Word);
                // Remote data bypasses the local data cache; the cost is
                // the network round trip, overlapped with other threads.
                let value = self.mem.peek(addr);
                let ready_at = self.clock + u64::from(self.cfg.remote_latency);
                self.sched.current_mut().pending_write = Some((rd, value));
                self.running.pc = pc + 1;
                self.sched
                    .block_current(BlockReason::RemoteLoad { ready_at });
                return Ok(Status::Suspended);
            }
            SwRemote { base, src, imm } => {
                let addr = read!(base).wrapping_add(imm as Word);
                let v = read!(src);
                // Fire and forget; completes remotely after the delay.
                self.mem.poke(addr, v);
                self.advance(1);
            }

            Beq { rs1, rs2, target } => branch!(rs1, rs2, target, |x, y| x == y),
            Bne { rs1, rs2, target } => branch!(rs1, rs2, target, |x, y| x != y),
            Blt { rs1, rs2, target } => {
                branch!(rs1, rs2, target, |x: Word, y: Word| (x as i32) < (y as i32))
            }
            Bge { rs1, rs2, target } => {
                branch!(rs1, rs2, target, |x: Word, y: Word| (x as i32)
                    >= (y as i32))
            }
            Jmp { target } => {
                self.running.pc = target;
            }

            Call { target } => {
                let new_cid = self.sched.alloc_cid()?;
                self.sched.current_mut().call_stack.push((pc + 1, cid));
                self.running.cid = new_cid;
                self.running.pc = target;
                self.report.calls += 1;
                self.switch_context(rf, new_cid, LaneOp::CallPush, probe)?;
            }
            Ret => match self.sched.current_mut().call_stack.pop() {
                Some((ret_pc, caller)) => {
                    self.running.cid = caller;
                    self.running.pc = ret_pc;
                    self.release_context(rf, cid, probe)?;
                    self.report.returns += 1;
                    self.switch_context(rf, caller, LaneOp::SwitchTo, probe)?;
                }
                // Returning from the top level ends the thread.
                None => return self.halt_thread(rf, probe),
            },

            Spawn { target, arg } => {
                let value = read!(arg);
                self.sched.spawn(target, value)?;
                self.report.spawns += 1;
                self.advance(1);
            }
            Halt => return self.halt_thread(rf, probe),
            Yield => {
                self.advance(1);
                self.sched.yield_current();
                return Ok(Status::Suspended);
            }

            ChNew { rd } => {
                let id = self
                    .sched
                    .channels
                    .create_with_capacity(self.cfg.channel_capacity);
                write!(rd, id);
                self.advance(1);
            }
            ChSend { chan, src } => {
                let id = read!(chan);
                if !self.sched.channels.is_valid(id) {
                    return Err(SimError::BadChannel { id });
                }
                let v = read!(src);
                let at = self.clock + u64::from(self.cfg.msg_latency);
                if !self.sched.channels.try_send(id, v, at) {
                    // Bounded channel full: wait for space and re-execute.
                    self.sched.block_current(BlockReason::Send { chan: id });
                    return Ok(Status::Suspended);
                }
                self.advance(1);
            }
            ChRecv { rd, chan } => {
                let id = read!(chan);
                if !self.sched.channels.is_valid(id) {
                    return Err(SimError::BadChannel { id });
                }
                match self.sched.channels.try_recv(id, self.clock) {
                    Some(v) => {
                        write!(rd, v);
                        self.advance(1);
                    }
                    None => {
                        // Re-execute on wake (pc unchanged).
                        self.sched.block_current(BlockReason::Recv { chan: id });
                        return Ok(Status::Suspended);
                    }
                }
            }
            AmoAdd { rd, base, imm } => {
                let addr = read!(base);
                let (old, cycles) = self.mem.fetch_add(addr, imm);
                self.clock += u64::from(cycles);
                probe.mem_amo(addr, imm, old);
                write!(rd, old);
                self.advance(1);
            }
            SyncWait { base, imm } => {
                let addr = read!(base).wrapping_add(imm as Word);
                let (v, cycles) = self.mem.load(addr);
                self.clock += u64::from(cycles);
                probe.mem_load(addr, v);
                if v == 0 {
                    self.advance(1);
                } else {
                    self.sched.block_current(BlockReason::Sync { addr });
                    return Ok(Status::Suspended);
                }
            }

            RFree { reg } => {
                if let Reg::R(off) = reg {
                    self.context_op(rf, LaneOp::FreeReg(RegAddr::new(cid, off)), pc, probe)?;
                }
                self.advance(1);
            }
            Nop => self.advance(1),
        }
        Ok(Status::Continue)
    }

    #[inline]
    fn advance(&mut self, by: u32) {
        self.running.pc += by;
    }

    /// Frees a dead context everywhere: register file and Ctable (through
    /// [`Machine::context_op`]), CID pool.
    fn release_context<E: RegisterFile, P: FrontendProbe>(
        &mut self,
        rf: &mut E,
        cid: Cid,
        probe: &mut P,
    ) -> Result<(), SimError> {
        self.context_op(rf, LaneOp::FreeContext(cid), 0, probe)?;
        self.sched.free_cid(cid);
        if self.active_cid == Some(cid) {
            self.active_cid = None;
        }
        Ok(())
    }

    fn halt_thread<E: RegisterFile, P: FrontendProbe>(
        &mut self,
        rf: &mut E,
        probe: &mut P,
    ) -> Result<Status, SimError> {
        // Release the whole activation chain of the dying thread.
        let mut cids: Vec<Cid> = self
            .sched
            .current_mut()
            .call_stack
            .drain(..)
            .map(|(_, c)| c)
            .collect();
        cids.push(self.running.cid);
        for c in cids {
            self.release_context(rf, c, probe)?;
        }
        self.sched.finish_current();
        Ok(Status::Suspended)
    }
}

/// The engine left in [`Machine::regfile`] while the real one is moved
/// out for a run; it never executes.
fn placeholder_engine() -> EngineDispatch {
    EngineDispatch::Oracle(nsf_core::OracleFile::new())
}

/// Signed division matching the ISA contract (x/0 = 0, MIN/-1 wraps).
fn div_s(x: Word, y: Word) -> Word {
    let (x, y) = (x as i32, y as i32);
    if y == 0 {
        0
    } else {
        x.wrapping_div(y) as Word
    }
}

/// Signed remainder matching the ISA contract (x%0 = 0, MIN%-1 = 0).
fn rem_s(x: Word, y: Word) -> Word {
    let (x, y) = (x as i32, y as i32);
    if y == 0 {
        0
    } else {
        x.wrapping_rem(y) as Word
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsf_isa::asm::assemble;
    use nsf_mem::Addr;

    fn run_asm(src: &str) -> RunReport {
        let p = assemble(src).expect("assembles");
        Machine::new(p, SimConfig::default())
            .unwrap()
            .run()
            .unwrap()
    }

    fn run_asm_peek(src: &str, addr: Addr) -> (RunReport, Word) {
        let p = assemble(src).expect("assembles");
        let mut m = Machine::new(p, SimConfig::default()).unwrap();
        let r = m.run_and_keep().unwrap();
        let v = m.mem.peek(addr);
        (r, v)
    }

    #[test]
    fn arithmetic_and_memory() {
        let (_, v) = run_asm_peek(
            "main:
                li r0, 21
                add r1, r0, r0
                li r2, 4096
                sw r1, (r2)
                halt",
            4096,
        );
        assert_eq!(v, 42);
    }

    #[test]
    fn loop_counts_cycles_and_instructions() {
        let r = run_asm(
            "main:
                li r0, 10
                li r1, 0
            top:
                addi r0, r0, -1
                bne r0, r1, top
                halt",
        );
        assert_eq!(r.instructions, 3 + 10 * 2);
        assert!(r.cycles >= r.instructions);
    }

    #[test]
    fn call_ret_passes_args_and_returns() {
        // main computes f(5) where f(x) = x + 7, via the convention:
        // arg at sp-1, result in g1.
        let (r, v) = run_asm_peek(
            "main:
                li r0, 5
                sw r0, -1(g0)
                call f
                li r2, 8192
                sw g1, (r2)
                halt
            f:
                addi g0, g0, -1
                lw r0, (g0)
                addi g1, r0, 7
                addi g0, g0, 1
                ret",
            8192,
        );
        assert_eq!(v, 12);
        assert_eq!(r.calls, 1);
        assert_eq!(r.returns, 1);
        // Context switches: initial + call + ret.
        assert!(r.context_switches >= 3);
    }

    #[test]
    fn spawn_and_channels_communicate() {
        // Parent creates a channel, sends its id via memory, child doubles
        // a value and sends it back... simplified: parent sends 21 to
        // child through channel stored in memory; child doubles into a
        // second channel.
        let (_, v) = run_asm_peek(
            "main:
                chnew r0          ; c0: parent -> child
                chnew r1          ; c1: child -> parent
                li r2, 4000
                sw r0, (r2)
                sw r1, 1(r2)
                spawn child, r2
                li r3, 21
                chsend r0, r3
                chrecv r4, r1
                li r5, 5000
                sw r4, (r5)
                halt
            child:
                mv r0, g1         ; base address of channel ids
                lw r1, (r0)
                lw r2, 1(r0)
                chrecv r3, r1
                add r3, r3, r3
                chsend r2, r3
                halt",
            5000,
        );
        assert_eq!(v, 42);
    }

    #[test]
    fn remote_load_blocks_and_delivers() {
        let (r, v) = run_asm_peek(
            "main:
                li r0, 6000
                li r1, 99
                sw r1, (r0)
                lwr r2, (r0)
                li r3, 6001
                sw r2, (r3)
                halt",
            6001,
        );
        assert_eq!(v, 99);
        // The remote round trip must show up in execution time.
        assert!(
            r.cycles >= 100,
            "cycles {} must include remote latency",
            r.cycles
        );
        assert!(r.idle_cycles > 0, "single thread idles while waiting");
    }

    #[test]
    fn syncwait_and_amoadd_join() {
        // Parent initializes a join counter to 2, spawns two children that
        // decrement it, and waits for zero.
        let (r, v) = run_asm_peek(
            "main:
                li r0, 7000
                li r1, 2
                sw r1, (r0)
                spawn child, r0
                spawn child, r0
                syncwait (r0)
                li r2, 7001
                li r3, 1
                sw r3, (r2)
                halt
            child:
                mv r0, g1
                amoadd r1, -1(r0)  ; wrong operand form? amoadd rd, imm(base)
                halt",
            7001,
        );
        assert_eq!(v, 1, "parent proceeded after join");
        assert_eq!(r.spawns, 2);
    }

    #[test]
    fn deadlock_detected() {
        let p = assemble("main: chnew r0\n chrecv r1, r0\n halt").unwrap();
        let err = Machine::new(p, SimConfig::default())
            .unwrap()
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
    }

    #[test]
    fn read_undefined_register_reported() {
        let p = assemble("main: add r0, r1, r2\n halt").unwrap();
        let err = Machine::new(p, SimConfig::default())
            .unwrap()
            .run()
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::RegFile {
                source: RegFileError::ReadUndefined(_),
                ..
            }
        ));
    }

    #[test]
    fn bad_channel_reported() {
        let p = assemble("main: li r0, 77\n chsend r0, r0\n halt").unwrap();
        let err = Machine::new(p, SimConfig::default())
            .unwrap()
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::BadChannel { id: 77 }));
    }

    #[test]
    fn instruction_budget_enforced() {
        let p = assemble("main: jmp main").unwrap();
        let cfg = SimConfig {
            max_instructions: 1000,
            ..Default::default()
        };
        let err = Machine::new(p, cfg).unwrap().run().unwrap_err();
        assert!(matches!(err, SimError::MaxInstructions { limit: 1000 }));
    }

    #[test]
    fn icache_charges_misses_but_not_hot_loops() {
        let src = "main:
                li r0, 2000
                li r1, 0
            top:
                addi r0, r0, -1
                bne r0, r1, top
                halt";
        let p = assemble(src).unwrap();
        let base = Machine::new(p.clone(), SimConfig::default())
            .unwrap()
            .run()
            .unwrap();
        let cfg = SimConfig {
            icache: Some(nsf_mem::CacheConfig {
                capacity_words: 64,
                line_words: 4,
                ways: 2,
                hit_cycles: 1,
                miss_penalty: 20,
            }),
            ..Default::default()
        };
        let cached = Machine::new(p, cfg).unwrap().run().unwrap();
        let st = cached.icache.expect("icache stats present");
        assert_eq!(st.accesses, cached.instructions);
        assert!(st.miss_ratio() < 0.01, "a 5-instruction loop must hit");
        // Only the cold misses cost extra cycles.
        assert!(cached.cycles >= base.cycles);
        assert!(cached.cycles <= base.cycles + 100);
        assert!(base.icache.is_none());
    }

    #[test]
    fn bounded_channels_block_fast_producers() {
        // Producer fires 8 sends at a 1-slot channel; consumer drains
        // slowly. Backpressure must not lose or reorder anything.
        let src = "main:
                chnew r0
                li r1, 4000
                sw r0, (r1)
                li r9, 1
                li r10, 4001
                sw r9, (r10)          ; done flag (1 = running)
                spawn consumer, r1
                li r2, 0
                li r3, 8
            produce:
                bge r2, r3, fin
                chsend r0, r2
                addi r2, r2, 1
                jmp produce
            fin:
                syncwait (r10)
                halt
            consumer:
                mv r0, g1
                lw r1, (r0)
                li r2, 0
                li r3, 8
                li r4, 5000
            drain:
                bge r2, r3, done
                chrecv r5, r1
                add r6, r4, r2
                sw r5, (r6)
                addi r2, r2, 1
                jmp drain
            done:
                li r7, 4001
                li r8, 0
                sw r8, (r7)
                halt";
        let p = assemble(src).unwrap();
        let cfg = SimConfig {
            channel_capacity: Some(1),
            ..Default::default()
        };
        let mut m = Machine::new(p, cfg).unwrap();
        let r = m.run_and_keep().unwrap();
        for i in 0..8u32 {
            assert_eq!(m.mem.peek(5000 + i), i, "message {i} in order");
        }
        assert!(
            r.thread_switches >= 8,
            "backpressure must bounce between producer and consumer: {}",
            r.thread_switches
        );
    }

    #[test]
    fn quantum_interleaves_threads() {
        // Two compute-only threads that never block: under pure block
        // multithreading the first runs to completion; with a quantum
        // they interleave.
        let src = "main:
                li r2, 12000
                li r1, 2
                sw r1, (r2)
                li r0, 0
                spawn worker, r0
                spawn worker, r0
                syncwait (r2)
                halt
            worker:
                li r0, 0
                li r1, 200
            spin:
                addi r0, r0, 1
                blt r0, r1, spin
                li r4, 12000
                amoadd r5, -1(r4)
                halt";
        let p = assemble(src).unwrap();
        let blocked = Machine::new(p.clone(), SimConfig::default())
            .unwrap()
            .run()
            .unwrap();
        let cfg = SimConfig {
            quantum: Some(16),
            ..Default::default()
        };
        let interleaved = Machine::new(p, cfg).unwrap().run().unwrap();
        assert!(
            interleaved.thread_switches > blocked.thread_switches + 10,
            "quantum must force interleaving: {} vs {}",
            interleaved.thread_switches,
            blocked.thread_switches
        );
        // Functional result unchanged (both workers complete).
        assert_eq!(interleaved.spawns, 2);
    }

    #[test]
    fn per_thread_instruction_counts_sum_to_total() {
        let p = assemble(
            "main:
                li r0, 0
                spawn child, r0
                spawn child, r0
                li r1, 9000
                li r2, 2
                sw r2, (r1)
                syncwait (r1)
                halt
            child:
                li r0, 9000
                li r1, 0
                li r2, 40
            spin:
                addi r1, r1, 1
                blt r1, r2, spin
                amoadd r3, -1(r0)
                halt",
        )
        .unwrap();
        let r = Machine::new(p, SimConfig::default())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(r.thread_instructions.len(), 3, "main + two children");
        assert_eq!(
            r.thread_instructions.iter().sum::<u64>(),
            r.instructions,
            "per-thread counts partition the total"
        );
        assert!(r.thread_instructions[1] > 40, "children did their spins");
    }

    #[test]
    fn trace_records_recent_instructions() {
        let p = assemble("main: li r0, 1\n addi r0, r0, 1\n addi r0, r0, 2\n halt").unwrap();
        let cfg = SimConfig {
            trace_depth: 2,
            ..Default::default()
        };
        let mut m = Machine::new(p, cfg).unwrap();
        m.run_and_keep().unwrap();
        let entries: Vec<_> = m.trace().entries().copied().collect();
        assert_eq!(entries.len(), 2, "ring keeps only the last two");
        assert!(matches!(entries[0].inst, Inst::Addi { imm: 2, .. }));
        assert!(matches!(entries[1].inst, Inst::Halt));
        assert_eq!(entries[1].pc, 3);
    }

    #[test]
    fn trace_disabled_by_default() {
        let p = assemble("main: halt").unwrap();
        let mut m = Machine::new(p, SimConfig::default()).unwrap();
        m.run_and_keep().unwrap();
        assert!(m.trace().is_empty());
    }

    #[test]
    fn oversized_spill_footprint_rejected() {
        // 65 registers per frame cannot fit the 64-word backing stride:
        // context save areas would overlap silently. Must fail at build.
        let p = assemble("main: halt").unwrap();
        let cfg = SimConfig::with_regfile(crate::RegFileSpec::paper_segmented(2, 65));
        let err = Machine::new(p, cfg).unwrap_err();
        assert!(
            matches!(err, SimError::BadConfig(ref m) if m.contains("backing stride")),
            "expected a backing-stride rejection, got: {err}"
        );
    }

    #[test]
    fn zero_issue_width_rejected() {
        let p = assemble("main: halt").unwrap();
        let cfg = SimConfig {
            issue_width: 0,
            ..Default::default()
        };
        assert!(matches!(
            Machine::new(p.clone(), cfg).unwrap_err(),
            SimError::BadConfig(_)
        ));
        let cfg = SimConfig {
            issue_width: 2,
            read_ports: 0,
            ..Default::default()
        };
        assert!(matches!(
            Machine::new(p, cfg).unwrap_err(),
            SimError::BadConfig(_)
        ));
    }

    /// A straight-line block with exploitable ILP inside a loop.
    const ILP_LOOP: &str = "main:
            li r0, 0
            li r1, 300
            li r2, 1
            li r3, 2
        top:
            add r4, r2, r3
            add r5, r2, r2
            add r6, r3, r3
            add r7, r4, r5
            addi r0, r0, 1
            blt r0, r1, top
            halt";

    #[test]
    fn multi_issue_only_changes_timing() {
        let p = assemble(ILP_LOOP).unwrap();
        let serial = Machine::new(p.clone(), SimConfig::default())
            .unwrap()
            .run()
            .unwrap();
        for width in [2, 4] {
            let cfg = SimConfig {
                issue_width: width,
                read_ports: 3,
                write_ports: 2,
                ..Default::default()
            };
            let wide = Machine::new(p.clone(), cfg).unwrap().run().unwrap();
            assert_eq!(wide.instructions, serial.instructions, "width {width}");
            assert_eq!(wide.class_counts, serial.class_counts, "width {width}");
            assert_eq!(
                (wide.regfile.reads, wide.regfile.writes),
                (serial.regfile.reads, serial.regfile.writes),
                "width {width}: engine traffic is width-invariant"
            );
            assert!(
                wide.cycles < serial.cycles,
                "width {width}: ILP must shorten the run ({} vs {})",
                wide.cycles,
                serial.cycles
            );
        }
    }

    #[test]
    fn cpi_non_increasing_in_issue_width() {
        let p = assemble(ILP_LOOP).unwrap();
        let mut last = f64::INFINITY;
        for width in [1, 2, 4, 8] {
            let cfg = SimConfig {
                issue_width: width,
                read_ports: 3,
                write_ports: 2,
                ..Default::default()
            };
            let r = Machine::new(p.clone(), cfg).unwrap().run().unwrap();
            let cpi = r.cpi();
            assert!(cpi <= last, "width {width}: CPI rose from {last} to {cpi}");
            last = cpi;
        }
    }

    #[test]
    fn port_conflicts_surface_in_the_report() {
        let p = assemble(ILP_LOOP).unwrap();
        let serial = Machine::new(p.clone(), SimConfig::default())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            serial.regfile.port_conflict_cycles, 0,
            "single issue never arbitrates ports"
        );
        let cfg = SimConfig {
            issue_width: 2,
            read_ports: 2,
            write_ports: 1,
            ..Default::default()
        };
        let r = Machine::new(p, cfg).unwrap().run().unwrap();
        assert!(
            r.regfile.port_conflict_cycles > 0,
            "a 2-wide frontend on a 2R/1W file must hit port limits"
        );
    }

    #[test]
    fn wider_ports_relieve_conflicts() {
        let p = assemble(ILP_LOOP).unwrap();
        let narrow = SimConfig {
            issue_width: 4,
            read_ports: 2,
            write_ports: 1,
            ..Default::default()
        };
        let wide = SimConfig {
            issue_width: 4,
            read_ports: 8,
            write_ports: 4,
            ..Default::default()
        };
        let n = Machine::new(p.clone(), narrow).unwrap().run().unwrap();
        let w = Machine::new(p, wide).unwrap().run().unwrap();
        assert!(n.regfile.port_conflict_cycles > w.regfile.port_conflict_cycles);
        assert!(w.cycles <= n.cycles);
    }

    #[test]
    fn sample_interval_sets_the_sample_count() {
        let p = assemble(ILP_LOOP).unwrap();
        for interval in [0, 1, 7, 16] {
            let cfg = SimConfig {
                sample_interval: interval,
                ..Default::default()
            };
            let r = Machine::new(p.clone(), cfg).unwrap().run().unwrap();
            let want = r.instructions.checked_div(interval).unwrap_or(0);
            assert_eq!(r.occupancy.samples, want, "interval {interval}");
        }
    }

    #[test]
    fn globals_survive_calls() {
        let (_, v) = run_asm_peek(
            "main:
                li g2, 1234
                call f
                li r0, 9000
                sw g2, (r0)
                halt
            f:
                ret",
            9000,
        );
        assert_eq!(v, 1234, "g registers are thread state, not context state");
    }
}
