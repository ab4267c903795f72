//! Simulator configuration.

use crate::machine::SimError;
use nsf_core::{
    segmented::FramePolicy, EngineDispatch, NamedStateFile, NsfConfig, OracleFile, SegmentedConfig,
    SegmentedFile, SpillEngine, WindowedConfig, WindowedFile,
};
use nsf_mem::{Addr, MemConfig};
use nsf_runtime::SchedulerConfig;

/// Words of backing store reserved per context: context `c`'s save area
/// is `[backing_base + c * STRIDE, backing_base + (c + 1) * STRIDE)`.
/// 64 matches the register files' per-context valid bitmasks (`u64`);
/// [`RegFileSpec::build`] rejects any organization that could spill
/// past it.
pub const BACKING_STRIDE_WORDS: Addr = 64;

/// Which register file organization the processor uses.
#[derive(Clone, Copy, Debug)]
pub enum RegFileSpec {
    /// The Named-State Register File.
    Nsf(NsfConfig),
    /// A segmented (multithreaded baseline) file.
    Segmented(SegmentedConfig),
    /// A conventional single-context file: built as the one-frame,
    /// whole-frame [`SegmentedFile`].
    Conventional {
        /// Registers in the file.
        regs: u8,
        /// Spill machinery for context switches.
        engine: SpillEngine,
    },
    /// A SPARC-style windowed file (overflow/underflow traps, full flush
    /// on thread switch) — the related-work baseline of paper §5.
    Windowed(WindowedConfig),
    /// The infinite oracle (differential testing).
    Oracle,
}

impl RegFileSpec {
    /// The most register slots one organization may hold. Every frame,
    /// window and NSF line holds at least one register, so this bounds
    /// their counts too. 2^16 is sixteen times the largest file any
    /// figure, explorer default, benchmark workload or test builds
    /// (4096 registers).
    pub const MAX_REGS: u64 = 1 << 16;

    /// Instantiates the organization, statically dispatched: the machine
    /// holds the engine by value so per-instruction register operations
    /// resolve through a `match` instead of a vtable. Fails exactly when
    /// [`RegFileSpec::check`] does, before anything is allocated.
    pub fn build(&self) -> Result<EngineDispatch, SimError> {
        self.check()?;
        Ok(match *self {
            RegFileSpec::Nsf(cfg) => NamedStateFile::new(cfg).into(),
            RegFileSpec::Segmented(cfg) => SegmentedFile::new(cfg).into(),
            RegFileSpec::Conventional { regs, engine } => SegmentedFile::new(SegmentedConfig {
                engine,
                ..SegmentedConfig::paper_default(1, regs)
            })
            .into(),
            RegFileSpec::Windowed(cfg) => WindowedFile::new(cfg).into(),
            RegFileSpec::Oracle => OracleFile::new().into(),
        })
    }

    /// The one buildability check, shared by the live machine, both
    /// replays and the explorer's enumeration: a geometry the engine
    /// constructors reject (an NSF line that is zero, does not divide the
    /// file, or exceeds a context or [`NsfConfig::MAX_LINE_REGS`]; zero
    /// frames, windows or registers), more than [`RegFileSpec::MAX_REGS`]
    /// register slots, or a context that could spill past its
    /// [`BACKING_STRIDE_WORDS`]-word save area is a
    /// [`SimError::BadConfig`], never a panic or an abort.
    pub fn check(&self) -> Result<(), SimError> {
        let geometry = match *self {
            RegFileSpec::Nsf(c) if c.total_regs == 0 || c.regs_per_line == 0 => Some(format!(
                "an NSF of {} registers in {}-register lines: sizes must be nonzero",
                c.total_regs, c.regs_per_line
            )),
            RegFileSpec::Nsf(c) if !c.total_regs.is_multiple_of(u32::from(c.regs_per_line)) => {
                Some(format!(
                    "an NSF line of {} registers does not divide the {}-register file",
                    c.regs_per_line, c.total_regs
                ))
            }
            RegFileSpec::Nsf(c) if c.regs_per_line > c.ctx_regs => Some(format!(
                "an NSF line of {} registers exceeds the {}-register context",
                c.regs_per_line, c.ctx_regs
            )),
            RegFileSpec::Nsf(c) if c.regs_per_line > NsfConfig::MAX_LINE_REGS => Some(format!(
                "an NSF line of {} registers exceeds the {}-register line masks",
                c.regs_per_line,
                NsfConfig::MAX_LINE_REGS
            )),
            RegFileSpec::Segmented(c) if c.frames == 0 || c.frame_regs == 0 => Some(format!(
                "a segmented file of {} frames of {} registers: sizes must be nonzero",
                c.frames, c.frame_regs
            )),
            RegFileSpec::Conventional { regs: 0, .. } => {
                Some("a conventional file needs registers".to_string())
            }
            RegFileSpec::Windowed(c) if c.windows == 0 || c.window_regs == 0 => Some(format!(
                "a windowed file of {} windows of {} registers: sizes must be nonzero",
                c.windows, c.window_regs
            )),
            _ => None,
        };
        if let Some(why) = geometry {
            return Err(SimError::BadConfig(why));
        }
        let slots = self.register_slots();
        if slots > Self::MAX_REGS {
            return Err(SimError::BadConfig(format!(
                "organization holds {slots} register slots, over the bound of {}",
                Self::MAX_REGS
            )));
        }
        let spill_regs = self.max_spill_regs();
        if spill_regs > BACKING_STRIDE_WORDS {
            return Err(SimError::BadConfig(format!(
                "organization can spill {spill_regs} words per context, \
                 overflowing the {BACKING_STRIDE_WORDS}-word backing stride: \
                 context save areas would overlap"
            )));
        }
        Ok(())
    }

    /// Register slots the organization holds, widened so the product of
    /// a `u32` count and a `u8` size cannot overflow. The oracle has no
    /// size (it allocates a context on its first write), so it counts
    /// none.
    fn register_slots(&self) -> u64 {
        match *self {
            RegFileSpec::Nsf(cfg) => u64::from(cfg.total_regs),
            RegFileSpec::Segmented(cfg) => u64::from(cfg.frames) * u64::from(cfg.frame_regs),
            RegFileSpec::Conventional { regs, .. } => u64::from(regs),
            RegFileSpec::Windowed(cfg) => u64::from(cfg.windows) * u64::from(cfg.window_regs),
            RegFileSpec::Oracle => 0,
        }
    }

    /// The most backing-store words one context of this organization can
    /// ever spill — register offsets stay below the architectural
    /// context size, so this bounds the per-context save area.
    pub fn max_spill_regs(&self) -> u32 {
        match *self {
            RegFileSpec::Nsf(cfg) => u32::from(cfg.ctx_regs),
            RegFileSpec::Segmented(cfg) => u32::from(cfg.frame_regs),
            RegFileSpec::Conventional { regs, .. } => u32::from(regs),
            RegFileSpec::Windowed(cfg) => u32::from(cfg.window_regs),
            // The oracle holds everything and never spills.
            RegFileSpec::Oracle => 0,
        }
    }

    /// The paper's NSF reference point: `total` registers, 1-register
    /// lines, LRU, demand reload.
    pub fn paper_nsf(total: u32) -> Self {
        RegFileSpec::Nsf(NsfConfig::paper_default(total))
    }

    /// The paper's segmented reference point: `frames` frames of
    /// `frame_regs`, full-frame transfers, hardware assist.
    pub fn paper_segmented(frames: u32, frame_regs: u8) -> Self {
        RegFileSpec::Segmented(SegmentedConfig::paper_default(frames, frame_regs))
    }

    /// A SPARC-like windowed file: 8 windows, software trap handlers.
    pub fn sparc_windows(window_regs: u8) -> Self {
        RegFileSpec::Windowed(WindowedConfig::sparc_like(window_regs))
    }

    /// Segmented with per-register valid bits (the "live registers only"
    /// variant of §7.3).
    pub fn segmented_valid_only(frames: u32, frame_regs: u8) -> Self {
        let mut cfg = SegmentedConfig::paper_default(frames, frame_regs);
        cfg.policy = FramePolicy::ValidOnly;
        RegFileSpec::Segmented(cfg)
    }
}

/// Per-class instruction latencies, in cycles. Calibrated to the Sparc-2
/// class timings the paper used ("The instruction and memory access times
/// were taken from a Sparc2 processor emulator").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CycleTable {
    /// ALU / register-move instructions.
    pub alu: u32,
    /// Branches and jumps.
    pub control: u32,
    /// Extra cycle when a branch is taken (pipeline refill).
    pub taken_extra: u32,
    /// Base cost of a memory instruction (the cache adds its latency).
    pub mem_base: u32,
    /// Thread management / channel instructions.
    pub thread_op: u32,
    /// `call`/`ret` base cost (context allocation bookkeeping).
    pub proc_op: u32,
    /// Hints and no-ops.
    pub misc: u32,
    /// Pipeline drain/refill cost of switching between threads.
    pub switch_overhead: u32,
}

impl Default for CycleTable {
    fn default() -> Self {
        CycleTable {
            alu: 1,
            control: 1,
            taken_extra: 1,
            mem_base: 1,
            thread_op: 2,
            proc_op: 2,
            misc: 1,
            switch_overhead: 2,
        }
    }
}

/// Full simulator configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Register file organization.
    pub regfile: RegFileSpec,
    /// Memory hierarchy parameters.
    pub mem: MemConfig,
    /// Scheduler limits.
    pub sched: SchedulerConfig,
    /// Instruction latencies.
    pub cycles: CycleTable,
    /// Round-trip latency of a remote load, in cycles (paper: "more than
    /// 100 instruction cycles").
    pub remote_latency: u32,
    /// One-way message delivery latency, in cycles.
    pub msg_latency: u32,
    /// Occupancy sampling period, in instructions: a sample is taken
    /// after every `sample_interval`-th instruction. `0` disables
    /// sampling (the report's occupancy stays empty).
    pub sample_interval: u64,
    /// Hard instruction budget (guards against runaway programs).
    pub max_instructions: u64,
    /// Optional scheduling quantum in instructions. `None` (the paper's
    /// model) is pure block multithreading: a thread runs until it
    /// blocks. `Some(n)` additionally preempts after `n` instructions
    /// when another thread is ready, approximating the interleaved
    /// multithreading of HEP/Tera-class machines (paper §3: "processors
    /// may interleave successive instructions from different threads").
    ///
    /// Workloads written for block multithreading may assume a thread
    /// is never preempted between blocking points. AS folds its partial
    /// sum with a plain load/add/store, so under a small quantum it can
    /// lose an update and fail its own output check (it does at quantum
    /// 4 at scale 0, and at quanta 4 and 8 at scale 1). No figure,
    /// explorer spec or benchmark runs AS under a quantum.
    pub quantum: Option<u64>,
    /// Base virtual address of the register backing-store arena; context
    /// `c`'s save area starts at `backing_base + c * 64`.
    pub backing_base: Addr,
    /// Depth of the post-mortem execution trace ring (0 = disabled).
    pub trace_depth: usize,
    /// Capacity applied to every channel created by `chnew`: `None`
    /// (default) gives unbounded software queues; `Some(n)` models
    /// hardware message queues of `n` entries with sender backpressure.
    pub channel_capacity: Option<u32>,
    /// Optional instruction cache. `None` (the paper's model) assumes
    /// ideal fetch; `Some(cfg)` charges the miss penalty of a fetch
    /// through this cache on top of the pipelined hit path.
    pub icache: Option<nsf_mem::CacheConfig>,
    /// Frontend issue width. `1` (the paper's model, and the default) is
    /// the plain single-issue machine — bit-identical to every release
    /// before the pipeline existed. `>1` enables the scoreboarded
    /// in-order multi-issue frontend ([`crate::pipeline`]), which
    /// arbitrates register-file ports per cycle and charges port
    /// conflicts to `RegFileStats::port_conflict_cycles`.
    pub issue_width: u32,
    /// Register-file read ports arbitrated per issue cycle (only
    /// consulted when `issue_width > 1`). The paper's files are
    /// 3-ported: 2 reads, 1 write.
    pub read_ports: u32,
    /// Register-file write ports arbitrated per issue cycle (only
    /// consulted when `issue_width > 1`).
    pub write_ports: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            regfile: RegFileSpec::paper_nsf(128),
            mem: MemConfig::default(),
            sched: SchedulerConfig::default(),
            cycles: CycleTable::default(),
            remote_latency: 100,
            msg_latency: 50,
            sample_interval: 16,
            max_instructions: 500_000_000,
            quantum: None,
            backing_base: 0x4000_0000,
            trace_depth: 0,
            channel_capacity: None,
            icache: None,
            issue_width: 1,
            read_ports: 2,
            write_ports: 1,
        }
    }
}

/// Version of the frontend-fingerprint field encoding
/// ([`SimConfig::frontend_fingerprint_fields`]). Bump whenever the
/// [`SimConfig::frontend_eq`] field set, a field's semantics, or the
/// push order changes: persistent stores key captured event streams by
/// a hash over these fields, and a stale key definition must invalidate
/// every old entry rather than silently match one.
pub const FRONTEND_FINGERPRINT_VERSION: u32 = 1;

impl SimConfig {
    /// A config with everything default except the register file.
    pub fn with_regfile(regfile: RegFileSpec) -> Self {
        SimConfig {
            regfile,
            ..Default::default()
        }
    }

    /// Feeds every frontend-relevant field — the one list of them;
    /// [`SimConfig::frontend_eq`] compares these sequences — into
    /// `push` as a fixed-order word sequence. Two configurations push
    /// identical sequences **iff** they are `frontend_eq` (options are
    /// presence-tagged so `None` can never alias a value), which makes
    /// the sequence a sound content-address for captured frontend event
    /// streams: a hash over it (plus the workload's content) keys the
    /// persistent stream store in `nsf_trace::store`.
    pub fn frontend_fingerprint_fields(&self, push: &mut impl FnMut(u64)) {
        let opt = |v: Option<u64>, push: &mut dyn FnMut(u64)| match v {
            None => push(0),
            Some(v) => {
                push(1);
                push(v);
            }
        };
        push(u64::from(FRONTEND_FINGERPRINT_VERSION));
        // mem: data-cache geometry/latency and Ctable capacity.
        push(u64::from(self.mem.dcache.capacity_words));
        push(u64::from(self.mem.dcache.line_words));
        push(u64::from(self.mem.dcache.ways));
        push(u64::from(self.mem.dcache.hit_cycles));
        push(u64::from(self.mem.dcache.miss_penalty));
        push(self.mem.ctable_slots as u64);
        // sched
        push(u64::from(self.sched.max_threads));
        push(u64::from(self.sched.cid_capacity));
        push(u64::from(self.sched.stack_words));
        push(u64::from(self.sched.stack_base));
        // cycles
        push(u64::from(self.cycles.alu));
        push(u64::from(self.cycles.control));
        push(u64::from(self.cycles.taken_extra));
        push(u64::from(self.cycles.mem_base));
        push(u64::from(self.cycles.thread_op));
        push(u64::from(self.cycles.proc_op));
        push(u64::from(self.cycles.misc));
        push(u64::from(self.cycles.switch_overhead));
        // scalar frontend parameters
        push(u64::from(self.remote_latency));
        push(u64::from(self.msg_latency));
        push(self.sample_interval);
        push(self.max_instructions);
        opt(self.quantum, push);
        push(u64::from(self.backing_base));
        push(self.trace_depth as u64);
        opt(self.channel_capacity.map(u64::from), push);
        match &self.icache {
            None => push(0),
            Some(c) => {
                push(1);
                push(u64::from(c.capacity_words));
                push(u64::from(c.line_words));
                push(u64::from(c.ways));
                push(u64::from(c.hit_cycles));
                push(u64::from(c.miss_penalty));
            }
        }
        push(u64::from(self.issue_width));
        push(u64::from(self.read_ports));
        push(u64::from(self.write_ports));
    }

    /// `true` when `self` and `other` agree on everything *except* the
    /// register file organization — the machine frontend (memory
    /// geometry, scheduler limits, cycle table, latencies, sampling,
    /// budgets) is identical, so two runs of the same program differ
    /// only in register-file behaviour. This is the compatibility
    /// predicate frontend-stream replay requires: a captured
    /// fetch/decode/schedule stream is valid only for configurations
    /// that share every frontend parameter with the capture.
    pub fn frontend_eq(&self, other: &SimConfig) -> bool {
        // Compare the two fingerprint sequences word by word — one field
        // list, no allocation. `FRONTEND_FIELDS_MAX` bounds a sequence.
        let mut mine = [0u64; FRONTEND_FIELDS_MAX];
        let mut len = 0;
        self.frontend_fingerprint_fields(&mut |v| {
            mine[len] = v;
            len += 1;
        });
        let (mut at, mut eq) = (0, true);
        other.frontend_fingerprint_fields(&mut |v| {
            eq &= at < len && mine[at] == v;
            at += 1;
        });
        eq && at == len
    }
}

/// Most words [`SimConfig::frontend_fingerprint_fields`] pushes (every
/// option present).
const FRONTEND_FIELDS_MAX: usize = 38;

#[cfg(test)]
mod tests {
    use super::*;
    use nsf_core::RegisterFile;

    #[test]
    fn specs_build_the_right_organization() {
        let describe = |spec: RegFileSpec| spec.build().unwrap().describe();
        assert!(describe(RegFileSpec::paper_nsf(128)).contains("NSF"));
        assert!(describe(RegFileSpec::paper_segmented(4, 32)).contains("Segmented"));
        let conv = RegFileSpec::Conventional {
            regs: 32,
            engine: SpillEngine::hardware(),
        };
        assert!(describe(conv).contains("Conventional"));
        // The conventional file is the one-frame, whole-frame segmented
        // file, under either name; other one-frame files stay segmented.
        let parsed = |spec: &str| describe(crate::spec::parse_engine(spec).unwrap());
        assert_eq!(parsed("segmented:1x20"), "Conventional 20 regs");
        assert!(parsed("segmented-valid:1x20").contains("Segmented"));
        let mut dribble = SegmentedConfig::paper_default(1, 20);
        dribble.dribble = Some(nsf_core::segmented::DribbleConfig { ops_per_reg: 4 });
        assert!(describe(RegFileSpec::Segmented(dribble)).contains("Segmented"));
        assert!(describe(RegFileSpec::Oracle).contains("Oracle"));
    }

    #[test]
    fn unbuildable_geometries_are_typed_errors() {
        let mut nsf_ctx = NsfConfig::paper_default(128);
        nsf_ctx.ctx_regs = 65;
        for spec in [
            RegFileSpec::Nsf(NsfConfig::paper_default(0)),
            RegFileSpec::Nsf(NsfConfig {
                regs_per_line: 3,
                ..NsfConfig::paper_default(80)
            }),
            RegFileSpec::Nsf(NsfConfig {
                regs_per_line: 40,
                ..NsfConfig::paper_default(80)
            }),
            RegFileSpec::Nsf(nsf_ctx),
            RegFileSpec::paper_segmented(0, 8),
            RegFileSpec::paper_segmented(2, 0),
            RegFileSpec::paper_segmented(2, 100),
            RegFileSpec::Conventional {
                regs: 0,
                engine: SpillEngine::hardware(),
            },
            RegFileSpec::sparc_windows(0),
            RegFileSpec::sparc_windows(65),
            RegFileSpec::paper_nsf(u32::MAX),
            RegFileSpec::paper_segmented(u32::MAX, 1),
            // 2^26 frames of 64 registers: 2^32 slots, past `u32`.
            RegFileSpec::paper_segmented(1 << 26, 64),
        ] {
            assert!(
                matches!(spec.build(), Err(SimError::BadConfig(_))),
                "{spec:?} built"
            );
        }
        let largest = RegFileSpec::MAX_REGS as u32;
        assert!(RegFileSpec::paper_nsf(largest).check().is_ok());
        assert!(RegFileSpec::paper_nsf(largest + 1).check().is_err());
    }

    #[test]
    fn nsf_line_wider_than_its_masks_is_a_typed_error() {
        // Each fits a 64-register context, but not the 32-bit line masks.
        for (total_regs, regs_per_line) in [(128, 64), (132, 33)] {
            let spec = RegFileSpec::Nsf(NsfConfig {
                ctx_regs: 64,
                regs_per_line,
                ..NsfConfig::paper_default(total_regs)
            });
            match spec.build() {
                Err(SimError::BadConfig(why)) => assert!(why.contains("line masks"), "{why}"),
                Err(e) => panic!("{spec:?}: expected BadConfig, got {e:?}"),
                Ok(_) => panic!("{spec:?} built"),
            }
        }
        let widest = RegFileSpec::Nsf(NsfConfig {
            ctx_regs: 64,
            regs_per_line: NsfConfig::MAX_LINE_REGS,
            ..NsfConfig::paper_default(128)
        });
        assert!(widest.build().is_ok());
    }

    #[test]
    fn default_matches_paper_parallel_setup() {
        let c = SimConfig::default();
        assert_eq!(c.remote_latency, 100);
        assert!(matches!(c.regfile, RegFileSpec::Nsf(n) if n.total_regs == 128));
    }
}
