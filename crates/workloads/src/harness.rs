//! Workload packaging and execution.

use nsf_isa::Program;
use nsf_mem::{Addr, MemSystem, Word};
use nsf_sim::{FrontendProbe, Machine, NoProbe, RunReport, SimConfig, SimError};
use std::fmt;

/// A functional output check, run against simulated memory after the
/// program halts.
pub type Check = Box<dyn Fn(&MemSystem) -> Result<(), String> + Send + Sync>;

/// A packaged benchmark: program, input data, and an output validator.
pub struct Workload {
    /// Benchmark name as in the paper's Table 1.
    pub name: &'static str,
    /// `true` for the TAM-style parallel benchmarks.
    pub parallel: bool,
    /// The executable program.
    pub program: Program,
    /// Lines of generator source (our analogue of Table 1's
    /// "source code lines").
    pub source_lines: usize,
    /// `(address, words)` blocks staged into memory before the run.
    pub mem_init: Vec<(Addr, Vec<Word>)>,
    /// Output validator.
    pub check: Check,
}

/// The sweep runner in `nsf-bench` shares built workloads by reference
/// across worker threads, so a [`Workload`] must stay `Send + Sync`
/// (the [`Check`] closure is the only part that could regress — it is
/// explicitly bounded above). This assertion fails to compile if a
/// non-thread-safe field is ever added.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Workload>();
};

impl fmt::Debug for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("parallel", &self.parallel)
            .field("static_instructions", &self.program.len())
            .finish_non_exhaustive()
    }
}

/// Failure of a workload run.
#[derive(Debug)]
pub enum WorkloadError {
    /// The simulator failed.
    Sim(SimError),
    /// The program ran but produced wrong output.
    CheckFailed {
        /// Which benchmark.
        name: &'static str,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Sim(e) => write!(f, "simulation failed: {e}"),
            WorkloadError::CheckFailed { name, detail } => {
                write!(f, "{name} produced wrong output: {detail}")
            }
        }
    }
}

impl std::error::Error for WorkloadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WorkloadError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for WorkloadError {
    fn from(e: SimError) -> Self {
        WorkloadError::Sim(e)
    }
}

/// Runs `workload` under `cfg`, validates its output, and returns the
/// measurement report.
pub fn run(workload: &Workload, cfg: SimConfig) -> Result<RunReport, WorkloadError> {
    run_probed(workload, cfg, &mut NoProbe)
}

/// Runs `workload` under `cfg` exactly as [`run`] does — same
/// validation, same report — with `probe` observing the frontend
/// ([`Machine::run_probed`]). Probing is observational, so any engine
/// under any workload can be recorded without the workload knowing
/// (the `nsf-trace` crate's recorders are probes).
pub fn run_probed<P: FrontendProbe>(
    workload: &Workload,
    cfg: SimConfig,
    probe: &mut P,
) -> Result<RunReport, WorkloadError> {
    let mut machine = Machine::new(workload.program.clone(), cfg)?;
    for (addr, words) in &workload.mem_init {
        machine.mem.poke_block(*addr, words);
    }
    let report = machine.run_probed(probe)?;
    (workload.check)(&machine.mem).map_err(|detail| WorkloadError::CheckFailed {
        name: workload.name,
        detail,
    })?;
    Ok(report)
}

/// Standard result-area base address used by all workloads.
pub const RESULT_BASE: Addr = 0x0020_0000;

/// Standard input-data base address used by all workloads.
pub const DATA_BASE: Addr = 0x0010_0000;

/// Builds a checker that compares `count` words at `addr` against
/// `expected`.
pub fn expect_words(addr: Addr, expected: Vec<Word>) -> Check {
    Box::new(move |mem: &MemSystem| {
        for (i, &want) in expected.iter().enumerate() {
            let got = mem.peek(addr + i as Addr);
            if got != want {
                return Err(format!(
                    "word {i} at {:#x}: expected {want}, got {got}",
                    addr + i as Addr
                ));
            }
        }
        Ok(())
    })
}
