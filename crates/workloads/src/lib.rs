//! # nsf-workloads — the paper's benchmark suite
//!
//! Table 1 of the paper lists three sequential benchmarks (cross-compiled
//! from Sparc assembly) and six parallel ones (translated from TAM
//! dataflow code). We rebuild all nine as *real programs* for our ISA —
//! scaled down in input size (DESIGN.md §2 documents the substitution)
//! but with genuine algorithmic content and functional output checks:
//!
//! | paper | type | ours |
//! |-------|------|------|
//! | GateSim | seq | event-free gate-level netlist simulator |
//! | RTLSim | seq | register-transfer machine interpreter |
//! | ZipFile | seq | LZ77-style compressor |
//! | AS | par | coarse-grain array sweeps (few long threads) |
//! | DTW | par | banded dynamic time warping pipeline |
//! | Gamteb | par | Monte-Carlo particle transport (very fine grain) |
//! | Paraffins | par | alkyl-radical counting DP |
//! | Quicksort | par | thread-per-partition quicksort |
//! | Wavefront | par | 2-D wavefront relaxation in row bands |
//!
//! Sequential benchmarks are written in `nsf-compiler` IR and register
//! allocated by graph coloring (8–10 live registers per 20-register
//! context, like the paper's Sparc compiler). Parallel benchmarks are
//! hand-written at ISA level in the TAM translator's style: thread locals
//! are folded into the 32-register context without lifetime reuse, giving
//! the paper's 18–22 active registers per context.
//!
//! Every [`Workload`] carries a `check` that validates the program's
//! output against a Rust reference implementation, so simulator and
//! register file bugs cannot hide behind plausible-looking statistics.

pub mod as_bench;
pub mod dtw;
pub mod gamteb;
pub mod gatesim;
pub mod harness;
pub mod paraffins;
pub mod quicksort;
pub mod rtlsim;
pub mod synth;
pub mod util;
pub mod wavefront;
pub mod zipfile;

pub use harness::{run, run_probed, Workload, WorkloadError};

/// One paper benchmark as the command-line tools name it.
#[derive(Clone, Copy, Debug)]
pub struct Benchmark {
    /// Command-line name: the workload's name in lowercase.
    pub cli: &'static str,
    /// Builds the workload at a scale (0 = test-sized, 1 =
    /// evaluation-sized; larger values grow inputs further).
    pub build: fn(u32) -> Workload,
    /// `true` for the TAM-style parallel benchmarks.
    pub parallel: bool,
}

const fn bench(cli: &'static str, build: fn(u32) -> Workload, parallel: bool) -> Benchmark {
    Benchmark {
        cli,
        build,
        parallel,
    }
}

/// The nine paper benchmarks in Table 1's order: the three sequential
/// ones, then the six parallel ones. Every suite and every tool's list
/// of workload names derives from this table.
pub const BENCHMARKS: [Benchmark; 9] = [
    bench("gatesim", gatesim::build, false),
    bench("rtlsim", rtlsim::build, false),
    bench("zipfile", zipfile::build, false),
    bench("as", as_bench::build, true),
    bench("dtw", dtw::build, true),
    bench("gamteb", gamteb::build, true),
    bench("paraffins", paraffins::build, true),
    bench("quicksort", quicksort::build, true),
    bench("wavefront", wavefront::build, true),
];

/// The benchmarks that pass `keep`, built at `scale`, in table order.
fn suite(scale: u32, keep: fn(&Benchmark) -> bool) -> Vec<Workload> {
    BENCHMARKS
        .iter()
        .filter(|b| keep(b))
        .map(|b| (b.build)(scale))
        .collect()
}

/// All nine paper benchmarks at the given scale (0 = test-sized,
/// 1 = evaluation-sized; larger values grow inputs further).
pub fn paper_suite(scale: u32) -> Vec<Workload> {
    suite(scale, |_| true)
}

/// The three sequential benchmarks.
pub fn sequential_suite(scale: u32) -> Vec<Workload> {
    suite(scale, |b| !b.parallel)
}

/// The six parallel benchmarks.
pub fn parallel_suite(scale: u32) -> Vec<Workload> {
    suite(scale, |b| b.parallel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_table_matches_the_built_workloads() {
        for b in &BENCHMARKS {
            let w = (b.build)(0);
            assert_eq!(b.cli, w.name.to_lowercase(), "CLI name of {}", w.name);
            assert_eq!(b.parallel, w.parallel, "parallel flag of {}", w.name);
        }
    }
}
