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

/// All nine paper benchmarks at the given scale (0 = test-sized,
/// 1 = evaluation-sized; larger values grow inputs further).
pub fn paper_suite(scale: u32) -> Vec<Workload> {
    vec![
        gatesim::build(scale),
        rtlsim::build(scale),
        zipfile::build(scale),
        as_bench::build(scale),
        dtw::build(scale),
        gamteb::build(scale),
        paraffins::build(scale),
        quicksort::build(scale),
        wavefront::build(scale),
    ]
}

/// The three sequential benchmarks.
pub fn sequential_suite(scale: u32) -> Vec<Workload> {
    vec![
        gatesim::build(scale),
        rtlsim::build(scale),
        zipfile::build(scale),
    ]
}

/// The six parallel benchmarks.
pub fn parallel_suite(scale: u32) -> Vec<Workload> {
    vec![
        as_bench::build(scale),
        dtw::build(scale),
        gamteb::build(scale),
        paraffins::build(scale),
        quicksort::build(scale),
        wavefront::build(scale),
    ]
}
