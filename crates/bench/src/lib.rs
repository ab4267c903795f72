//! # nsf-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see `DESIGN.md` §4 for the
//! full index):
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `table1` | Table 1 — benchmark characteristics |
//! | `fig06_access_time` | Fig. 6 — register file access times |
//! | `fig07_area` | Fig. 7 — 3-ported area breakdown |
//! | `fig08_area_6port` | Fig. 8 — 6-ported area breakdown |
//! | `fig09_utilization` | Fig. 9 — % registers holding active data |
//! | `fig10_reload_traffic` | Fig. 10 — registers reloaded / instruction |
//! | `fig11_resident_contexts` | Fig. 11 — resident contexts vs file size |
//! | `fig12_reload_vs_size` | Fig. 12 — reload traffic vs file size |
//! | `fig13_line_size` | Fig. 13 — reload traffic vs line size |
//! | `fig14_overhead` | Fig. 14 — spill/reload overhead vs engine |
//! | `fig_pipeline` | extension: CPI vs issue width with port-pressure accounting |
//! | `ablations` | extra design-space studies (replacement, write-miss, quantum, rfree hints) |
//! | `related_work` | NSF vs SPARC windows vs dribble-back (paper §5) |
//! | `summary` | the paper's §9 conclusion bullets, measured |
//! | `depth_sweep` | mechanism study: resident contexts vs call depth |
//! | `export_csv` | sweep data as CSV under `results/` |
//!
//! Every binary accepts `--scale N` (default 1): 0 is a smoke-test size,
//! 1 approximates the paper's behaviour at tractable instruction counts.
//! Data-driven binaries also accept `--threads N` (default: available
//! parallelism) to fan the sweep across a thread pool — output is
//! byte-identical for every thread count — and `--quiet` to drop the
//! commentary footers. This library holds the shared configuration
//! points, the sweep runner ([`runner`]) and the per-figure grid/render
//! pairs ([`figures`]).

use nsf_core::{segmented::FramePolicy, NsfConfig, ReloadPolicy, SegmentedConfig, SpillEngine};
use nsf_sim::{RunReport, SimConfig};
use nsf_workloads::{run, Workload};

pub mod cli;
pub mod figures;
pub mod runner;

pub use cli::{CliArgs, CliError, CliSpec};
pub use runner::{
    figure_main, pool_map, run_with_args, workspace_results_dir, Cursor, FrontendCacheStats,
    HarnessArgs, Sweep, SweepPoint, DEFAULT_LANES, HARNESS_USAGE,
};

/// Registers per sequential context (the paper allocates 20).
pub const SEQ_CTX_REGS: u8 = 20;
/// Registers per parallel context (the paper allocates 32).
pub const PAR_CTX_REGS: u8 = 32;
/// Register file size for the sequential experiments (Figs. 9, 10).
pub const SEQ_FILE_REGS: u32 = 80;
/// Register file size for the parallel experiments (Figs. 9, 10).
pub const PAR_FILE_REGS: u32 = 128;

/// Parses `--scale N` (default 1) from the process arguments. Shorthand
/// for [`HarnessArgs::parse`] where only the scale matters (the
/// VLSI-model binaries, which run no simulations).
pub fn scale_from_args() -> u32 {
    HarnessArgs::parse().scale
}

/// The paper's NSF configuration over `total` registers
/// (single-register lines, LRU, demand reload).
pub fn nsf_config(total: u32) -> SimConfig {
    SimConfig::with_regfile(nsf_sim::RegFileSpec::Nsf(NsfConfig::paper_default(total)))
}

/// An NSF with an explicit line width and reload policy (Fig. 13).
pub fn nsf_lines_config(total: u32, regs_per_line: u8, reload: ReloadPolicy) -> SimConfig {
    let mut cfg = NsfConfig::paper_default(total);
    cfg.regs_per_line = regs_per_line;
    cfg.reload = reload;
    SimConfig::with_regfile(nsf_sim::RegFileSpec::Nsf(cfg))
}

/// The paper's segmented configuration: `frames` frames of `frame_regs`,
/// whole-frame transfers, hardware spill engine.
pub fn segmented_config(frames: u32, frame_regs: u8) -> SimConfig {
    SimConfig::with_regfile(nsf_sim::RegFileSpec::Segmented(
        SegmentedConfig::paper_default(frames, frame_regs),
    ))
}

/// Segmented file with per-register valid bits ("live registers only").
pub fn segmented_valid_config(frames: u32, frame_regs: u8) -> SimConfig {
    let mut cfg = SegmentedConfig::paper_default(frames, frame_regs);
    cfg.policy = FramePolicy::ValidOnly;
    SimConfig::with_regfile(nsf_sim::RegFileSpec::Segmented(cfg))
}

/// Segmented file whose spills run through software trap handlers.
pub fn segmented_software_config(frames: u32, frame_regs: u8) -> SimConfig {
    let mut cfg = SegmentedConfig::paper_default(frames, frame_regs);
    cfg.engine = SpillEngine::software();
    SimConfig::with_regfile(nsf_sim::RegFileSpec::Segmented(cfg))
}

/// Runs one workload under one configuration, panicking with a clear
/// message if the program fails or produces wrong output — a harness bug
/// must never masquerade as a data point.
pub fn measure(w: &Workload, cfg: SimConfig) -> RunReport {
    run(w, cfg).unwrap_or_else(|e| panic!("{} failed: {e}", w.name))
}

/// Sums reports across a suite (for the paper's serial/parallel
/// aggregates in Fig. 14).
pub fn aggregate(reports: &[RunReport]) -> RunReport {
    let mut total = RunReport::default();
    for r in reports {
        total.instructions += r.instructions;
        total.cycles += r.cycles;
        total.idle_cycles += r.idle_cycles;
        total.context_switches += r.context_switches;
        total.thread_switches += r.thread_switches;
        total.calls += r.calls;
        total.returns += r.returns;
        total.spawns += r.spawns;
        total.regfile.merge(&r.regfile);
        total.regfile_capacity = r.regfile_capacity;
        total.regfile_desc.clone_from(&r.regfile_desc);
    }
    total
}

/// Prints a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Formats a small ratio as a percentage string.
pub fn pct(x: f64) -> String {
    if x >= 0.0995 {
        format!("{:5.1}%", x * 100.0)
    } else if x >= 0.000_95 {
        format!("{:5.2}%", x * 100.0)
    } else {
        format!("{:.4}%", x * 100.0)
    }
}

/// Shared printer for the Figure 7 / Figure 8 area tables.
pub fn print_area_figure(title: &str, ports: nsf_vlsi::Ports, desc: &str) {
    use nsf_vlsi::{AreaBreakdown, AreaModel, Geometry, Tech};
    let model = AreaModel::new(Tech::cmos_1p2um());
    println!("{title}: Area of register files in 1.2um CMOS ({desc})");
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>12} {:>7}",
        "Organization", "Decode um^2", "Logic um^2", "Darray um^2", "Total um^2", "Ratio"
    );
    rule(76);
    let entries: Vec<(&str, AreaBreakdown)> = vec![
        (
            "Segment 32x128",
            model.segmented(Geometry::g32x128(), ports),
        ),
        ("Segment 64x64", model.segmented(Geometry::g64x64(), ports)),
        ("NSF 32x128", model.nsf(Geometry::g32x128(), ports)),
        ("NSF 64x64", model.nsf(Geometry::g64x64(), ports)),
    ];
    let baseline = entries[0].1.total_um2();
    for (name, a) in &entries {
        println!(
            "{name:<16} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>6.0}%",
            a.decode_um2,
            a.logic_um2,
            a.darray_um2,
            a.total_um2(),
            a.total_um2() / baseline * 100.0
        );
    }
    rule(76);
    println!(
        "NSF/Segment overhead: 32x128 {:+.0}%, 64x64 {:+.0}%",
        model.nsf_overhead(Geometry::g32x128(), ports) * 100.0,
        model.nsf_overhead(Geometry::g64x64(), ports) * 100.0,
    );
    println!(
        "At a 10% register-file share, the NSF adds {:.1}% to the processor die.",
        model.processor_overhead(Geometry::g32x128(), ports, 0.10) * 100.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsf_workloads::{gatesim, quicksort};

    #[test]
    fn configs_build_and_run() {
        let w = gatesim::build(0);
        let a = measure(&w, nsf_config(SEQ_FILE_REGS));
        let b = measure(&w, segmented_config(4, SEQ_CTX_REGS));
        assert_eq!(a.instructions, b.instructions, "same program, same path");
    }

    #[test]
    fn aggregate_sums() {
        let w = quicksort::build(0);
        let r1 = measure(&w, nsf_config(PAR_FILE_REGS));
        let agg = aggregate(&[r1.clone(), r1.clone()]);
        assert_eq!(agg.instructions, 2 * r1.instructions);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.3812), " 38.1%");
        assert!(pct(0.0001).contains('%'));
    }
}
