//! Grid + render pairs for every data-driven experiment binary.
//!
//! Each submodule owns one table/figure and exposes:
//!
//! - `grid(scale) -> Sweep` — the full set of (workload, config) points,
//!   declared in output order, with every benchmark built exactly once;
//! - `render(scale, &sweep, &reports, quiet) -> String` — the printed
//!   table, a pure function of the sweep results (so it is identical
//!   for every `--threads` value).
//!
//! Binaries are thin wrappers over [`crate::figure_main`]. [`FIGURES`]
//! lists every pair once, by binary name; `perf_report` times its grids
//! and the determinism tests (`tests/harness_determinism.rs` at the
//! workspace root) check every entry.

pub mod ablations;
pub mod depth_sweep;
pub mod export_csv;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig_pipeline;
pub mod related_work;
pub mod summary;
pub mod table1;

use crate::runner::Sweep;
use crate::{
    nsf_config, nsf_lines_config, segmented_config, segmented_software_config, PAR_CTX_REGS,
    PAR_FILE_REGS, SEQ_CTX_REGS, SEQ_FILE_REGS,
};
use nsf_core::ReloadPolicy;
use nsf_sim::RunReport;
use nsf_workloads::synth::{sequential, SeqParams};

/// A figure's printed table: `(scale, sweep, reports, quiet)`.
pub type Render = fn(u32, &Sweep, &[RunReport], bool) -> String;

/// One data-driven experiment binary.
pub struct Figure {
    /// The binary's name.
    pub bin: &'static str,
    /// Its (workload, config) points at a scale.
    pub grid: fn(u32) -> Sweep,
    /// Its printed table; `None` for `export_csv`, which writes files.
    pub render: Option<Render>,
}

const fn figure(bin: &'static str, grid: fn(u32) -> Sweep, render: Option<Render>) -> Figure {
    Figure { bin, grid, render }
}

/// Every data-driven experiment binary, in binary-name order.
pub const FIGURES: &[Figure] = &[
    figure("ablations", ablations::grid, Some(ablations::render)),
    figure("depth_sweep", depth_sweep::grid, Some(depth_sweep::render)),
    figure("export_csv", export_csv::grid, None),
    figure("fig09_utilization", fig09::grid, Some(fig09::render)),
    figure("fig10_reload_traffic", fig10::grid, Some(fig10::render)),
    figure("fig11_resident_contexts", fig11::grid, Some(fig11::render)),
    figure("fig12_reload_vs_size", fig12::grid, Some(fig12::render)),
    figure("fig13_line_size", fig13::grid, Some(fig13::render)),
    figure("fig14_overhead", fig14::grid, Some(fig14::render)),
    figure(
        "fig_pipeline",
        fig_pipeline::grid,
        Some(fig_pipeline::render),
    ),
    figure(
        "related_work",
        related_work::grid,
        Some(related_work::render),
    ),
    figure("summary", summary::grid, Some(summary::render)),
    figure("table1", table1::grid, Some(table1::render)),
];

/// The number of sequential and of parallel workloads in `sweep`.
pub(crate) fn suite_lens(sweep: &Sweep) -> (usize, usize) {
    let seq_len = sweep.workloads.iter().filter(|w| !w.parallel).count();
    (seq_len, sweep.workloads.len() - seq_len)
}

/// Appends a horizontal rule (string-building form of [`crate::rule`]).
pub(crate) fn rule(out: &mut String, width: usize) {
    out.push_str(&"-".repeat(width));
    out.push('\n');
}

/// Line widths swept for the sequential suite in Figure 13.
pub(crate) const SEQ_WIDTHS: &[u8] = &[1, 2, 4, 8, 16];
/// Line widths swept for the parallel suite in Figure 13.
pub(crate) const PAR_WIDTHS: &[u8] = &[1, 2, 4, 8, 16, 32];
/// The three reload strategies of Figure 13 (curves A, B, C).
pub(crate) const RELOAD_POLICIES: [ReloadPolicy; 3] = [
    ReloadPolicy::WholeLine,
    ReloadPolicy::ValidOnly,
    ReloadPolicy::SingleRegister,
];

/// Figure 14's sequential frame count: the nearest multiple of the
/// 20-register context that reaches the paper's 128-register file
/// (6 × 20 = 120).
pub(crate) const SEQ_FRAMES: u32 = 6;

/// The Figure 9/10 pair per workload: an NSF of the suite's file size,
/// then a 4-frame segmented file of the suite's context size. Shared by
/// `fig09`, `fig10` and `summary`.
pub(crate) fn nsf_segmented_pairs(s: &mut Sweep, ws: &[usize]) {
    for &w in ws {
        let (regs, frame_regs) = if s.workloads[w].parallel {
            (PAR_FILE_REGS, PAR_CTX_REGS)
        } else {
            (SEQ_FILE_REGS, SEQ_CTX_REGS)
        };
        s.point(w, nsf_config(regs));
        s.point(w, segmented_config(4, frame_regs));
    }
}

/// Figures 9 and 10: every paper benchmark's NSF/segmented pair.
pub(crate) fn paper_pairs_grid(scale: u32) -> Sweep {
    let mut s = Sweep::new();
    let ws = s.suite(nsf_workloads::paper_suite(scale));
    nsf_segmented_pairs(&mut s, &ws);
    s
}

/// The Figure 14 overhead points: each suite under NSF,
/// hardware-assisted segmented and software-trap segmented files, one
/// contiguous run of the suite per file. Shared by `fig14` and
/// `summary`.
pub(crate) fn overhead_points(s: &mut Sweep, seq: &[usize], par: &[usize]) {
    let seq_cfgs = [
        nsf_config(SEQ_FRAMES * u32::from(SEQ_CTX_REGS)),
        segmented_config(SEQ_FRAMES, SEQ_CTX_REGS),
        segmented_software_config(SEQ_FRAMES, SEQ_CTX_REGS),
    ];
    let par_cfgs = [
        nsf_config(128),
        segmented_config(4, PAR_CTX_REGS),
        segmented_software_config(4, PAR_CTX_REGS),
    ];
    for (suite, cfgs) in [(seq, seq_cfgs), (par, par_cfgs)] {
        for cfg in cfgs {
            for &w in suite {
                s.point(w, cfg);
            }
        }
    }
}

/// The depth sweep: one synthetic recursion per
/// [`depth_sweep::DEPTHS`] entry, under an NSF and a segmented file.
/// Shared by `depth_sweep` and `export_csv`.
pub(crate) fn depth_points(s: &mut Sweep) {
    for depth in depth_sweep::DEPTHS {
        let w = s.workload(sequential(SeqParams {
            depth,
            fanout: 1,
            locals: 6,
        }));
        s.point(w, nsf_config(SEQ_FILE_REGS));
        s.point(w, segmented_config(4, SEQ_CTX_REGS));
    }
}

/// The Figure 11/12 file-size sweep: GateSim and Gamteb, both register
/// file kinds, at 2–10 context-sized frames. Shared by `fig11`, `fig12`
/// and `export_csv`. Row order per frame count: sequential NSF,
/// sequential segmented, parallel NSF, parallel segmented.
pub(crate) fn size_sweep_points(s: &mut Sweep, gatesim: usize, gamteb: usize) {
    for frames in 2..=10u32 {
        s.point(gatesim, nsf_config(frames * u32::from(SEQ_CTX_REGS)));
        s.point(gatesim, segmented_config(frames, SEQ_CTX_REGS));
        s.point(gamteb, nsf_config(frames * u32::from(PAR_CTX_REGS)));
        s.point(gamteb, segmented_config(frames, PAR_CTX_REGS));
    }
}

/// The two-workload sweep behind Figures 11 and 12.
pub(crate) fn size_sweep_grid(scale: u32) -> Sweep {
    let mut s = Sweep::new();
    let gatesim = s.workload(nsf_workloads::gatesim::build(scale));
    let gamteb = s.workload(nsf_workloads::gamteb::build(scale));
    size_sweep_points(&mut s, gatesim, gamteb);
    s
}

/// The Figure 13 line-size sweep over one suite: every width, every
/// reload policy, every workload (innermost, so each `(width, policy)`
/// cell is a contiguous chunk to aggregate).
pub(crate) fn line_size_points(s: &mut Sweep, suite: &[usize], regs: u32, widths: &[u8]) {
    for &width in widths {
        for policy in RELOAD_POLICIES {
            for &w in suite {
                s.point(w, nsf_lines_config(regs, width, policy));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::FIGURES;

    #[test]
    fn figures_are_unique_sorted_binaries() {
        assert!(
            FIGURES.windows(2).all(|w| w[0].bin < w[1].bin),
            "FIGURES must be in strict binary-name order"
        );
        let bins = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        for f in FIGURES {
            assert!(
                bins.join(format!("{}.rs", f.bin)).exists(),
                "{} is not a binary of this crate",
                f.bin
            );
        }
    }
}
