//! The sweep figures (11, 12, 13 and the depth sweep) as CSV rows for
//! replotting. The binary writes them under `results/`; the pure
//! [`csvs`] function is what tests compare across thread counts.

use super::depth_sweep::DEPTHS;
use super::{
    depth_points, line_size_points, size_sweep_points, PAR_WIDTHS, RELOAD_POLICIES, SEQ_WIDTHS,
};
use crate::aggregate;
use crate::runner::{Cursor, Sweep};
use nsf_sim::RunReport;

/// One CSV file: name under `results/`, header line, data rows.
pub struct Csv {
    /// File name (e.g. `fig13_line_size.csv`).
    pub name: &'static str,
    /// Comma-separated header line.
    pub header: &'static str,
    /// Formatted data rows.
    pub rows: Vec<String>,
}

/// Every simulation behind the three CSVs, with each benchmark built
/// once (GateSim and Gamteb serve both the size sweep and Figure 13).
pub fn grid(scale: u32) -> Sweep {
    let mut s = Sweep::new();
    let seq = s.suite(nsf_workloads::sequential_suite(scale));
    let par = s.suite(nsf_workloads::parallel_suite(scale));
    let gatesim = find(&s, "GateSim");
    let gamteb = find(&s, "Gamteb");

    // Figures 11 + 12: file-size sweep.
    size_sweep_points(&mut s, gatesim, gamteb);
    // Figure 13: line-size sweep over both suites.
    line_size_points(&mut s, &seq, crate::SEQ_FILE_REGS, SEQ_WIDTHS);
    line_size_points(&mut s, &par, crate::PAR_FILE_REGS, PAR_WIDTHS);
    // Depth sweep (mechanism study).
    depth_points(&mut s);
    s
}

fn find(s: &Sweep, name: &str) -> usize {
    s.workloads
        .iter()
        .position(|w| w.name == name)
        .unwrap_or_else(|| panic!("{name} not in the registered suites"))
}

/// Renders the sweep results as the three CSV files, in write order.
pub fn csvs(sweep: &Sweep, reports: &[RunReport]) -> Vec<Csv> {
    let seq_len = sweep
        .workloads
        .iter()
        .filter(|w| !w.parallel && w.name != "SynthSeq")
        .count();
    let par_len = sweep.workloads.iter().filter(|w| w.parallel).count();
    let mut c = Cursor::new(reports);

    let mut size_rows = Vec::new();
    for frames in 2..=10u32 {
        let [sn, ss, pn, ps] = [c.next(), c.next(), c.next(), c.next()];
        size_rows.push(format!(
            "{frames},{:.4},{:.4},{:.4},{:.4},{:.6},{:.6},{:.6},{:.6}",
            sn.occupancy.avg_contexts(),
            ss.occupancy.avg_contexts(),
            pn.occupancy.avg_contexts(),
            ps.occupancy.avg_contexts(),
            sn.reloads_per_instr(),
            ss.reloads_per_instr(),
            pn.reloads_per_instr(),
            ps.reloads_per_instr(),
        ));
    }

    let mut line_rows = Vec::new();
    for (parallel, widths, len) in [(false, SEQ_WIDTHS, seq_len), (true, PAR_WIDTHS, par_len)] {
        for &width in widths {
            let cells: Vec<String> = RELOAD_POLICIES
                .iter()
                .map(|_| format!("{:.6}", aggregate(c.take(len)).reloads_per_instr()))
                .collect();
            line_rows.push(format!(
                "{},{width},{}",
                if parallel { "parallel" } else { "sequential" },
                cells.join(",")
            ));
        }
    }

    let mut depth_rows = Vec::new();
    for depth in DEPTHS {
        let n = c.next();
        let s = c.next();
        depth_rows.push(format!(
            "{depth},{:.4},{:.4},{:.6},{:.6}",
            n.occupancy.avg_contexts(),
            s.occupancy.avg_contexts(),
            n.reloads_per_instr(),
            s.reloads_per_instr(),
        ));
    }
    c.finish();

    vec![
        Csv {
            name: "fig11_fig12_size_sweep.csv",
            header: "frames,seq_nsf_contexts,seq_seg_contexts,par_nsf_contexts,par_seg_contexts,\
                     seq_nsf_reloads_per_instr,seq_seg_reloads_per_instr,\
                     par_nsf_reloads_per_instr,par_seg_reloads_per_instr",
            rows: size_rows,
        },
        Csv {
            name: "fig13_line_size.csv",
            header: "suite,regs_per_line,whole_line,valid_only,single_register",
            rows: line_rows,
        },
        Csv {
            name: "depth_sweep.csv",
            header: "depth,nsf_contexts,seg_contexts,nsf_reloads_per_instr,seg_reloads_per_instr",
            rows: depth_rows,
        },
    ]
}
