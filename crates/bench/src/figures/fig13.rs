//! Figure 13 — registers reloaded vs line size, for three reload
//! strategies (whole line, live only, active/demand).

use super::{line_size_points, rule, PAR_WIDTHS, RELOAD_POLICIES, SEQ_WIDTHS};
use crate::runner::{Cursor, Sweep};
use crate::{aggregate, pct, PAR_FILE_REGS, SEQ_FILE_REGS};
use nsf_sim::RunReport;
use std::fmt::Write;

/// Both suites, every line width, every reload strategy.
pub fn grid(scale: u32) -> Sweep {
    let mut s = Sweep::new();
    let seq = s.suite(nsf_workloads::sequential_suite(scale));
    line_size_points(&mut s, &seq, SEQ_FILE_REGS, SEQ_WIDTHS);
    let par = s.suite(nsf_workloads::parallel_suite(scale));
    line_size_points(&mut s, &par, PAR_FILE_REGS, PAR_WIDTHS);
    s
}

/// Suite-aggregated reload traffic per (line width, strategy) cell.
pub fn render(scale: u32, sweep: &Sweep, reports: &[RunReport], quiet: bool) -> String {
    let (seq_len, par_len) = super::suite_lens(sweep);
    let mut out = String::new();
    writeln!(
        out,
        "Figure 13: Registers reloaded (% of instructions) vs line size, scale {scale}"
    )
    .unwrap();
    let mut c = Cursor::new(reports);
    for (parallel, regs, widths, len) in [
        (false, SEQ_FILE_REGS, SEQ_WIDTHS, seq_len),
        (true, PAR_FILE_REGS, PAR_WIDTHS, par_len),
    ] {
        writeln!(
            out,
            "\n{} applications ({} registers):",
            if parallel { "Parallel" } else { "Sequential" },
            regs
        )
        .unwrap();
        writeln!(
            out,
            "{:<10} {:>14} {:>14} {:>14}",
            "Regs/line", "A: whole line", "B: live only", "C: active"
        )
        .unwrap();
        rule(&mut out, 56);
        for &width in widths {
            let cells: Vec<String> = RELOAD_POLICIES
                .iter()
                .map(|_| pct(aggregate(c.take(len)).reloads_per_instr()))
                .collect();
            writeln!(
                out,
                "{:<10} {:>14} {:>14} {:>14}",
                width, cells[0], cells[1], cells[2]
            )
            .unwrap();
        }
    }
    c.finish();
    out.push('\n');
    rule(&mut out, 56);
    if !quiet {
        out.push_str("Paper: an NSF with single-word lines reloads only 25% as many registers\n");
        out.push_str("as a tagged segmented file on parallel code; fine-grain associative\n");
        out.push_str("addressing matters more than valid bits alone.\n");
    }
    out
}
