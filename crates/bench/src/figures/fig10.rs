//! Figure 10 — registers reloaded as a percentage of instructions.

use super::rule;
use crate::pct;
use crate::runner::{Cursor, Sweep};
use nsf_sim::RunReport;
use std::fmt::Write;

/// Per paper benchmark: one NSF run and one 4-frame segmented run.
pub fn grid(scale: u32) -> Sweep {
    super::paper_pairs_grid(scale)
}

/// Reload traffic per benchmark: NSF, segmented, segmented live-only.
pub fn render(scale: u32, sweep: &Sweep, reports: &[RunReport], quiet: bool) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 10: Registers reloaded as % of instructions, scale {scale}"
    )
    .unwrap();
    writeln!(
        out,
        "{:<10} {:>10} {:>10} {:>14} {:>10}",
        "App", "NSF", "Segment", "Segment live", "Seg/NSF"
    )
    .unwrap();
    rule(&mut out, 60);
    let mut c = Cursor::new(reports);
    for w in &sweep.workloads {
        let nsf = c.next();
        let seg = c.next();
        let ratio = if nsf.reloads_per_instr() > 0.0 {
            seg.reloads_per_instr() / nsf.reloads_per_instr()
        } else {
            f64::INFINITY
        };
        writeln!(
            out,
            "{:<10} {:>10} {:>10} {:>14} {:>9.0}x",
            w.name,
            pct(nsf.reloads_per_instr()),
            pct(seg.reloads_per_instr()),
            pct(seg.live_reloads_per_instr()),
            ratio,
        )
        .unwrap();
    }
    c.finish();
    rule(&mut out, 60);
    if !quiet {
        out.push_str("Paper: segmented reloads 1,000-10,000x the NSF on sequential code and\n");
        out.push_str("10-40x on parallel code; live-only reloading still trails the NSF.\n");
    }
    out
}
