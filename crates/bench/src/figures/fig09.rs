//! Figure 9 — percentage of registers containing active data.

use super::rule;
use crate::pct;
use crate::runner::{Cursor, Sweep};
use nsf_sim::RunReport;
use std::fmt::Write;

/// Per paper benchmark: one NSF run and one 4-frame segmented run.
pub fn grid(scale: u32) -> Sweep {
    super::paper_pairs_grid(scale)
}

/// NSF max/avg utilization vs segmented avg, per benchmark.
pub fn render(scale: u32, sweep: &Sweep, reports: &[RunReport], quiet: bool) -> String {
    let mut out = String::new();
    writeln!(out, "Figure 9: Active registers (% of file), scale {scale}").unwrap();
    writeln!(
        out,
        "{:<10} {:>9} {:>9} {:>12}",
        "App", "NSF max", "NSF avg", "Segment avg"
    )
    .unwrap();
    rule(&mut out, 44);
    let mut c = Cursor::new(reports);
    for w in &sweep.workloads {
        let nsf = c.next();
        let seg = c.next();
        writeln!(
            out,
            "{:<10} {:>9} {:>9} {:>12}",
            w.name,
            pct(nsf.max_utilization()),
            pct(nsf.utilization()),
            pct(seg.utilization()),
        )
        .unwrap();
    }
    c.finish();
    rule(&mut out, 44);
    if !quiet {
        out.push_str("Paper: NSF holds active data in 70-80% of its registers — 2-3x the\n");
        out.push_str("segmented file on sequential programs, 1.3-1.5x on parallel ones.\n");
    }
    out
}
