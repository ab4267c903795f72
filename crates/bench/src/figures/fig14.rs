//! Figure 14 — register spill and reload overhead as a percentage of
//! program execution time, for NSF / segmented-HW / segmented-SW files.

use super::rule;
use crate::claims::claim;
use crate::runner::{Cursor, Sweep};
use crate::{aggregate, pct};
use nsf_sim::RunReport;
use std::fmt::Write;

/// Both suites under NSF, hardware-assisted segmented, and software-trap
/// segmented files.
pub fn grid(scale: u32) -> Sweep {
    let mut s = Sweep::new();
    let seq = s.suite(nsf_workloads::sequential_suite(scale));
    let par = s.suite(nsf_workloads::parallel_suite(scale));
    super::overhead_points(&mut s, &seq, &par);
    s
}

/// Suite-aggregated overhead, one row per suite.
pub fn render(scale: u32, sweep: &Sweep, reports: &[RunReport], quiet: bool) -> String {
    let (seq_len, par_len) = super::suite_lens(sweep);
    let mut out = String::new();
    writeln!(
        out,
        "Figure 14: Spill/reload overhead as % of execution time, scale {scale}"
    )
    .unwrap();
    writeln!(
        out,
        "{:<10} {:>10} {:>14} {:>14}",
        "Suite", "NSF", "Segment (HW)", "Segment (SW)"
    )
    .unwrap();
    rule(&mut out, 52);
    let mut c = Cursor::new(reports);
    for (name, len) in [("Serial", seq_len), ("Parallel", par_len)] {
        let nsf = aggregate(c.take(len));
        let hw = aggregate(c.take(len));
        let sw = aggregate(c.take(len));
        writeln!(
            out,
            "{:<10} {:>10} {:>14} {:>14}",
            name,
            pct(nsf.spill_overhead()),
            pct(hw.spill_overhead()),
            pct(sw.spill_overhead()),
        )
        .unwrap();
    }
    c.finish();
    rule(&mut out, 52);
    if !quiet {
        let p = claim("overhead").numbers;
        writeln!(
            out,
            "Paper: serial {:.2}% / {:.2}% / {:.2}%; parallel {:.2}% / {:.2}% / {:.2}%.",
            p[0], p[1], p[2], p[3], p[4], p[5]
        )
        .unwrap();
        out.push_str("The NSF eliminates sequential spill overhead entirely and roughly\n");
        out.push_str("halves it for parallel programs.\n");
    }
    out
}
