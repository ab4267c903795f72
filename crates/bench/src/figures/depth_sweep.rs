//! Mechanism exposition: call-chain depth → resident contexts. The
//! synthetic recursion sweeps depth at fixed shape, so the grid is the
//! same at every `--scale` (the seed binary ignored scale too).

use super::rule;
use crate::pct;
use crate::runner::{Cursor, Sweep};
use nsf_sim::RunReport;
use std::fmt::Write;

/// Call-chain depths swept.
pub const DEPTHS: [u32; 7] = [2, 4, 6, 8, 12, 16, 24];

/// One synthetic recursion per depth, under NSF and segmented files.
pub fn grid(_scale: u32) -> Sweep {
    let mut s = Sweep::new();
    super::depth_points(&mut s);
    s
}

/// Resident contexts and reload traffic per depth.
pub fn render(_scale: u32, _sweep: &Sweep, reports: &[RunReport], quiet: bool) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Call-chain depth sweep (synthetic recursion, 6 locals/activation)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<8} {:>12} {:>14} {:>12} {:>14}",
        "Depth", "NSF contexts", "Seg contexts", "NSF reloads", "Seg reloads"
    )
    .unwrap();
    rule(&mut out, 64);
    let mut c = Cursor::new(reports);
    for depth in DEPTHS {
        let n = c.next();
        let s = c.next();
        writeln!(
            out,
            "{:<8} {:>12.2} {:>14.2} {:>12} {:>14}",
            depth,
            n.occupancy.avg_contexts(),
            s.occupancy.avg_contexts(),
            pct(n.reloads_per_instr()),
            pct(s.reloads_per_instr()),
        )
        .unwrap();
    }
    c.finish();
    rule(&mut out, 64);
    if !quiet {
        out.push_str("The segmented file cannot hold more than its 4 frames no matter the\n");
        out.push_str("chain; the NSF keeps absorbing activations until its 80 registers\n");
        out.push_str("fill, and even then demand-reloads only what returns actually touch.\n");
    }
    out
}
