//! Pipeline figure — CPI versus frontend issue width, per register file
//! organization, with register-file port pressure made visible.
//!
//! The paper's machine is single-issue; this figure asks what its
//! register file organizations cost once a scoreboarded in-order
//! frontend tries to issue more than one instruction per cycle against
//! a fixed port budget. The file is provisioned with 3 read / 2 write
//! ports (one port beyond the paper's 3-ported baseline in each
//! direction) so that typical dependent pairs co-issue while wide
//! groups still collide — the collisions are charged to
//! `port_conflict_cycles`. CAM-decoded files (the NSF) additionally pay
//! their ported access-time premium (`nsf-vlsi`) on every co-issued
//! ported access.

use super::rule;
use crate::runner::{Cursor, Sweep};
use crate::{
    aggregate, nsf_config, segmented_config, segmented_software_config, PAR_CTX_REGS, SEQ_CTX_REGS,
};
use nsf_sim::{RunReport, SimConfig};
use std::fmt::Write;

/// Issue widths swept (1 is the paper's machine and the regression
/// anchor: its reports are bit-identical to the pre-pipeline harness).
pub const WIDTHS: [u32; 3] = [1, 2, 4];

/// Read ports arbitrated per cycle, every width.
pub const READ_PORTS: u32 = 3;
/// Write ports arbitrated per cycle, every width.
pub const WRITE_PORTS: u32 = 2;

/// Sequential frames, as in Figure 14 (6 × 20 = 120 registers).
const SEQ_FRAMES: u32 = 6;

/// Widens a baseline configuration's frontend.
fn at_width(mut cfg: SimConfig, width: u32) -> SimConfig {
    cfg.issue_width = width;
    cfg.read_ports = READ_PORTS;
    cfg.write_ports = WRITE_PORTS;
    cfg
}

/// Both suites × {NSF, segmented-HW, segmented-SW} × issue widths
/// {1, 2, 4}. Workloads are innermost so every (suite, engine, width)
/// cell is a contiguous chunk to aggregate.
pub fn grid(scale: u32) -> Sweep {
    let mut s = Sweep::new();
    let seq = s.suite(nsf_workloads::sequential_suite(scale));
    let par = s.suite(nsf_workloads::parallel_suite(scale));
    let seq_engines = [
        nsf_config(SEQ_FRAMES * u32::from(SEQ_CTX_REGS)),
        segmented_config(SEQ_FRAMES, SEQ_CTX_REGS),
        segmented_software_config(SEQ_FRAMES, SEQ_CTX_REGS),
    ];
    let par_engines = [
        nsf_config(128),
        segmented_config(4, PAR_CTX_REGS),
        segmented_software_config(4, PAR_CTX_REGS),
    ];
    for (suite, engines) in [(&seq, seq_engines), (&par, par_engines)] {
        for cfg in engines {
            for width in WIDTHS {
                for &w in suite.iter() {
                    s.point(w, at_width(cfg, width));
                }
            }
        }
    }
    s
}

/// Port-conflict stall cycles per thousand instructions.
fn conflicts_per_ki(r: &RunReport) -> f64 {
    1000.0 * r.regfile.port_conflict_cycles as f64 / r.instructions.max(1) as f64
}

/// One row per (suite, engine): CPI at each width, and the port
/// pressure the multi-issue widths ran into.
pub fn render(scale: u32, sweep: &Sweep, reports: &[RunReport], quiet: bool) -> String {
    let (seq_len, par_len) = super::suite_lens(sweep);
    let mut out = String::new();
    writeln!(
        out,
        "Pipeline figure: CPI vs issue width ({READ_PORTS}R/{WRITE_PORTS}W file), scale {scale}"
    )
    .unwrap();
    writeln!(
        out,
        "{:<10} {:<14} {:>7} {:>7} {:>7} {:>10} {:>10}",
        "Suite", "Engine", "CPI@1", "CPI@2", "CPI@4", "conf/ki@2", "conf/ki@4"
    )
    .unwrap();
    rule(&mut out, 70);
    let mut c = Cursor::new(reports);
    for (suite, len) in [("Serial", seq_len), ("Parallel", par_len)] {
        for engine in ["NSF", "Segment (HW)", "Segment (SW)"] {
            let by_width: Vec<RunReport> = WIDTHS.iter().map(|_| aggregate(c.take(len))).collect();
            writeln!(
                out,
                "{:<10} {:<14} {:>7.3} {:>7.3} {:>7.3} {:>10.2} {:>10.2}",
                suite,
                engine,
                by_width[0].cpi(),
                by_width[1].cpi(),
                by_width[2].cpi(),
                conflicts_per_ki(&by_width[1]),
                conflicts_per_ki(&by_width[2]),
            )
            .unwrap();
        }
    }
    c.finish();
    rule(&mut out, 70);
    if !quiet {
        out.push_str("CPI is non-increasing in issue width for every organization; the\n");
        out.push_str("conf/ki columns count frontend stall cycles whose sole cause was\n");
        out.push_str("running out of register file ports. The NSF rows also charge the\n");
        out.push_str("CAM's ported access-time premium on every co-issued access, so\n");
        out.push_str("their width gains are slightly smaller than the segmented rows'.\n");
    }
    out
}
