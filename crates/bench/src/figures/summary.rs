//! One-page digest: the paper's conclusion bullets (§9), each measured
//! in a single sweep (claims 5–6 are closed-form VLSI models and are
//! evaluated at render time).

use crate::aggregate;
use crate::claims::claim;
use crate::runner::{Cursor, Sweep};
use nsf_sim::RunReport;
use nsf_vlsi::{AreaModel, Geometry, Ports, Tech, TimingModel};
use std::fmt::Write;

/// Claims 1–3: per-benchmark NSF/segmented pairs (the GateSim pair
/// doubles as the claim 2/3 measurement). Claim 4: the Figure 14 grid.
pub fn grid(scale: u32) -> Sweep {
    let mut s = Sweep::new();
    let seq = s.suite(nsf_workloads::sequential_suite(scale));
    let par = s.suite(nsf_workloads::parallel_suite(scale));
    super::nsf_segmented_pairs(&mut s, &[&seq[..], &par[..]].concat());
    super::overhead_points(&mut s, &seq, &par);
    s
}

/// The six conclusion bullets, measured; their words and the paper's
/// numbers come from [`crate::claims::CLAIMS`].
pub fn render(scale: u32, sweep: &Sweep, reports: &[RunReport], _quiet: bool) -> String {
    let (seq_len, par_len) = super::suite_lens(sweep);
    let mut out = String::new();
    writeln!(
        out,
        "The Named-State Register File — reproduction digest (scale {scale})"
    )
    .unwrap();
    writeln!(
        out,
        "Paper claims (§9) vs this repository's measurements:\n"
    )
    .unwrap();
    let words = |n: usize, name: &str| format!("{n}. \"{}\"\n", claim(name).words);

    let mut c = Cursor::new(reports);

    // Claim 1: more active data than a conventional file of the same
    // size, per benchmark (the paper gives a band, not an aggregate).
    let mut ratios = Vec::new();
    let mut gatesim_pair: Option<(&RunReport, &RunReport)> = None;
    for w in &sweep.workloads {
        let n = c.next();
        let s = c.next();
        if s.utilization() > 0.0 {
            ratios.push(n.utilization() / s.utilization());
        }
        if w.name == "GateSim" {
            gatesim_pair = Some((n, s));
        }
    }
    ratios.sort_by(f64::total_cmp);
    let more = |r: f64| (r - 1.0) * 100.0;
    writeln!(
        out,
        "{}   -> measured per benchmark: min {:.0}%, median {:.0}%, max {:.0}% more ({} benchmarks)\n",
        words(1, "active-data"),
        more(ratios[0]),
        more(ratios[(ratios.len() - 1) / 2]),
        more(ratios[ratios.len() - 1]),
        ratios.len()
    )
    .unwrap();

    // Claims 2 and 3 reuse the claim-1 GateSim pair (same configurations:
    // 80-register NSF vs the 4-frame, 20-register segmented file).
    let (n, s) = gatesim_pair.expect("GateSim in the sequential suite");
    writeln!(
        out,
        "{}   -> measured (GateSim, 80 regs): NSF {:.1} vs segmented {:.1} resident contexts\n",
        words(2, "call-frames"),
        n.occupancy.avg_contexts(),
        s.occupancy.avg_contexts()
    )
    .unwrap();
    writeln!(
        out,
        "{}   -> measured (GateSim): NSF {} reloads vs segmented {} ({} instructions)\n",
        words(3, "call-chain"),
        n.regfile.regs_reloaded,
        s.regfile.regs_reloaded,
        n.instructions
    )
    .unwrap();

    // Claim 4: execution overhead (Figure 14).
    let mut overhead = |len| aggregate(c.take(len)).spill_overhead() * 100.0;
    let serial = [seq_len; 3].map(&mut overhead);
    let parallel = [par_len; 3].map(&mut overhead);
    c.finish();
    let paper = claim("overhead").numbers;
    writeln!(
        out,
        "{}   -> overhead serial:   NSF {:.2}%  seg-HW {:.2}%  seg-SW {:.2}%  (paper {:.2}/{:.2}/{:.2})\n   -> overhead parallel: NSF {:.2}%  seg-HW {:.2}%  seg-SW {:.2}%  (paper {:.1}/{:.1}/{:.1})\n",
        words(4, "overhead"),
        serial[0], serial[1], serial[2], paper[0], paper[1], paper[2],
        parallel[0], parallel[1], parallel[2], paper[3], paper[4], paper[5],
    )
    .unwrap();

    // Claims 5 & 6: implementation cost (closed-form VLSI models).
    let t = TimingModel::new(Tech::cmos_1p2um());
    let a = AreaModel::new(Tech::cmos_1p2um());
    writeln!(
        out,
        "{}   -> measured: +{:.1}% (32x128), +{:.1}% (64x64)\n",
        words(5, "access-time"),
        t.nsf_overhead(Geometry::g32x128()) * 100.0,
        t.nsf_overhead(Geometry::g64x64()) * 100.0,
    )
    .unwrap();
    writeln!(
        out,
        "{}   -> measured: +{:.0}% to +{:.0}% file area; {:.1}% of a die at a 10% file share",
        words(6, "chip-area"),
        a.nsf_overhead(Geometry::g64x64(), Ports::six()) * 100.0,
        a.nsf_overhead(Geometry::g32x128(), Ports::three()) * 100.0,
        a.processor_overhead(Geometry::g32x128(), Ports::three(), 0.10) * 100.0,
    )
    .unwrap();
    out
}
