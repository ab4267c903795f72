//! One-page digest: the paper's conclusion bullets (§9), each measured
//! in a single sweep (claims 5–6 are closed-form VLSI models and are
//! evaluated at render time).

use crate::aggregate;
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

/// The six conclusion bullets, measured.
pub fn render(scale: u32, sweep: &Sweep, reports: &[RunReport], _quiet: bool) -> String {
    let seq_len = sweep.workloads.iter().filter(|w| !w.parallel).count();
    let par_len = sweep.workloads.len() - seq_len;
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

    let mut c = Cursor::new(reports);

    // Claim 1: more active data than a conventional file of the same size.
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
    let max_ratio = ratios.iter().cloned().fold(0.0f64, f64::max);
    writeln!(
        out,
        "1. \"The NSF holds 30% to 200% more active data\"\n   -> measured: up to {:.0}% more ({} benchmarks)\n",
        (max_ratio - 1.0) * 100.0,
        ratios.len()
    )
    .unwrap();

    // Claims 2 and 3 reuse the claim-1 GateSim pair (same configurations:
    // 80-register NSF vs the 4-frame, 20-register segmented file).
    let (n, s) = gatesim_pair.expect("GateSim in the sequential suite");
    writeln!(
        out,
        "2. \"Holds twice as many procedure call frames as a conventional file\"\n   -> measured (GateSim, 80 regs): NSF {:.1} vs segmented {:.1} resident contexts\n",
        n.occupancy.avg_contexts(),
        s.occupancy.avg_contexts()
    )
    .unwrap();
    writeln!(
        out,
        "3. \"Can hold the entire call chain, spilling at 1e-4 the rate\"\n   -> measured (GateSim): NSF {} reloads vs segmented {} ({} instructions)\n",
        n.regfile.regs_reloaded, s.regfile.regs_reloaded, n.instructions
    )
    .unwrap();

    // Claim 4: execution overhead (Figure 14).
    let nsf_ser = aggregate(c.take(seq_len));
    let hw_ser = aggregate(c.take(seq_len));
    let sw_ser = aggregate(c.take(seq_len));
    let nsf_par = aggregate(c.take(par_len));
    let hw_par = aggregate(c.take(par_len));
    let sw_par = aggregate(c.take(par_len));
    c.finish();
    writeln!(
        out,
        "4. \"Speeds execution by eliminating register spills and reloads\"\n   -> overhead serial:   NSF {:.2}%  seg-HW {:.2}%  seg-SW {:.2}%  (paper 0.01/8.47/15.54)\n   -> overhead parallel: NSF {:.2}%  seg-HW {:.2}%  seg-SW {:.2}%  (paper 12.1/26.7/38.1)\n",
        nsf_ser.spill_overhead() * 100.0,
        hw_ser.spill_overhead() * 100.0,
        sw_ser.spill_overhead() * 100.0,
        nsf_par.spill_overhead() * 100.0,
        hw_par.spill_overhead() * 100.0,
        sw_par.spill_overhead() * 100.0,
    )
    .unwrap();

    // Claims 5 & 6: implementation cost (closed-form VLSI models).
    let t = TimingModel::new(Tech::cmos_1p2um());
    let a = AreaModel::new(Tech::cmos_1p2um());
    writeln!(
        out,
        "5. \"Access time is only 5% greater\"\n   -> measured: +{:.1}% (32x128), +{:.1}% (64x64)\n",
        t.nsf_overhead(Geometry::g32x128()) * 100.0,
        t.nsf_overhead(Geometry::g64x64()) * 100.0,
    )
    .unwrap();
    writeln!(
        out,
        "6. \"16% to 50% more chip area ... only 1% to 5% of a processor\"\n   -> measured: +{:.0}% to +{:.0}% file area; {:.1}% of a die at a 10% file share",
        a.nsf_overhead(Geometry::g64x64(), Ports::six()) * 100.0,
        a.nsf_overhead(Geometry::g32x128(), Ports::three()) * 100.0,
        a.processor_overhead(Geometry::g32x128(), Ports::three(), 0.10) * 100.0,
    )
    .unwrap();
    out
}
