//! The paper's claims as data: one entry per rule the reproduction
//! checks. Each entry names the [`FIGURES`](crate::figures::FIGURES)
//! binary whose grid measures it, its source, the paper's words and
//! numbers (typed here once: `summary` and Figure 14 print them from
//! here), and a check over that figure's reports.
//!
//! The scale-0 figure goldens (`tests/figure_goldens.rs` at the
//! workspace root) build and run each figure's grid once, compare its
//! render, then run the check of every entry for that figure. A check
//! states a shape — an ordering, a bound, an envelope — never an
//! absolute number; the goldens pin the numbers.

use crate::aggregate;
use crate::figures::{ablations, depth_sweep, export_csv, fig_pipeline, suite_lens};
use crate::figures::{PAR_WIDTHS, RELOAD_POLICIES, SEQ_WIDTHS};
use crate::runner::Sweep;
use nsf_sim::RunReport;
use Source::{Model, Paper};

/// Where a claim comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// A statement of the paper, by section, figure or table.
    Paper(&'static str),
    /// A simulator invariant that any correct model must keep.
    Model,
}

/// A rule over one figure's grid and its reports, in grid order.
pub type Check = fn(&Sweep, &[RunReport]) -> Result<(), String>;

/// One checked claim.
pub struct Claim {
    /// Unique short name; a failed check is reported under it.
    pub name: &'static str,
    /// The [`FIGURES`](crate::figures::FIGURES) binary whose grid
    /// measures it.
    pub bin: &'static str,
    /// Where it comes from.
    pub source: Source,
    /// The paper's words, or the invariant's statement.
    pub words: &'static str,
    /// The paper's numbers that renders print apart from `words`, in
    /// print order.
    pub numbers: &'static [f64],
    /// The rule over `bin`'s reports; `None` for a closed-form claim
    /// that no grid measures (`tests/paper_claims.rs` pins those).
    pub check: Option<Check>,
}

/// A claim with no numbers apart from its words.
const fn rule(
    name: &'static str,
    bin: &'static str,
    source: Source,
    check: Option<Check>,
    words: &'static str,
) -> Claim {
    Claim {
        name,
        bin,
        source,
        words,
        numbers: &[],
        check,
    }
}

/// Every claim, grouped by binary in [`FIGURES`](crate::figures::FIGURES)
/// order: name, binary, source, check, then the words.
#[rustfmt::skip]
pub const CLAIMS: &[Claim] = &[
    rule("free-hints", "ablations", Paper("§4.2"), Some(free_hints),
        "The NSF can explicitly deallocate a single register after it is no longer needed"),
    rule("chain-past-frames", "depth_sweep", Model, Some(chain_past_frames),
        "A 4-frame segmented file never holds more than 4 contexts; the NSF holds more"),
    rule("csv-shapes", "export_csv", Model, Some(csv_shapes),
        "Each CSV has its documented file name, one row per swept value and no ragged row"),
    rule("active-data", "fig09_utilization", Paper("§9"), Some(active_data),
        "The NSF holds 30% to 200% more active data"),
    rule("reload-traffic", "fig10_reload_traffic", Paper("Fig. 10"), Some(reload_traffic),
        "The NSF reloads fewer registers per instruction than the segmented file"),
    rule("call-chain", "fig10_reload_traffic", Paper("§9"), Some(call_chain),
        "Can hold the entire call chain, spilling at 1e-4 the rate"),
    rule("frames-bound-contexts", "fig11_resident_contexts", Model, Some(frames_bound_contexts),
        "An N-frame segmented file never holds more than N contexts"),
    rule("call-frames", "fig11_resident_contexts", Paper("§9"), Some(call_frames),
        "Holds twice as many procedure call frames as a conventional file"),
    rule("reloads-vs-size", "fig12_reload_vs_size", Paper("Fig. 12"), Some(reloads_vs_size),
        "A larger NSF never reloads more, and reloads less than a same-size segmented file"),
    rule("line-size", "fig13_line_size", Paper("Fig. 13"), Some(line_size),
        "Whole-line reload grows with line width and moves at least live-only reload, \
         which moves at least demand reload"),
    Claim {
        // Spill overhead, % of execution time: serial NSF / segmented
        // HW / segmented SW, then parallel.
        numbers: &[0.01, 8.47, 15.54, 12.12, 26.67, 38.12],
        ..rule("overhead", "fig14_overhead", Paper("§9"), Some(overhead),
            "Speeds execution by eliminating register spills and reloads")
    },
    rule("free-switches", "fig14_overhead", Paper("§9"), Some(free_switches),
        "Context switching is very fast with the NSF, since no registers must be saved \
         or restored"),
    rule("port-pressure", "fig_pipeline", Model, Some(port_pressure),
        "CPI never rises with issue width; single issue never waits for a port, wider issue does"),
    rule("related-work", "related_work", Paper("§5"), Some(related_work),
        "The NSF's spill overhead is at most that of every alternative organization"),
    rule("access-time", "summary", Paper("§9"), None,
        "Access time is only 5% greater"),
    rule("chip-area", "summary", Paper("§9"), None,
        "16% to 50% more chip area ... only 1% to 5% of a processor"),
    rule("benchmarks", "table1", Model, Some(benchmarks),
        "Table 1 covers all nine benchmarks, and each one executes"),
    rule("grain", "table1", Paper("Table 1"), Some(grain),
        "Gamteb is the finest-grain parallel benchmark, AS and Wavefront the coarsest"),
];

/// The claim called `name`.
pub fn claim(name: &str) -> &'static Claim {
    let found = CLAIMS.iter().find(|c| c.name == name);
    found.unwrap_or_else(|| panic!("no claim named {name}"))
}

/// Returns `Err(format!(..))` from the enclosing check unless `$ok`.
macro_rules! ensure {
    ($ok:expr, $($msg:tt)+) => {
        let ok: bool = $ok;
        if !ok {
            return Err(format!($($msg)+));
        }
    };
}

/// The grid index of the workload called `name`.
fn index_of(sweep: &Sweep, name: &str) -> usize {
    let found = sweep.workloads.iter().position(|w| w.name == name);
    found.unwrap_or_else(|| panic!("{name} is not in the grid"))
}

/// Ablation 5, the last six points: plain then hinted GateSim at each
/// NSF size. Hints never add spills or reloads.
fn free_hints(_: &Sweep, reports: &[RunReport]) -> Result<(), String> {
    let study = &reports[reports.len() - 2 * ablations::HINT_REGS.len()..];
    for (regs, pair) in ablations::HINT_REGS.iter().zip(study.chunks_exact(2)) {
        let [plain, hinted] = [0, 1].map(|i| {
            let r = &pair[i].regfile;
            [r.regs_spilled, r.regs_reloaded]
        });
        let ok = hinted[0] <= plain[0] && hinted[1] <= plain[1];
        ensure!(ok, "{regs} regs: spills, reloads {hinted:?} vs {plain:?}");
    }
    Ok(())
}

/// Per depth: an NSF, then a 4-frame segmented file.
fn chain_past_frames(_: &Sweep, reports: &[RunReport]) -> Result<(), String> {
    let mut deepest_nsf = 0.0f64;
    for (depth, pair) in depth_sweep::DEPTHS.iter().zip(reports.chunks_exact(2)) {
        let max = pair[1].occupancy.max_contexts;
        ensure!(max <= 4, "depth {depth}: segmented held {max}");
        deepest_nsf = deepest_nsf.max(pair[0].occupancy.avg_contexts());
    }
    ensure!(deepest_nsf > 4.0, "NSF averaged {deepest_nsf} at most");
    Ok(())
}

fn csv_shapes(sweep: &Sweep, reports: &[RunReport]) -> Result<(), String> {
    let csvs = export_csv::csvs(sweep, reports);
    let want = [
        ("fig11_fig12_size_sweep.csv", 9),
        ("fig13_line_size.csv", SEQ_WIDTHS.len() + PAR_WIDTHS.len()),
        ("depth_sweep.csv", depth_sweep::DEPTHS.len()),
    ];
    ensure!(csvs.len() == want.len(), "{} CSVs", csvs.len());
    for (csv, (name, rows)) in csvs.iter().zip(want) {
        ensure!(csv.name == name, "{} for {name}", csv.name);
        ensure!(csv.rows.len() == rows, "{name}: {} rows", csv.rows.len());
        let cols = csv.header.split(',').count();
        let ragged = csv.rows.iter().find(|r| r.split(',').count() != cols);
        ensure!(ragged.is_none(), "{name}: ragged row {ragged:?}");
    }
    Ok(())
}

/// Per benchmark: an NSF, then a 4-frame segmented file.
fn active_data(sweep: &Sweep, reports: &[RunReport]) -> Result<(), String> {
    for (w, pair) in sweep.workloads.iter().zip(reports.chunks_exact(2)) {
        let nsf = [pair[0].max_utilization(), pair[0].utilization()];
        let seg = pair[1].utilization();
        let ok = nsf[0] >= nsf[1] && nsf[1] >= seg;
        ensure!(ok, "{}: NSF max, avg {nsf:?}; seg {seg}", w.name);
    }
    Ok(())
}

/// Per benchmark: an NSF, then a 4-frame segmented file.
fn reload_traffic(sweep: &Sweep, reports: &[RunReport]) -> Result<(), String> {
    for (w, pair) in sweep.workloads.iter().zip(reports.chunks_exact(2)) {
        let (nsf, seg) = (pair[0].reloads_per_instr(), pair[1].reloads_per_instr());
        ensure!(nsf <= seg, "{}: NSF {nsf} > segmented {seg}", w.name);
    }
    Ok(())
}

/// GateSim's pair: the 80-register NSF reloads at most 1/50 of what the
/// 4 × 20 segmented file does.
fn call_chain(sweep: &Sweep, reports: &[RunReport]) -> Result<(), String> {
    let at = 2 * index_of(sweep, "GateSim");
    let [nsf, seg] = [at, at + 1].map(|i| reports[i].regfile.regs_reloaded);
    ensure!(nsf * 50 <= seg.max(1), "NSF {nsf} vs segmented {seg}");
    Ok(())
}

/// Per frame count 2..=10: GateSim NSF and segmented, then Gamteb's.
fn frames_bound_contexts(_: &Sweep, reports: &[RunReport]) -> Result<(), String> {
    for (frames, row) in (2..=10u32).zip(reports.chunks_exact(4)) {
        for seg in [&row[1], &row[3]] {
            let held = seg.occupancy.avg_contexts();
            let ok = held <= f64::from(frames) + 1e-9;
            ensure!(ok, "{frames} frames held {held} contexts");
        }
    }
    Ok(())
}

/// GateSim at 2 to 4 frames (of 20 registers): the NSF holds at least
/// 1.5× the segmented file's resident contexts.
fn call_frames(_: &Sweep, reports: &[RunReport]) -> Result<(), String> {
    for (frames, row) in (2..=4).zip(reports.chunks_exact(4)) {
        let [nsf, seg] = [0, 1].map(|i| row[i].occupancy.avg_contexts());
        ensure!(nsf >= 1.5 * seg, "{frames} frames: NSF {nsf}, seg {seg}");
    }
    Ok(())
}

/// Per frame count, as in [`frames_bound_contexts`]: GateSim's NSF
/// reloads fall with size and stay below the same-size segmented file's.
fn reloads_vs_size(_: &Sweep, reports: &[RunReport]) -> Result<(), String> {
    let mut prev = f64::INFINITY;
    for (frames, row) in (2..=10u32).zip(reports.chunks_exact(4)) {
        let [nsf, seg] = [0, 1].map(|i| row[i].reloads_per_instr());
        let ok = nsf <= prev + 1e-12 && nsf <= seg;
        ensure!(ok, "{frames} frames: NSF {nsf} (was {prev}), seg {seg}");
        prev = nsf;
    }
    Ok(())
}

/// Per suite, width and policy (A, B, C), every workload of the suite.
/// The curves are ordered on each suite's aggregate, and on Quicksort
/// alone, where whole-line reload also grows with width.
fn line_size(sweep: &Sweep, reports: &[RunReport]) -> Result<(), String> {
    let (seq_len, par_len) = suite_lens(sweep);
    let cell = |len| RELOAD_POLICIES.len() * len;
    let par = &reports[SEQ_WIDTHS.len() * cell(seq_len)..];
    for (runs, len, widths) in [(reports, seq_len, SEQ_WIDTHS), (par, par_len, PAR_WIDTHS)] {
        for (width, runs) in widths.iter().zip(runs.chunks_exact(cell(len))) {
            let [a, b, c] = [0, 1, 2].map(|p| aggregate(&runs[p * len..][..len]));
            let [a, b, c] = [a, b, c].map(|r| r.reloads_per_instr());
            ensure!(a >= b - 1e-12 && b >= c - 1e-12, "{width}: {a} {b} {c}");
        }
    }
    let q = index_of(sweep, "Quicksort") - seq_len;
    let mut prev_a = 0;
    for (width, runs) in PAR_WIDTHS.iter().zip(par.chunks_exact(cell(par_len))) {
        let [a, b, c] = [0, 1, 2].map(|p| runs[p * par_len + q].regfile.regs_reloaded);
        let ok = a >= b && b >= c && a >= prev_a;
        ensure!(ok, "Quicksort {width}: {a} {b} {c}, A before {prev_a}");
        prev_a = a;
    }
    Ok(())
}

/// Per suite, NSF, segmented HW and segmented SW runs of every
/// workload, aggregated: overhead ordered NSF < HW < SW.
fn overhead(sweep: &Sweep, reports: &[RunReport]) -> Result<(), String> {
    let (seq_len, par_len) = suite_lens(sweep);
    let par = &reports[3 * seq_len..];
    for (suite, runs, len) in [("serial", reports, seq_len), ("parallel", par, par_len)] {
        let [nsf, hw, sw] = [0, 1, 2].map(|e| aggregate(&runs[e * len..][..len]));
        let [nsf, hw, sw] = [nsf, hw, sw].map(|r| r.spill_overhead());
        ensure!(nsf < hw && hw < sw, "{suite}: {nsf} {hw} {sw}");
    }
    Ok(())
}

/// Every parallel program switches contexts under the 128-register NSF
/// (`tests/paper_claims.rs` shows that a large NSF then spills nothing).
fn free_switches(sweep: &Sweep, reports: &[RunReport]) -> Result<(), String> {
    let seq_len = suite_lens(sweep).0;
    let nsf = &reports[3 * seq_len..];
    for (w, r) in sweep.workloads[seq_len..].iter().zip(nsf) {
        ensure!(r.context_switches > 0, "{} never switched", w.name);
    }
    Ok(())
}

/// Per suite and engine, every width, every workload of the suite.
fn port_pressure(sweep: &Sweep, reports: &[RunReport]) -> Result<(), String> {
    let (seq_len, par_len) = suite_lens(sweep);
    let widths = &fig_pipeline::WIDTHS;
    let par = &reports[3 * widths.len() * seq_len..];
    for (runs, len) in [(reports, seq_len), (par, par_len)] {
        for engine in runs.chunks_exact(widths.len() * len).take(3) {
            let mut last_cpi = f64::INFINITY;
            let mut conflicts = 0;
            for (width, runs) in widths.iter().zip(engine.chunks_exact(len)) {
                let agg = aggregate(runs);
                let (cpi, waits) = (agg.cpi(), agg.regfile.port_conflict_cycles);
                let ok = cpi <= last_cpi + 1e-12 && (*width > 1 || waits == 0);
                ensure!(ok, "width {width}: CPI {cpi}, {waits} port waits");
                last_cpi = cpi;
                conflicts += waits;
            }
            ensure!(conflicts > 0, "no port waits, CPI {last_cpi}");
        }
    }
    Ok(())
}

/// Per app: the NSF, then three alternative organizations.
fn related_work(sweep: &Sweep, reports: &[RunReport]) -> Result<(), String> {
    for (w, orgs) in sweep.workloads.iter().zip(reports.chunks_exact(4)) {
        let nsf = orgs[0].spill_overhead();
        for other in &orgs[1..] {
            let (desc, theirs) = (&other.regfile_desc, other.spill_overhead());
            ensure!(
                nsf <= theirs + 1e-12,
                "{}: {nsf} vs {desc} {theirs}",
                w.name
            );
        }
    }
    Ok(())
}

/// One NSF run per paper benchmark.
fn benchmarks(sweep: &Sweep, reports: &[RunReport]) -> Result<(), String> {
    let n = sweep.workloads.len();
    ensure!(n == 9, "{n} benchmarks");
    for (w, r) in sweep.workloads.iter().zip(reports) {
        let ran = r.instructions > 0 && r.static_instructions > 0;
        ensure!(ran, "{} executed nothing", w.name);
    }
    Ok(())
}

/// Instructions per switch under the 128-register NSF: Gamteb's is
/// under a quarter of AS's and of Wavefront's.
fn grain(sweep: &Sweep, reports: &[RunReport]) -> Result<(), String> {
    let grain = |name| reports[index_of(sweep, name)].instrs_per_switch();
    let gamteb = grain("Gamteb");
    for name in ["AS", "Wavefront"] {
        let other = grain(name);
        ensure!(gamteb * 4.0 < other, "Gamteb {gamteb} vs {name} {other}");
    }
    Ok(())
}
