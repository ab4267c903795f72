//! Scale-0 smoke tests for every migrated figure: each grid runs through
//! the library API (no subprocesses) and its results must satisfy the
//! paper's qualitative shape, not just print something.

use nsf_bench::aggregate;
use nsf_bench::figures;
use nsf_bench::runner::{Cursor, Sweep};

fn run0(grid: fn(u32) -> Sweep) -> (Sweep, Vec<nsf_sim::RunReport>) {
    let sweep = grid(0);
    let reports = sweep.run(1);
    (sweep, reports)
}

#[test]
fn table1_lists_every_paper_benchmark() {
    let (sweep, reports) = run0(figures::table1::grid);
    assert_eq!(
        sweep.workloads.len(),
        9,
        "Table 1 covers all nine benchmarks"
    );
    for (i, r) in reports.iter().enumerate() {
        assert!(
            r.instructions > 0,
            "{} executed nothing",
            sweep.workload_of(i).name
        );
        assert!(r.static_instructions > 0);
    }
    let out = figures::table1::render(0, &sweep, &reports, false);
    for w in &sweep.workloads {
        assert!(out.contains(w.name), "Table 1 missing {}", w.name);
    }
}

#[test]
fn fig09_nsf_utilization_dominates_segmented() {
    let (sweep, reports) = run0(figures::fig09::grid);
    let mut c = Cursor::new(&reports);
    for w in &sweep.workloads {
        let nsf = c.next();
        let seg = c.next();
        assert!(
            nsf.utilization() >= seg.utilization(),
            "{}: NSF avg utilization {} below segmented {}",
            w.name,
            nsf.utilization(),
            seg.utilization()
        );
        assert!(
            nsf.max_utilization() >= nsf.utilization(),
            "{}: max utilization below average",
            w.name
        );
    }
    c.finish();
}

#[test]
fn fig10_nsf_never_reloads_more_than_segmented() {
    let (sweep, reports) = run0(figures::fig10::grid);
    let mut c = Cursor::new(&reports);
    for w in &sweep.workloads {
        let nsf = c.next();
        let seg = c.next();
        assert!(
            nsf.reloads_per_instr() <= seg.reloads_per_instr(),
            "{}: NSF reloads {} exceed segmented {}",
            w.name,
            nsf.reloads_per_instr(),
            seg.reloads_per_instr()
        );
    }
    c.finish();
}

#[test]
fn fig11_segmented_contexts_bounded_by_frames() {
    let (sweep, reports) = run0(figures::fig11::grid);
    let mut c = Cursor::new(&reports);
    for frames in 2..=10u32 {
        let [_seq_nsf, seq_seg, _par_nsf, par_seg] = [c.next(), c.next(), c.next(), c.next()];
        // An N-frame segmented file can never hold more than N contexts.
        assert!(seq_seg.occupancy.avg_contexts() <= f64::from(frames) + 1e-9);
        assert!(par_seg.occupancy.avg_contexts() <= f64::from(frames) + 1e-9);
    }
    c.finish();
    assert!(!figures::fig11::render(0, &sweep, &reports, true).is_empty());
}

#[test]
fn fig12_reloads_shrink_with_file_size() {
    let (sweep, reports) = run0(figures::fig12::grid);
    let mut c = Cursor::new(&reports);
    let mut prev_seq = f64::INFINITY;
    for _frames in 2..=10u32 {
        let [seq_nsf, seq_seg, _par_nsf, _par_seg] = [c.next(), c.next(), c.next(), c.next()];
        // Growing the NSF never increases sequential reload traffic.
        assert!(seq_nsf.reloads_per_instr() <= prev_seq + 1e-12);
        prev_seq = seq_nsf.reloads_per_instr();
        assert!(seq_nsf.reloads_per_instr() <= seq_seg.reloads_per_instr());
    }
    c.finish();
    assert!(!figures::fig12::render(0, &sweep, &reports, true).is_empty());
}

#[test]
fn fig13_demand_reload_beats_whole_line() {
    let (sweep, reports) = run0(figures::fig13::grid);
    let seq_len = sweep.workloads.iter().filter(|w| !w.parallel).count();
    let par_len = sweep.workloads.len() - seq_len;
    let mut c = Cursor::new(&reports);
    for (widths, len) in [
        (&[1u8, 2, 4, 8, 16][..], seq_len),
        (&[1, 2, 4, 8, 16, 32][..], par_len),
    ] {
        for _width in widths {
            let whole = aggregate(c.take(len)).reloads_per_instr();
            let live = aggregate(c.take(len)).reloads_per_instr();
            let active = aggregate(c.take(len)).reloads_per_instr();
            // Curve ordering: counting empty slots (A) >= live-only (B)
            // >= demand/active (C).
            assert!(whole >= live - 1e-12, "whole-line {whole} < live {live}");
            assert!(live >= active - 1e-12, "live {live} < active {active}");
        }
    }
    c.finish();
}

#[test]
fn fig14_overhead_orders_nsf_hw_sw() {
    let (sweep, reports) = run0(figures::fig14::grid);
    let seq_len = sweep.workloads.iter().filter(|w| !w.parallel).count();
    let par_len = sweep.workloads.len() - seq_len;
    let mut c = Cursor::new(&reports);
    for (suite, len) in [("serial", seq_len), ("parallel", par_len)] {
        let nsf = aggregate(c.take(len)).spill_overhead();
        let hw = aggregate(c.take(len)).spill_overhead();
        let sw = aggregate(c.take(len)).spill_overhead();
        assert!(
            nsf < hw,
            "{suite}: NSF overhead {nsf} not below segmented-HW {hw}"
        );
        assert!(
            hw < sw,
            "{suite}: segmented-HW {hw} not below segmented-SW {sw}"
        );
    }
    c.finish();
}

#[test]
fn fig_pipeline_cpi_non_increasing_with_port_pressure() {
    let (sweep, reports) = run0(figures::fig_pipeline::grid);
    let seq_len = sweep.workloads.iter().filter(|w| !w.parallel).count();
    let par_len = sweep.workloads.len() - seq_len;
    let widths = figures::fig_pipeline::WIDTHS;
    let mut c = Cursor::new(&reports);
    for (suite, len) in [("serial", seq_len), ("parallel", par_len)] {
        for engine in ["NSF", "segmented-HW", "segmented-SW"] {
            let mut last_cpi = f64::INFINITY;
            let mut conflicts = 0u64;
            for width in widths {
                let agg = aggregate(c.take(len));
                let cpi = agg.cpi();
                assert!(
                    cpi <= last_cpi + 1e-12,
                    "{suite}/{engine}: CPI rose from {last_cpi} to {cpi} at width {width}"
                );
                last_cpi = cpi;
                if width == 1 {
                    assert_eq!(
                        agg.regfile.port_conflict_cycles, 0,
                        "{suite}/{engine}: single issue never arbitrates ports"
                    );
                } else {
                    conflicts += agg.regfile.port_conflict_cycles;
                }
            }
            assert!(
                conflicts > 0,
                "{suite}/{engine}: multi-issue widths never hit a port limit"
            );
        }
    }
    c.finish();
    assert!(!figures::fig_pipeline::render(0, &sweep, &reports, true).is_empty());
}

#[test]
fn ablations_render_covers_all_five_studies() {
    let (sweep, reports) = run0(figures::ablations::grid);
    let out = figures::ablations::render(0, &sweep, &reports, false);
    for study in 1..=5 {
        assert!(
            out.contains(&format!("Ablation {study}:")),
            "missing ablation {study}"
        );
    }
}

#[test]
fn related_work_nsf_beats_every_alternative_on_overhead() {
    let (sweep, reports) = run0(figures::related_work::grid);
    let mut c = Cursor::new(&reports);
    for w in &sweep.workloads {
        let nsf = c.next();
        for _ in 0..3 {
            let other = c.next();
            assert!(
                nsf.spill_overhead() <= other.spill_overhead() + 1e-12,
                "{}: NSF overhead above {}",
                w.name,
                other.regfile_desc
            );
        }
    }
    c.finish();
}

#[test]
fn depth_sweep_nsf_tracks_chain_past_segmented_saturation() {
    let (_sweep, reports) = run0(figures::depth_sweep::grid);
    let mut c = Cursor::new(&reports);
    let mut deepest_nsf = 0.0f64;
    for _depth in figures::depth_sweep::DEPTHS {
        let n = c.next();
        let s = c.next();
        assert!(
            s.occupancy.max_contexts <= 4,
            "4-frame segmented file overfull"
        );
        deepest_nsf = deepest_nsf.max(n.occupancy.avg_contexts());
    }
    c.finish();
    assert!(
        deepest_nsf > 4.0,
        "NSF never held more than the segmented frame count"
    );
}

#[test]
fn summary_renders_all_six_claims() {
    let (sweep, reports) = run0(figures::summary::grid);
    let out = figures::summary::render(0, &sweep, &reports, false);
    for claim in 1..=6 {
        assert!(
            out.contains(&format!("{claim}. \"")),
            "missing claim {claim}"
        );
    }
}

#[test]
fn export_csv_shapes_match_documented_sweeps() {
    let (sweep, reports) = run0(figures::export_csv::grid);
    let csvs = figures::export_csv::csvs(&sweep, &reports);
    assert_eq!(csvs[0].name, "fig11_fig12_size_sweep.csv");
    assert_eq!(csvs[0].rows.len(), 9, "frames 2..=10");
    assert_eq!(csvs[1].name, "fig13_line_size.csv");
    assert_eq!(
        csvs[1].rows.len(),
        5 + 6,
        "five sequential + six parallel widths"
    );
    assert_eq!(csvs[2].name, "depth_sweep.csv");
    assert_eq!(csvs[2].rows.len(), figures::depth_sweep::DEPTHS.len());
    for csv in &csvs {
        let cols = csv.header.split(',').count();
        for row in &csv.rows {
            assert_eq!(
                row.split(',').count(),
                cols,
                "{}: ragged row {row}",
                csv.name
            );
        }
    }
}
