//! Integration: the paper's headline quantitative claims, asserted as
//! envelope tests over the reproduced system (shape, not absolute
//! numbers — see EXPERIMENTS.md).
//!
//! Each test builds its own configurations, so it does not go through
//! the figure grids: it cross-checks the matching `nsf_bench::claims`
//! rule, which `tests/figure_goldens.rs` runs over those grids.

use nsf::core::{NsfConfig, ReloadPolicy};
use nsf::sim::{RegFileSpec, SimConfig};
use nsf::vlsi::{AreaModel, Geometry, Ports, Tech, TimingModel};
use nsf::workloads::{self, run};

fn nsf_cfg(regs: u32) -> SimConfig {
    SimConfig::with_regfile(RegFileSpec::paper_nsf(regs))
}

fn seg_cfg(frames: u32, frame_regs: u8) -> SimConfig {
    SimConfig::with_regfile(RegFileSpec::paper_segmented(frames, frame_regs))
}

/// "Context switching is very fast with the NSF, since no registers must
/// be saved or restored" — switch stall cycles are identically zero.
#[test]
fn claim_nsf_context_switches_are_free() {
    for w in workloads::parallel_suite(0) {
        let r = run(&w, nsf_cfg(128)).unwrap();
        // All spill/reload cycles come from demand misses, never from
        // switch_to; verify indirectly: a gigantic NSF has zero overhead.
        let big = run(&w, nsf_cfg(4096)).unwrap();
        assert_eq!(
            big.regfile.spill_reload_cycles, 0,
            "{}: an NSF bigger than the working set must never spill",
            w.name
        );
        assert!(r.context_switches > 0);
    }
}

/// "The NSF can hold the entire call chain of a large sequential
/// application, spilling registers at 1e-4 the rate of a conventional
/// file."
#[test]
fn claim_sequential_call_chains_fit() {
    let w = workloads::gatesim::build(0);
    let nsf = run(&w, nsf_cfg(80)).unwrap();
    let seg = run(&w, seg_cfg(4, 20)).unwrap();
    assert!(
        nsf.regfile.regs_reloaded * 50 <= seg.regfile.regs_reloaded.max(1),
        "NSF {} vs segmented {} reloads",
        nsf.regfile.regs_reloaded,
        seg.regfile.regs_reloaded
    );
}

/// Figure 14 ordering: NSF < segmented-HW < segmented-SW overhead, on
/// the parallel aggregate.
#[test]
fn claim_overhead_ordering() {
    let mut totals = [0u64; 3];
    let mut cycles = [0u64; 3];
    for w in workloads::parallel_suite(0) {
        let nsf = run(&w, nsf_cfg(128)).unwrap();
        let hw = run(&w, seg_cfg(4, 32)).unwrap();
        let mut sw_cfg = nsf::core::SegmentedConfig::paper_default(4, 32);
        sw_cfg.engine = nsf::core::SpillEngine::software();
        let sw = run(&w, SimConfig::with_regfile(RegFileSpec::Segmented(sw_cfg))).unwrap();
        totals[0] += nsf.regfile.spill_reload_cycles;
        totals[1] += hw.regfile.spill_reload_cycles;
        totals[2] += sw.regfile.spill_reload_cycles;
        cycles[0] += nsf.cycles;
        cycles[1] += hw.cycles;
        cycles[2] += sw.cycles;
    }
    let frac: Vec<f64> = totals
        .iter()
        .zip(&cycles)
        .map(|(&t, &c)| t as f64 / c as f64)
        .collect();
    assert!(
        frac[0] < frac[1] && frac[1] < frac[2],
        "overhead ordering violated: {frac:?}"
    );
}

/// Figure 13 shape: single-register lines minimise traffic; whole-line
/// reload grows with line width and dominates valid-only, which
/// dominates demand reload.
#[test]
fn claim_line_size_shape() {
    let w = workloads::quicksort::build(0);
    let traffic = |width: u8, reload: ReloadPolicy| {
        let mut cfg = NsfConfig::paper_default(128);
        cfg.regs_per_line = width;
        cfg.reload = reload;
        run(&w, SimConfig::with_regfile(RegFileSpec::Nsf(cfg)))
            .unwrap()
            .regfile
            .regs_reloaded
    };
    let whole_1 = traffic(1, ReloadPolicy::WholeLine);
    let whole_4 = traffic(4, ReloadPolicy::WholeLine);
    let whole_16 = traffic(16, ReloadPolicy::WholeLine);
    assert!(
        whole_1 <= whole_4 && whole_4 <= whole_16,
        "A-curve must grow"
    );
    for width in [4u8, 16] {
        let a = traffic(width, ReloadPolicy::WholeLine);
        let b = traffic(width, ReloadPolicy::ValidOnly);
        let c = traffic(width, ReloadPolicy::SingleRegister);
        assert!(
            a >= b && b >= c,
            "A >= B >= C violated at width {width}: {a} {b} {c}"
        );
    }
}

/// Figure 11: the NSF holds at least as many resident contexts as a
/// same-size segmented file, and more than twice as many on sequential
/// call chains.
#[test]
fn claim_resident_contexts() {
    let w = workloads::gatesim::build(0);
    for frames in [2u32, 4] {
        let nsf = run(&w, nsf_cfg(frames * 20)).unwrap();
        let seg = run(&w, seg_cfg(frames, 20)).unwrap();
        assert!(
            nsf.occupancy.avg_contexts() >= 1.5 * seg.occupancy.avg_contexts(),
            "frames={frames}: NSF {} vs segmented {}",
            nsf.occupancy.avg_contexts(),
            seg.occupancy.avg_contexts()
        );
    }
}

/// "The NSF's access time is only 5% greater than conventional register
/// file designs" and "requires 16% to 50% more chip area".
#[test]
fn claim_vlsi_costs() {
    let timing = TimingModel::new(Tech::cmos_1p2um());
    let area = AreaModel::new(Tech::cmos_1p2um());
    for geom in [Geometry::g32x128(), Geometry::g64x64()] {
        let t = timing.nsf_overhead(geom);
        assert!((0.0..=0.10).contains(&t), "{geom:?} timing overhead {t}");
    }
    for (geom, ports) in [
        (Geometry::g32x128(), Ports::three()),
        (Geometry::g64x64(), Ports::three()),
        (Geometry::g32x128(), Ports::six()),
        (Geometry::g64x64(), Ports::six()),
    ] {
        let a = area.nsf_overhead(geom, ports);
        assert!(
            (0.05..=0.65).contains(&a),
            "{geom:?}/{ports:?} area overhead {a}"
        );
    }
}

/// Paper §4.2: explicit per-register deallocation. Hints must not change
/// results and must not increase a small NSF's spill traffic.
#[test]
fn claim_free_hints_reduce_small_file_traffic() {
    let plain = workloads::gatesim::build_with_hints(0, false);
    let hinted = workloads::gatesim::build_with_hints(0, true);
    let cfg = nsf_cfg(40);
    let p = run(&plain, cfg).unwrap();
    let h = run(&hinted, cfg).unwrap();
    // Both validated their checksums inside `run`; compare traffic.
    assert!(
        h.regfile.regs_spilled <= p.regfile.regs_spilled,
        "hints must not increase spills: {} vs {}",
        h.regfile.regs_spilled,
        p.regfile.regs_spilled
    );
    assert!(h.regfile.regs_reloaded <= p.regfile.regs_reloaded);
}

/// The paper's Table 1 grain ordering: Gamteb is the finest-grain
/// parallel benchmark, AS and Wavefront the coarsest.
#[test]
fn claim_grain_ordering() {
    let grain = |w: &workloads::Workload| run(w, nsf_cfg(128)).unwrap().instrs_per_switch();
    let gamteb = grain(&workloads::gamteb::build(0));
    let as_g = grain(&workloads::as_bench::build(0));
    let wave = grain(&workloads::wavefront::build(0));
    assert!(gamteb * 4.0 < as_g, "gamteb {gamteb} vs AS {as_g}");
    assert!(gamteb * 4.0 < wave, "gamteb {gamteb} vs wavefront {wave}");
}
