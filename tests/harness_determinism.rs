//! Thread-count and route independence of the sweep harness.
//!
//! Every entry of [`FIGURES`] must produce field-for-field identical
//! reports whether the sweep ran on one worker thread or eight, and
//! whether it ran as the plain live sweep (`Sweep::run`) or through the
//! frontend cache the figure binaries use (`Sweep::run_stored`), with no
//! store, a cold store and a warm one. Equal reports render equal
//! tables and CSVs, since every render is a pure function of them. The
//! simulations themselves are deterministic (see `tests/determinism.rs`);
//! these tests pin the two channels the harness could open: result
//! ordering and the capture/replay route.

use nsf_bench::figures::{Figure, FIGURES};
use nsf_bench::{run_with_args, HarnessArgs};

fn figure(bin: &str) -> &'static Figure {
    FIGURES
        .iter()
        .find(|f| f.bin == bin)
        .unwrap_or_else(|| panic!("{bin} is not in FIGURES"))
}

/// Runs one figure's scale-0 grid with 1 and 8 workers, and through the
/// figure binaries' route at each count — no store, then a fresh
/// process-private store cold, then warm — asserting every report
/// stream equals `Sweep::run(1)`.
fn assert_thread_and_route_independent(f: &Figure) {
    let name = f.bin;
    let sweep = (f.grid)(0);
    let serial = sweep.run(1);
    assert_eq!(
        serial,
        sweep.run(8),
        "{name}: reports differ across thread counts"
    );
    let dir = std::env::temp_dir().join(format!(
        "nsf-determinism-store-{}-{name}",
        std::process::id()
    ));
    for threads in [1, 8] {
        let _ = std::fs::remove_dir_all(&dir);
        for (route, store) in [("no store", false), ("cold", true), ("warm", true)] {
            let args = HarnessArgs {
                threads,
                store,
                out: Some(dir.display().to_string()),
                ..HarnessArgs::default()
            };
            assert_eq!(
                serial,
                run_with_args(&sweep, &args),
                "{name}: reports differ on the cached route ({threads} threads, {route})"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(render) = f.render {
        for quiet in [false, true] {
            assert!(
                !render(0, &sweep, &serial, quiet).is_empty(),
                "{name}: empty render"
            );
        }
    }
}

/// One test per [`FIGURES`] entry, in the table's order, plus a check
/// that the list covers the table exactly.
macro_rules! determinism_tests {
    ($($name:ident => $bin:literal),+ $(,)?) => {
        $(
            #[test]
            fn $name() {
                assert_thread_and_route_independent(figure($bin));
            }
        )+

        #[test]
        fn every_figure_has_a_determinism_test() {
            let bins: Vec<&str> = FIGURES.iter().map(|f| f.bin).collect();
            assert_eq!(bins, [$($bin),+]);
        }
    };
}

determinism_tests!(
    ablations => "ablations",
    depth_sweep => "depth_sweep",
    export_csv => "export_csv",
    fig09 => "fig09_utilization",
    fig10 => "fig10_reload_traffic",
    fig11 => "fig11_resident_contexts",
    fig12 => "fig12_reload_vs_size",
    fig13 => "fig13_line_size",
    fig14 => "fig14_overhead",
    fig_pipeline => "fig_pipeline",
    related_work => "related_work",
    summary => "summary",
    table1 => "table1",
);
