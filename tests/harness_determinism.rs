//! Thread-count and route independence of the sweep harness.
//!
//! Every migrated experiment grid must produce field-for-field identical
//! reports — and byte-identical rendered tables — whether the sweep ran
//! on one worker thread or eight, and whether it ran as the plain live
//! sweep (`Sweep::run`) or through the frontend cache the figure
//! binaries use (`Sweep::run_stored`), with and without a persistent
//! stream store. The simulations themselves are deterministic (see
//! `tests/determinism.rs`); these tests pin the two channels the harness
//! could open: result ordering and the capture/replay route.

use nsf_bench::figures;
use nsf_bench::{run_with_args, HarnessArgs, Sweep};
use nsf_sim::RunReport;

type Render = fn(u32, &Sweep, &[RunReport], bool) -> String;

/// Asserts the figure binaries' route — `Sweep::run_stored` at 1 and 8
/// threads, without a store and with a process-private one (cold, then
/// warm) — reproduces `serial` exactly.
fn assert_cached_routes_match(name: &str, sweep: &Sweep, serial: &[RunReport]) {
    let dir = std::env::temp_dir().join(format!(
        "nsf-determinism-store-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    for threads in [1, 8] {
        for store in [false, true] {
            let args = HarnessArgs {
                threads,
                store,
                out: Some(dir.display().to_string()),
                ..HarnessArgs::default()
            };
            assert_eq!(
                serial,
                run_with_args(sweep, &args),
                "{name}: reports differ on the cached route ({threads} threads, store {store})"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs one grid serially, with 8 workers, and through the cached
/// route, asserting every report stream and every rendered table
/// matches exactly.
fn assert_thread_independent(name: &str, grid: fn(u32) -> Sweep, render: Render) {
    let sweep = grid(0);
    let serial = sweep.run(1);
    let threaded = sweep.run(8);
    assert_eq!(
        serial, threaded,
        "{name}: reports differ across thread counts"
    );
    assert_cached_routes_match(name, &sweep, &serial);
    for quiet in [false, true] {
        let a = render(0, &sweep, &serial, quiet);
        let b = render(0, &sweep, &threaded, quiet);
        assert_eq!(a, b, "{name}: rendered output differs across thread counts");
        assert!(!a.is_empty(), "{name}: empty render");
    }
}

macro_rules! determinism_test {
    ($($name:ident),+ $(,)?) => {$(
        #[test]
        fn $name() {
            assert_thread_independent(
                stringify!($name),
                figures::$name::grid,
                figures::$name::render,
            );
        }
    )+};
}

determinism_test!(
    table1,
    fig09,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    ablations,
    related_work,
    depth_sweep,
    summary,
);

/// `export_csv` renders to CSV files rather than a table; compare the
/// full set of (name, header, rows) across thread counts.
#[test]
fn export_csv() {
    let sweep = figures::export_csv::grid(0);
    let serial = sweep.run(1);
    let threaded = sweep.run(8);
    assert_eq!(
        serial, threaded,
        "export_csv: reports differ across thread counts"
    );
    assert_cached_routes_match("export_csv", &sweep, &serial);
    let a = figures::export_csv::csvs(&sweep, &serial);
    let b = figures::export_csv::csvs(&sweep, &threaded);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.header, y.header);
        assert_eq!(
            x.rows, y.rows,
            "{}: rows differ across thread counts",
            x.name
        );
    }
    assert_eq!(a.len(), 3, "expected the three documented CSV files");
}
