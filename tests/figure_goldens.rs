//! Figure goldens and paper claims: every printed figure's scale-0
//! table, commentary included, byte for byte, and every
//! [`CLAIMS`] rule over the same reports.
//!
//! The determinism tests compare runs of one build with each other
//! (thread counts, store routes); this file compares a build with the
//! checked-in output, so a figure cannot drift between commits unseen.
//! Each [`FIGURES`] entry with a render must print exactly
//! `tests/golden/figures/<bin>.txt`. A change that moves a figure on
//! purpose regenerates its golden from the release binary, which prints
//! the same render:
//!
//! ```sh
//! cargo build --release -p nsf-bench
//! ./target/release/<bin> --scale 0 --no-store > tests/golden/figures/<bin>.txt
//! ```
//!
//! Each grid is built and run once; its reports then feed the check of
//! every claim measured by that figure (`export_csv` included, which
//! prints nothing). A failed check is reported under its claim's name.

use nsf_bench::claims::CLAIMS;
use nsf_bench::figures::FIGURES;
use std::path::Path;

#[test]
fn every_figure_prints_its_golden_at_scale_0() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/figures");
    let mut moved = Vec::new();
    let mut failed = Vec::new();
    let (mut rendered, mut checked) = (0, 0);
    for f in FIGURES {
        let sweep = (f.grid)(0);
        let reports = sweep.run(2);
        for c in CLAIMS.iter().filter(|c| c.bin == f.bin) {
            let Some(check) = c.check else { continue };
            if let Err(why) = check(&sweep, &reports) {
                failed.push(format!("{} ({}): {why}", c.name, f.bin));
            }
            checked += 1;
        }
        let Some(render) = f.render else { continue };
        let got = render(0, &sweep, &reports, false);
        let path = dir.join(format!("{}.txt", f.bin));
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: cannot read {}: {e}", f.bin, path.display()));
        if got != want {
            let line = got
                .lines()
                .zip(want.lines())
                .position(|(g, w)| g != w)
                .map_or_else(
                    || "a trailing line".to_string(),
                    |i| format!("line {}", i + 1),
                );
            moved.push(format!("{} (first difference at {line})", f.bin));
        }
        rendered += 1;
    }
    assert_eq!(rendered, 12, "every printing figure has a golden");
    assert_eq!(
        checked,
        CLAIMS.iter().filter(|c| c.check.is_some()).count(),
        "every checked claim names a figure"
    );
    assert!(failed.is_empty(), "paper claims fail: {failed:#?}");
    assert!(
        moved.is_empty(),
        "figures differ from tests/golden/figures: {moved:?}"
    );
}
