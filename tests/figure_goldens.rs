//! Figure goldens: every printed figure's scale-0 table, commentary
//! included, byte for byte.
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

use nsf_bench::figures::FIGURES;
use std::path::Path;

#[test]
fn every_figure_prints_its_golden_at_scale_0() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/figures");
    let mut moved = Vec::new();
    let mut rendered = 0;
    for f in FIGURES {
        let Some(render) = f.render else { continue };
        let sweep = (f.grid)(0);
        let got = render(0, &sweep, &sweep.run(2), false);
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
    assert!(
        moved.is_empty(),
        "figures differ from tests/golden/figures: {moved:?}"
    );
}
