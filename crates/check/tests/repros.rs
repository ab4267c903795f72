//! Replays every checked-in reproduction under `tests/repros/`.
//!
//! Each `.nsftrace` there is a shrunk operation stream (plus fault
//! plan) that diverged from the oracle before an engine bug was fixed:
//! the NSF returning stale values — and once overshooting its own
//! capacity — after mid-spill faults, and the segmented, windowed and
//! conventional files drifting their read counters on undefined reads.
//! Replaying them through `check_family` must stay clean forever; a
//! regression flips the exact divergence the file was captured from.
//! Every checked-in `.nsftrace` (these and the trace crate's goldens)
//! must also decode and re-encode to its own bytes.

use nsf_check::run::check_family;
use nsf_check::Repro;
use nsf_trace::Trace;
use std::path::PathBuf;

fn corpus() -> Vec<PathBuf> {
    traces_in("tests/repros")
}

/// The `.nsftrace` files under `dir` (relative to this crate), sorted.
fn traces_in(dir: &str) -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "nsftrace"))
        .collect();
    files.sort();
    files
}

#[test]
fn every_checked_in_repro_replays_clean() {
    let files = corpus();
    assert!(
        files.len() >= 8,
        "repro corpus shrank to {} files — deletions should be deliberate",
        files.len()
    );
    for path in files {
        let repro = Repro::read_file(&path).unwrap_or_else(|e| panic!("{e}"));
        assert!(
            !repro.ops.is_empty(),
            "{}: empty repro stream",
            path.display()
        );
        if let Err(d) = check_family(repro.family, &repro.ops, repro.plan) {
            panic!("{} regressed: {d}", path.display());
        }
    }
}

#[test]
fn corpus_covers_every_fixed_engine_family() {
    use nsf_check::Family;
    let families: Vec<Family> = corpus()
        .iter()
        .map(|p| Repro::read_file(p).unwrap_or_else(|e| panic!("{e}")).family)
        .collect();
    for family in [
        Family::Nsf,
        Family::Segmented,
        Family::SegmentedSw,
        Family::Windowed,
        Family::Conventional,
    ] {
        assert!(families.contains(&family), "no repro pins family {family}");
    }
}

#[test]
fn every_checked_in_trace_reencodes_to_its_own_bytes() {
    let files: Vec<PathBuf> = corpus()
        .into_iter()
        .chain(traces_in("../trace/tests/golden"))
        .collect();
    assert!(files.len() >= 10, "8 repros and 2 goldens at least");
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let trace = Trace::from_bytes(&bytes).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            trace.to_bytes() == bytes,
            "{} re-encodes differently",
            path.display()
        );
    }
}
