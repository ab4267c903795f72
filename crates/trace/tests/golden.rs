//! Golden-trace regression corpus: checked-in scale-0 captures of
//! GateSim (sequential) and Gamteb (parallel) under the paper's NSF
//! reference configurations.
//!
//! Two invariants are pinned, and together they freeze the whole
//! pipeline:
//!
//! 1. **Byte-identical re-capture** — running the workload today and
//!    serializing the recorded stream reproduces the checked-in file
//!    byte for byte. Any drift in workload generation, simulator op
//!    ordering, event capture or the binary encoding shows up here.
//! 2. **Stats-identical replay** — replaying the checked-in file
//!    through its recording engine reproduces the live run's
//!    [`nsf_core::RegFileStats`] exactly.
//!
//! The files are `.nsftrace` version 3: the frontend stream the sweep
//! records, the workload's staged memory and the run's report, sealed
//! as one blob. If a deliberate change shifts either invariant (a new
//! event kind, a format revision with a version bump, a workload fix),
//! regenerate both files with `trace_tool record` (CI re-records them
//! the same way and `cmp`s the results):
//!
//! ```sh
//! cargo run --release -p nsf-bench --bin trace_tool -- \
//!     record --workload gatesim --scale 0 --engine nsf:80 \
//!     --out crates/trace/tests/golden/gatesim_s0_nsf80.nsftrace
//! cargo run --release -p nsf-bench --bin trace_tool -- \
//!     record --workload gamteb --scale 0 --engine nsf:128 \
//!     --out crates/trace/tests/golden/gamteb_s0_nsf128.nsftrace
//! ```

use nsf_sim::SimConfig;
use nsf_trace::{capture, parse_engine, replay, Trace};

struct Golden {
    file: &'static str,
    bytes: &'static [u8],
    workload: &'static str,
    engine: &'static str,
}

const CORPUS: &[Golden] = &[
    Golden {
        file: "gatesim_s0_nsf80.nsftrace",
        bytes: include_bytes!("golden/gatesim_s0_nsf80.nsftrace"),
        workload: "GateSim",
        engine: "nsf:80",
    },
    Golden {
        file: "gamteb_s0_nsf128.nsftrace",
        bytes: include_bytes!("golden/gamteb_s0_nsf128.nsftrace"),
        workload: "Gamteb",
        engine: "nsf:128",
    },
];

fn build(name: &str) -> nsf_workloads::Workload {
    nsf_workloads::paper_suite(0)
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("{name} not in paper suite"))
}

#[test]
fn golden_traces_decode_with_expected_meta() {
    for g in CORPUS {
        let t = Trace::from_bytes(g.bytes).unwrap_or_else(|e| panic!("{}: {e}", g.file));
        assert_eq!(t.meta.workload, g.workload, "{}", g.file);
        assert_eq!(t.meta.engine, g.engine, "{}", g.file);
        assert_eq!(t.meta.scale, 0, "{}", g.file);
        assert!(!t.events.is_empty(), "{}", g.file);
        assert!(t.meta.instructions > 0, "{}", g.file);
    }
}

#[test]
fn recapture_is_byte_identical() {
    for g in CORPUS {
        let workload = build(g.workload);
        let cfg = SimConfig::with_regfile(parse_engine(g.engine).unwrap());
        let (trace, _) = capture(&workload, cfg, g.engine, 0)
            .unwrap_or_else(|e| panic!("{}: capture failed: {e}", g.file));
        assert_eq!(
            trace.to_bytes(),
            g.bytes,
            "{}: re-capture drifted from the checked-in golden trace \
             (if intentional, regenerate per the module docs)",
            g.file
        );
    }
}

#[test]
fn golden_replay_matches_live_stats_exactly() {
    for g in CORPUS {
        let workload = build(g.workload);
        let cfg = SimConfig::with_regfile(parse_engine(g.engine).unwrap());
        let live = nsf_workloads::run(&workload, cfg)
            .unwrap_or_else(|e| panic!("{}: live run failed: {e}", g.file));
        let trace = Trace::from_bytes(g.bytes).unwrap();
        let replayed = replay(&trace, &cfg).unwrap_or_else(|e| panic!("{}: {e}", g.file));
        assert_eq!(
            replayed.stats, live.regfile,
            "{}: replayed statistics diverged from the live run",
            g.file
        );
        assert_eq!(trace.meta.instructions, live.instructions, "{}", g.file);
        assert_eq!(trace.meta.cycles, live.cycles, "{}", g.file);
        assert_eq!(trace.report, live, "{}", g.file);
    }
}
