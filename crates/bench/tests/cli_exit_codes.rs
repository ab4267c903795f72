//! Exit-code contract of the strict CLI layer: a malformed value for a
//! *known* flag (`--threads x`, `--threads -3`, …) must terminate the
//! process with the conventional usage-error status 64 and print the
//! usage line — never fall back to a default and silently run the wrong
//! experiment. Unknown strays stay tolerated (the figure binaries share
//! one flag vocabulary by design).

use std::process::Command;

/// Runs one figure binary with `args` and returns (exit code, stderr).
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

fn assert_usage_error(bin: &str, args: &[&str]) {
    let (code, stderr) = run(bin, args);
    assert_eq!(
        code,
        Some(64),
        "{bin} {args:?}: expected usage-error exit 64, stderr: {stderr}"
    );
    assert!(
        stderr.contains("usage:"),
        "{bin} {args:?}: no usage line on stderr: {stderr}"
    );
}

#[test]
fn malformed_scale_value_exits_64() {
    let bin = env!("CARGO_BIN_EXE_table1");
    assert_usage_error(bin, &["--scale", "x"]);
    assert_usage_error(bin, &["--scale", "-3"]);
    assert_usage_error(bin, &["--threads", "1", "--scale", "1.5"]);
}

#[test]
fn malformed_threads_value_exits_64() {
    let bin = env!("CARGO_BIN_EXE_fig09_utilization");
    assert_usage_error(bin, &["--threads", "many"]);
    assert_usage_error(bin, &["--threads", "-1"]);
}

#[test]
fn missing_value_for_known_flag_exits_64() {
    let bin = env!("CARGO_BIN_EXE_table1");
    // Trailing flag with no value, and a value swallowed by a switch.
    assert_usage_error(bin, &["--scale"]);
    assert_usage_error(bin, &["--threads", "--quiet"]);
}

#[test]
fn perf_report_rejects_unknown_flags_too() {
    // perf_report is stricter than the figure binaries: a typo would
    // silently time the wrong experiment, so strays are errors there.
    let bin = env!("CARGO_BIN_EXE_perf_report");
    assert_usage_error(bin, &["--thraeds", "4"]);
    // The retired lane and cache flags are unknown here now.
    assert_usage_error(bin, &["--lanes", "4"]);
    assert_usage_error(bin, &["--no-frontend-cache"]);
}

#[test]
fn contradictory_store_switches_exit_64() {
    // `--store --no-store` has no sane precedence rule; both the figure
    // binaries and perf_report reject it with usage.
    let args = &["--store", "--no-store"];
    assert_usage_error(env!("CARGO_BIN_EXE_fig12_reload_vs_size"), args);
    assert_usage_error(env!("CARGO_BIN_EXE_perf_report"), args);
}

#[test]
fn store_tool_rejects_malformed_invocations() {
    let bin = env!("CARGO_BIN_EXE_store_tool");
    // No subcommand, a bogus subcommand, two subcommands.
    assert_usage_error(bin, &[]);
    assert_usage_error(bin, &["prune"]);
    assert_usage_error(bin, &["info", "gc"]);
    // Bad byte budget, and a budget on the wrong subcommand.
    assert_usage_error(bin, &["gc", "--max-bytes", "lots"]);
    assert_usage_error(bin, &["info", "--max-bytes", "5"]);
    // Unknown and duplicated flags go through the strict parser.
    assert_usage_error(bin, &["gc", "--dri", "x"]);
    assert_usage_error(bin, &["info", "--dir", "a", "--dir", "b"]);
}

/// Every binary in this crate, with the arguments that hand a duplicate
/// single-occurrence flag to its parser. The tool binaries need a valid
/// subcommand first; everything else shares the harness flag set.
const DUPLICATE_SWEEP: &[(&str, &[&str])] = &[
    (
        env!("CARGO_BIN_EXE_table1"),
        &["--scale", "0", "--scale", "1"],
    ),
    (
        env!("CARGO_BIN_EXE_fig06_access_time"),
        &["--scale", "0", "--scale", "1"],
    ),
    (
        env!("CARGO_BIN_EXE_fig07_area"),
        &["--scale", "0", "--scale", "1"],
    ),
    (
        env!("CARGO_BIN_EXE_fig08_area_6port"),
        &["--scale", "0", "--scale", "1"],
    ),
    (
        env!("CARGO_BIN_EXE_fig09_utilization"),
        &["--out", "a", "--out", "b"],
    ),
    (
        env!("CARGO_BIN_EXE_fig10_reload_traffic"),
        &["--threads", "1", "--threads", "2"],
    ),
    (
        env!("CARGO_BIN_EXE_fig11_resident_contexts"),
        &["--scale", "0", "--scale", "0"],
    ),
    (
        env!("CARGO_BIN_EXE_fig12_reload_vs_size"),
        &["--threads", "1", "--threads", "1"],
    ),
    (
        env!("CARGO_BIN_EXE_fig13_line_size"),
        &["--scale", "0", "--scale", "1"],
    ),
    (
        env!("CARGO_BIN_EXE_fig14_overhead"),
        &["--scale", "0", "--scale", "1"],
    ),
    (
        env!("CARGO_BIN_EXE_fig_pipeline"),
        &["--scale", "0", "--scale", "1"],
    ),
    (
        env!("CARGO_BIN_EXE_ablations"),
        &["--scale", "0", "--scale", "1"],
    ),
    (
        env!("CARGO_BIN_EXE_related_work"),
        &["--scale", "0", "--scale", "1"],
    ),
    (
        env!("CARGO_BIN_EXE_summary"),
        &["--scale", "0", "--scale", "1"],
    ),
    (
        env!("CARGO_BIN_EXE_depth_sweep"),
        &["--scale", "0", "--scale", "1"],
    ),
    (
        env!("CARGO_BIN_EXE_export_csv"),
        &["--scale", "0", "--scale", "1"],
    ),
    (
        env!("CARGO_BIN_EXE_perf_report"),
        &["--scale", "0", "--scale", "1"],
    ),
    (
        env!("CARGO_BIN_EXE_trace_tool"),
        &[
            "record",
            "--workload",
            "GateSim",
            "--scale",
            "0",
            "--scale",
            "1",
        ],
    ),
    (
        env!("CARGO_BIN_EXE_check_tool"),
        &["fuzz", "--seed", "1", "--seed", "2"],
    ),
];

#[test]
fn duplicate_flags_exit_64_in_every_binary() {
    // `--scale 0 --scale 1` (and every other repeated single-occurrence
    // flag) has no sane precedence rule — like the contradictory store
    // switches, every binary rejects it with usage.
    for &(bin, args) in DUPLICATE_SWEEP {
        assert_usage_error(bin, args);
    }
}

#[test]
fn repeatable_engine_flag_still_accumulates() {
    // `trace_tool replay` fans one trace across engines: its --engine
    // stays repeatable. The file is bogus, so success here means
    // *parsing* survived — the failure must be the missing file (exit
    // 2), never a usage error.
    let (code, stderr) = run(
        env!("CARGO_BIN_EXE_trace_tool"),
        &[
            "replay",
            "definitely-missing.nsftrace",
            "--engine",
            "nsf:80",
            "--engine",
            "oracle",
        ],
    );
    assert_eq!(code, Some(2), "expected runtime failure, got: {stderr}");
    assert!(
        !stderr.contains("usage:"),
        "repeated --engine tripped the parser: {stderr}"
    );
}

/// Engine specs that parse but name no buildable organization: an NSF
/// line that does not divide the file or exceeds a context, zero frames
/// or registers, and frames wider than the 64-word save area.
const UNBUILDABLE_SPECS: &[&str] = &[
    "nsf:80x3",
    "nsf:80x40",
    "segmented:0x8",
    "windowed:0",
    "conventional:0",
    "segmented:2x100",
];

#[test]
fn unbuildable_engine_specs_exit_2_naming_the_spec() {
    let bin = env!("CARGO_BIN_EXE_trace_tool");
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../trace/tests/golden/gatesim_s0_nsf80.nsftrace"
    );
    let out = std::env::temp_dir().join(format!("nsf-cli-unbuildable-{}", std::process::id()));
    let out = out.to_str().expect("temp path is UTF-8");
    for &spec in UNBUILDABLE_SPECS {
        let record = [
            "record",
            "--workload",
            "gatesim",
            "--scale",
            "0",
            "--engine",
            spec,
            "--out",
            out,
        ];
        let replay = ["replay", golden, "--engine", spec];
        let diff = ["diff", golden, "--a", "nsf:80", "--b", spec];
        for args in [&record[..], &replay, &diff] {
            let (code, stderr) = run(bin, args);
            assert_eq!(code, Some(2), "{args:?}: expected exit 2, stderr: {stderr}");
            assert!(stderr.contains(spec), "{args:?}: spec not named: {stderr}");
        }
    }
    assert!(
        !std::path::Path::new(out).exists(),
        "a failed record wrote a trace"
    );
}

/// Runs a figure binary that must succeed and returns its stdout.
fn stdout_of(bin: &str, args: &[&str]) -> Vec<u8> {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty(), "{bin} {args:?} printed nothing");
    out.stdout
}

#[test]
fn well_formed_flags_still_run() {
    stdout_of(
        env!("CARGO_BIN_EXE_table1"),
        &["--scale", "0", "--threads", "2", "--quiet"],
    );
}

#[test]
fn retired_lane_flags_are_ignored_by_figure_binaries() {
    // `--lanes` and the frontend-cache switches no longer exist; like any
    // unknown flag, the figure binaries ignore them (values included,
    // malformed or not) and print the same figure.
    let bin = env!("CARGO_BIN_EXE_table1");
    let plain = stdout_of(bin, &["--scale", "0", "--quiet"]);
    for stray in [
        &["--lanes", "4"][..],
        &["--lanes", "x"],
        &["--frontend-cache", "--no-frontend-cache"],
    ] {
        let args: Vec<&str> = ["--scale", "0", "--quiet"]
            .iter()
            .chain(stray)
            .copied()
            .collect();
        assert_eq!(plain, stdout_of(bin, &args), "{stray:?} changed the figure");
    }
}

#[test]
fn store_switches_run_and_agree() {
    // Each store switch is accepted alone, and the two modes print
    // byte-identical figures — the subprocess-level face of the
    // equivalence wall the library tests pin.
    let bin = env!("CARGO_BIN_EXE_fig09_utilization");
    let dir = std::env::temp_dir().join(format!("nsf-cli-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = dir.display().to_string();
    let outs: Vec<Vec<u8>> = ["--store", "--no-store"]
        .iter()
        .map(|flag| stdout_of(bin, &["--scale", "0", "--out", &out, flag]))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(outs[0], outs[1], "store on/off stdout differs");
}
