//! Exit-code contract of the strict CLI layer: a malformed value for a
//! known flag (`--threads x`, `--threads -3`, …), an unknown flag and a
//! stray positional must each terminate the process with the
//! conventional usage-error status 64 and print the usage line — never
//! fall back to a default and silently run the wrong experiment.

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
    // A scale past MAX_SCALE is malformed too: builders multiply it into
    // input sizes, so a release build would wrap (ZipFile at 3067834
    // built 304 words) and a debug build would panic.
    let past_max = (nsf_workloads::MAX_SCALE + 1).to_string();
    for bin in [
        env!("CARGO_BIN_EXE_table1"),
        env!("CARGO_BIN_EXE_fig07_area"),
        env!("CARGO_BIN_EXE_perf_report"),
    ] {
        assert_usage_error(bin, &["--scale", "x"]);
        assert_usage_error(bin, &["--scale", "-3"]);
        assert_usage_error(bin, &["--threads", "1", "--scale", "1.5"]);
        assert_usage_error(bin, &["--scale", &past_max]);
        assert_usage_error(bin, &["--scale", "3067834"]);
    }
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
/// or registers, frames wider than the 64-word save area, and files
/// past the register-slot bound.
const UNBUILDABLE_SPECS: &[&str] = &[
    "nsf:80x3",
    "nsf:80x40",
    "segmented:0x8",
    "windowed:0",
    "conventional:0",
    "segmented:2x100",
    "nsf:4294967295",
    "segmented:4294967295x1",
    "segmented-sw:4294967295x64",
    // 2^26 frames x 64 registers: 2^32 slots, a product past `u32`.
    "segmented:67108864x64",
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

/// A sibling binary of this crate, by name.
fn sibling(bin: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_BIN_EXE_table1")).with_file_name(bin)
}

#[test]
fn unknown_flags_and_strays_exit_64_in_every_harness_binary() {
    // A typo (`--scael 0` once ran at scale 1), the retired lane and
    // frontend-cache flags, and a stray positional are usage errors in
    // every binary that parses the harness flags.
    let harness = nsf_bench::figures::FIGURES.iter().map(|f| f.bin).chain([
        "fig06_access_time",
        "fig07_area",
        "fig08_area_6port",
        "perf_report",
    ]);
    for bin in harness {
        let bin = sibling(bin);
        let bin = bin.to_str().expect("UTF-8 path");
        for stray in [
            &["--scael", "0"][..],
            &["--scale", "0", "--no-stroe"],
            &["--lanes", "4"],
            &["--lanes", "x"],
            &["--frontend-cache", "--no-frontend-cache"],
            &["--scale", "0", "stray"],
        ] {
            assert_usage_error(bin, stray);
        }
    }
}

#[test]
fn trace_tool_record_refuses_a_scale_past_the_bound() {
    // `record` fails a scale past MAX_SCALE exactly as it fails a
    // malformed one: a usage error (exit 64) naming the value, writing
    // nothing.
    let bin = env!("CARGO_BIN_EXE_trace_tool");
    let out = std::env::temp_dir().join(format!("nsf-cli-scale-{}", std::process::id()));
    let out = out.to_str().expect("temp path is UTF-8");
    for scale in ["x", "3067834"] {
        let args = [
            "record",
            "--workload",
            "zipfile",
            "--scale",
            scale,
            "--out",
            out,
        ];
        assert_usage_error(bin, &args);
        let (_, stderr) = run(bin, &args);
        assert!(
            stderr.contains(&format!("bad --scale value {scale:?}")),
            "{stderr}"
        );
    }
    assert!(
        !std::path::Path::new(out).exists(),
        "a failed record wrote a trace"
    );
}

/// One tool subcommand's rejected command lines: a stray operand, a
/// missing required operand (or required flag) and a malformed numeric
/// value, each `None` where the subcommand has no such case (it takes
/// any number of FILEs, needs nothing, or has no numeric flag).
struct Rejects {
    bin: &'static str,
    stray: Option<&'static [&'static str]>,
    missing: Option<&'static [&'static str]>,
    malformed: Option<&'static [&'static str]>,
}

/// A trace path whose directory does not exist.
const NO_FILE: &str = "/nonexistent/nsf-cli/record.nsftrace";

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../trace/tests/golden/gatesim_s0_nsf80.nsftrace"
);

/// Every `trace_tool`, `check_tool` and `store_tool` subcommand. The
/// store directory and `record`'s `--out` directory never exist, so no
/// case can touch a real store or leave a trace behind.
const TOOL_REJECTS: &[Rejects] = &[
    Rejects {
        bin: env!("CARGO_BIN_EXE_trace_tool"),
        stray: Some(&["record", "--workload", "gatesim", "--out", NO_FILE, "stray"]),
        missing: Some(&["record", "--scale", "0", "--out", NO_FILE]),
        malformed: Some(&[
            "record",
            "--workload",
            "gatesim",
            "--scale",
            "-1",
            "--out",
            NO_FILE,
        ]),
    },
    // Workload names match exactly, as in nsf-explore's --workloads.
    Rejects {
        bin: env!("CARGO_BIN_EXE_trace_tool"),
        stray: None,
        missing: None,
        malformed: Some(&["record", "--workload", "GateSim", "--out", NO_FILE]),
    },
    Rejects {
        bin: env!("CARGO_BIN_EXE_trace_tool"),
        stray: Some(&["info", GOLDEN, "extra"]),
        missing: Some(&["info"]),
        malformed: None,
    },
    Rejects {
        bin: env!("CARGO_BIN_EXE_trace_tool"),
        stray: Some(&["replay", GOLDEN, "extra"]),
        missing: Some(&["replay", "--engine", "nsf:80"]),
        malformed: Some(&["replay", GOLDEN, "--threads", "many"]),
    },
    Rejects {
        bin: env!("CARGO_BIN_EXE_trace_tool"),
        stray: Some(&["diff", GOLDEN, GOLDEN, "--a", "nsf:80", "--b", "nsf:40"]),
        missing: Some(&["diff", "--a", "nsf:80", "--b", "nsf:40"]),
        malformed: None,
    },
    Rejects {
        bin: env!("CARGO_BIN_EXE_check_tool"),
        stray: Some(&["fuzz", "--family", "nsf", "--iters", "1", "stray"]),
        missing: None,
        malformed: Some(&["fuzz", "--family", "nsf", "--seed", "x"]),
    },
    Rejects {
        bin: env!("CARGO_BIN_EXE_check_tool"),
        stray: Some(&["shrink", "--family", "nsf", "--seed", "0", "stray"]),
        missing: Some(&["shrink", "--seed", "0"]),
        malformed: Some(&["shrink", "--family", "nsf", "--ops", "-4"]),
    },
    Rejects {
        bin: env!("CARGO_BIN_EXE_check_tool"),
        stray: None,
        missing: Some(&["replay-repro"]),
        malformed: None,
    },
    Rejects {
        bin: env!("CARGO_BIN_EXE_store_tool"),
        stray: Some(&["info", "--dir", "/nonexistent/nsf-store", "extra"]),
        missing: None,
        malformed: None,
    },
    Rejects {
        bin: env!("CARGO_BIN_EXE_store_tool"),
        stray: Some(&["gc", "--dir", "/nonexistent/nsf-store", "extra"]),
        missing: None,
        malformed: Some(&[
            "gc",
            "--dir",
            "/nonexistent/nsf-store",
            "--max-bytes",
            "1e6",
        ]),
    },
];

#[test]
fn every_tool_subcommand_rejects_strays_missing_operands_and_malformed_values() {
    for r in TOOL_REJECTS {
        for args in [r.stray, r.missing, r.malformed].into_iter().flatten() {
            assert_usage_error(r.bin, args);
        }
    }
}

#[test]
fn fuzz_seed_range_past_u64_max_exits_64() {
    // `--seed u64::MAX --iters 3` would wrap and report three clean
    // seeds it never checked; the last seed, u64::MAX itself, still runs.
    let bin = env!("CARGO_BIN_EXE_check_tool");
    let max = u64::MAX.to_string();
    assert_usage_error(
        bin,
        &["fuzz", "--family", "nsf", "--seed", &max, "--iters", "3"],
    );
    let out = stdout_of(
        bin,
        &["fuzz", "--family", "nsf", "--seed", &max, "--iters", "1"],
    );
    assert!(String::from_utf8_lossy(&out).contains("1 seeds clean"));
}

#[test]
fn forged_trace_engine_exits_2_naming_the_spec() {
    // A valid trace re-sealed with an oversized recorded engine: replay
    // with no --engine builds that engine, and must refuse it as a
    // typed error before allocating; info never builds it.
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../trace/tests/golden/gatesim_s0_nsf80.nsftrace"
    );
    let bin = env!("CARGO_BIN_EXE_trace_tool");
    let path = std::env::temp_dir().join(format!("nsf-cli-forged-{}.nsftrace", std::process::id()));
    let file = path.to_str().expect("temp path is UTF-8");
    for engine in ["nsf:4294967295", "segmented:67108864x64"] {
        let mut trace = nsf_trace::Trace::read_file(golden).expect("golden trace reads");
        trace.meta.engine = engine.to_string();
        trace.write_file(&path).expect("forged trace writes");
        let (code, stderr) = run(bin, &["replay", file]);
        assert_eq!(code, Some(2), "replay {engine}: stderr: {stderr}");
        assert!(
            stderr.contains(engine),
            "replay {engine}: spec not named: {stderr}"
        );
        let (code, stderr) = run(bin, &["info", file]);
        assert_eq!(code, Some(0), "info {engine}: stderr: {stderr}");
    }
    let _ = std::fs::remove_file(&path);
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

#[test]
fn store_tool_counts_and_removes_a_version_one_entry() {
    // A store written before the seal checksum changed holds version-1
    // entries under keys no current run asks for. `info` must count
    // such an orphan as invalid and `gc` must remove it, leaving the
    // current entry alone.
    use nsf_trace::frame::{fnv64, SEAL_LEN};
    let w = nsf_workloads::gatesim::build(0);
    let cfg = nsf_bench::nsf_config(80);
    let buf = nsf_trace::capture_frontend(&w, cfg).expect("captures");
    let fp = nsf_trace::stream_fingerprint(&w, &cfg).expect("fingerprints");
    let current = nsf_trace::encode_stream(fp, &buf);
    let mut v1 = current[..current.len() - SEAL_LEN].to_vec();
    v1[4] = 1;
    let sum = fnv64(&v1);
    v1.extend_from_slice(&sum.to_le_bytes());
    let orphan = fp ^ 1;

    let dir = std::env::temp_dir().join(format!("nsf-cli-store-v1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let entry = |fp: u64| dir.join(format!("{fp:016x}.nsfs"));
    std::fs::write(entry(fp), &current).unwrap();
    std::fs::write(entry(orphan), &v1).unwrap();

    let bin = env!("CARGO_BIN_EXE_store_tool");
    let d = dir.display().to_string();
    let info = String::from_utf8(stdout_of(bin, &["info", "--dir", &d])).unwrap();
    assert!(info.contains("entries=2"), "{info}");
    assert!(info.contains("invalid=1"), "{info}");
    assert!(info.contains("unsupported format version 1"), "{info}");
    let gc = String::from_utf8(stdout_of(bin, &["gc", "--dir", &d])).unwrap();
    assert!(gc.contains("removed_invalid=1"), "{gc}");
    assert!(!entry(orphan).exists(), "gc left the version-1 entry");
    assert!(entry(fp).exists(), "gc removed the current entry");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_tool_counts_and_removes_an_entry_the_loader_rejects() {
    // A sealed entry with one byte after its stream: magic, version,
    // checksum and fingerprint all hold, but the stream length disagrees
    // with the body, so every load rejects it. `info` must count it as
    // invalid and `gc` must remove it, leaving the intact entry alone.
    use nsf_trace::frame::{seal, SEAL_LEN};
    let w = nsf_workloads::gatesim::build(0);
    let cfg = nsf_bench::nsf_config(80);
    let buf = nsf_trace::capture_frontend(&w, cfg).expect("captures");
    let fp = nsf_trace::stream_fingerprint(&w, &cfg).expect("fingerprints");
    let other = fp ^ 1;
    let current = nsf_trace::encode_stream(fp, &buf);
    let mut long = nsf_trace::encode_stream(other, &buf);
    long.truncate(long.len() - SEAL_LEN);
    long.push(0);
    let long = seal(long);

    let dir = std::env::temp_dir().join(format!("nsf-cli-store-long-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let entry = |fp: u64| dir.join(format!("{fp:016x}.nsfs"));
    std::fs::write(entry(fp), &current).unwrap();
    std::fs::write(entry(other), &long).unwrap();
    let store = nsf_trace::StreamStore::open(&dir);
    assert!(
        store.load_stream(other, &cfg).is_err(),
        "the loader rejects it"
    );

    let bin = env!("CARGO_BIN_EXE_store_tool");
    let d = dir.display().to_string();
    let info = String::from_utf8(stdout_of(bin, &["info", "--dir", &d])).unwrap();
    assert!(info.contains("entries=2"), "{info}");
    assert!(info.contains("invalid=1"), "{info}");
    let gc = String::from_utf8(stdout_of(bin, &["gc", "--dir", &d])).unwrap();
    assert!(gc.contains("removed_invalid=1"), "{gc}");
    assert!(!entry(other).exists(), "gc left the rejected entry");
    assert!(entry(fp).exists(), "gc removed the intact entry");
    let _ = std::fs::remove_dir_all(&dir);
}
