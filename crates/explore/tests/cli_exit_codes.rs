//! Exit-code contract of the explorer's CLI: duplicate
//! single-occurrence flags are usage errors (exit 64, usage on stderr),
//! matching the nsf-bench binaries' behaviour.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_nsf-explore"))
        .args(args)
        .output()
        .expect("spawn nsf-explore");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

fn assert_usage_error(args: &[&str]) {
    let (code, stderr) = run(args);
    assert_eq!(
        code,
        Some(64),
        "nsf-explore {args:?}: expected usage-error exit 64, stderr: {stderr}"
    );
    assert!(
        stderr.contains("usage:"),
        "nsf-explore {args:?}: no usage line on stderr: {stderr}"
    );
}

#[test]
fn duplicate_flags_exit_64() {
    assert_usage_error(&["--shard", "0/2", "--shard", "1/2"]);
    assert_usage_error(&["--scale", "0", "--scale", "1"]);
}

#[test]
fn retired_lanes_flag_exits_64() {
    // `--lanes` left with the lane-batched sweep path: the explorer's
    // strict parser rejects it like any unknown flag.
    assert_usage_error(&["--lanes", "4"]);
}

#[test]
fn malformed_shard_still_exits_64() {
    assert_usage_error(&["--shard", "2/2"]);
    assert_usage_error(&["--shard", "x"]);
}

#[test]
fn oversized_regs_or_scale_exit_64() {
    // A register count past the size bound, or a scale past
    // `MAX_SCALE`, is refused while the spec is validated, before any
    // builder or capture could size an allocation from it.
    let past_max = (nsf_workloads::MAX_SCALE + 1).to_string();
    for args in [
        &["--scale", "0", "--regs", "4294967295"][..],
        &["--scale", &past_max],
        &["--scale", "3067834"],
    ] {
        let value = args[args.len() - 1];
        assert_usage_error(args);
        let (_, stderr) = run(args);
        assert!(stderr.contains(value), "value not named: {stderr}");
    }
}

#[test]
fn stray_operand_exits_64() {
    // The explorer takes no operands: a stray one is refused before any
    // point runs or any file is written.
    let out = std::env::temp_dir().join(format!("nsf-explore-stray-{}", std::process::id()));
    let out = out.to_str().expect("temp path is UTF-8");
    assert_usage_error(&["--scale", "0", "--out", out, "stray"]);
    assert!(
        !std::path::Path::new(out).exists(),
        "a refused run wrote {out}"
    );
}
