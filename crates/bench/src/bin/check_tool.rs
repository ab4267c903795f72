//! Differential fuzzing, shrinking and repro replay for the register
//! file organizations (`nsf-check`).
//!
//! ```sh
//! # 500 seeded streams through every windowed-family lane:
//! cargo run --release -p nsf-bench --bin check_tool -- \
//!     fuzz --family windowed --iters 500
//!
//! # All families, a different seed range, exporting any divergence as
//! # a shrunk .nsftrace repro into a directory:
//! cargo run --release -p nsf-bench --bin check_tool -- \
//!     fuzz --family all --seed 1000 --iters 200 --repro-dir repros/
//!
//! # Reduce one known-bad seed to a minimal repro:
//! cargo run --release -p nsf-bench --bin check_tool -- \
//!     shrink --family nsf --seed 42 --out bad.nsftrace
//!
//! # Replay checked-in repros (the regression gate: all must be clean):
//! cargo run --release -p nsf-bench --bin check_tool -- \
//!     replay-repro crates/check/tests/repros/*.nsftrace
//! ```
//!
//! Exit codes (the tools' shared rule, `nsf_bench::cli`): 0 clean, 1
//! divergence found (or a repro still failing), 2 runtime error, 64
//! usage error. Everything is a pure function of `--seed`; reruns
//! reproduce bit-for-bit.

use nsf_bench::{bad_value, CliArgs, CliError, CliSpec, Command, Operands, ToolError};
use nsf_check::run::check_family;
use nsf_check::{
    check_seed, fault_plan_for_seed, generate, shrink, Divergence, Family, Repro, StreamConfig,
};
use nsf_core::LaneOp;
use std::process::ExitCode;

const USAGE: &str = "usage: check_tool fuzz [--family NAME|all] [--seed N] [--iters N] [--ops N] [--repro-dir DIR] [--quiet]
       check_tool shrink --family NAME --seed N [--ops N] [--out FILE]
       check_tool replay-repro FILE...
families: nsf, segmented, segmented-sw, windowed, conventional";

const COMMANDS: &[Command] = &[
    Command {
        name: "fuzz",
        spec: CliSpec {
            value_flags: &["family", "seed", "iters", "ops", "repro-dir"],
            switches: &["quiet"],
            repeatable: &[],
        },
        operands: Operands::None,
        run: cmd_fuzz,
    },
    Command {
        name: "shrink",
        spec: CliSpec::values(&["family", "seed", "ops", "out"]),
        operands: Operands::None,
        run: cmd_shrink,
    },
    Command {
        name: "replay-repro",
        spec: CliSpec::values(&[]),
        operands: Operands::Files,
        run: cmd_replay_repro,
    },
];

/// The family a `--family` value names.
fn parse_family(name: &str) -> Result<Family, CliError> {
    Family::from_name(name).ok_or_else(|| bad_value("family", name))
}

fn stream_config(args: &CliArgs) -> Result<StreamConfig, CliError> {
    let mut cfg = StreamConfig::default();
    cfg.ops = args.parsed_or("ops", cfg.ops)?;
    Ok(cfg)
}

/// Reduces a diverging stream to a minimal one that still produces the
/// *same* failure (lane and kind), then re-derives the final divergence
/// from the minimal stream.
fn shrink_divergence(
    family: Family,
    ops: &[LaneOp],
    plan: nsf_core::FaultPlan,
    original: &Divergence,
) -> (Vec<LaneOp>, Divergence) {
    let same_failure = |cand: &[LaneOp]| {
        matches!(check_family(family, cand, plan),
            Err(d) if d.lane == original.lane && d.kind == original.kind)
    };
    let small = shrink(ops, same_failure);
    let d = check_family(family, &small, plan).expect_err("shrink preserves the failure");
    (small, d)
}

/// Prints a shrunk stream and, given a path, writes it there as a repro.
fn emit_repro(
    family: Family,
    plan: nsf_core::FaultPlan,
    ops: Vec<LaneOp>,
    out: Option<&str>,
) -> Result<(), String> {
    for (i, ev) in ops.iter().enumerate() {
        eprintln!("  {i:>3}: {ev}");
    }
    if let Some(out) = out {
        Repro { family, plan, ops }.write_file(out)?;
        eprintln!("repro written to {out}");
    }
    Ok(())
}

fn report_divergence(
    family: Family,
    seed: u64,
    ops: &[LaneOp],
    plan: nsf_core::FaultPlan,
    d: &Divergence,
    repro_dir: Option<&str>,
) -> Result<(), String> {
    eprintln!("DIVERGENCE family {family} seed {seed}: {d}");
    let (small, small_d) = shrink_divergence(family, ops, plan, d);
    eprintln!(
        "shrunk {} ops -> {} (plan {:?}): {small_d}",
        ops.len(),
        small.len(),
        plan
    );
    if let Some(dir) = repro_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    }
    let name = repro_dir.map(|dir| format!("{dir}/{family}-seed{seed}.nsftrace"));
    emit_repro(family, plan, small, name.as_deref())
}

/// Runs `iters` seeds per family; stops a family at its first
/// divergence, which makes the outcome [`ToolError::Findings`].
fn cmd_fuzz(args: &CliArgs) -> Result<(), ToolError> {
    let families = match args.flag("family") {
        None | Some("all") => Family::ALL.to_vec(),
        Some(name) => vec![parse_family(name)?],
    };
    let start: u64 = args.parsed_or("seed", 0u64)?;
    let iters: u64 = args.parsed_or("iters", 500u64)?;
    // The last seed, `start + iters - 1`, must exist: a range past
    // `u64::MAX` would wrap and report seeds it never checked.
    if iters > 0 && start.checked_add(iters - 1).is_none() {
        return Err(bad_value("seed", &start.to_string()).into());
    }
    let cfg = stream_config(args)?;
    let quiet = args.switch("quiet");
    let repro_dir = args.flag("repro-dir");
    let mut clean = true;

    'families: for family in families {
        let mut faults = 0u64;
        for seed in (0..iters).map(|i| start + i) {
            let (ops, plan, verdict) = check_seed(family, &cfg, seed);
            match verdict {
                Ok(reports) => faults += reports.iter().map(|r| r.faults_absorbed).sum::<u64>(),
                Err(d) => {
                    report_divergence(family, seed, &ops, plan, &d, repro_dir)?;
                    clean = false;
                    continue 'families;
                }
            }
        }
        if !quiet {
            println!(
                "{family:<13} {iters} seeds clean ({} lanes, {faults} injected faults absorbed)",
                family.lanes().len()
            );
        }
    }
    clean.then_some(()).ok_or(ToolError::Findings)
}

fn cmd_shrink(args: &CliArgs) -> Result<(), ToolError> {
    // One family: `all` has no single lane set to shrink against.
    let family = parse_family(args.required("family")?)?;
    let seed: u64 = args.parsed_or("seed", 0u64)?;
    let cfg = stream_config(args)?;
    let ops = generate(&cfg, seed);
    let plan = fault_plan_for_seed(seed);
    match check_family(family, &ops, plan) {
        Ok(_) => {
            println!("family {family} seed {seed}: no divergence; nothing to shrink");
            Ok(())
        }
        Err(d) => {
            let (small, small_d) = shrink_divergence(family, &ops, plan, &d);
            eprintln!(
                "family {family} seed {seed}: shrunk {} ops -> {}: {small_d}",
                ops.len(),
                small.len()
            );
            emit_repro(family, plan, small, args.flag("out"))?;
            Err(ToolError::Findings)
        }
    }
}

/// Replays checked-in repros; each must now run clean (the divergence
/// it captured has been fixed).
fn cmd_replay_repro(args: &CliArgs) -> Result<(), ToolError> {
    let mut clean = true;
    for path in args.positional() {
        let repro = Repro::read_file(path)?;
        match check_family(repro.family, &repro.ops, repro.plan) {
            Ok(_) => println!(
                "{path}: clean ({} ops, family {}, plan {})",
                repro.ops.len(),
                repro.family,
                nsf_check::repro::encode_plan(repro.plan),
            ),
            Err(d) => {
                eprintln!("{path}: STILL DIVERGES: {d}");
                clean = false;
            }
        }
    }
    clean.then_some(()).ok_or(ToolError::Findings)
}

fn main() -> ExitCode {
    nsf_bench::tool_main("check_tool", USAGE, COMMANDS)
}
