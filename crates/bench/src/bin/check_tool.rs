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
//! Exit codes: 0 clean, 1 divergence found (or a repro still failing),
//! 2 runtime error, 64 usage error. Everything is a pure function of
//! `--seed`; reruns reproduce bit-for-bit.

use nsf_bench::{CliArgs, CliError, CliSpec};
use nsf_check::run::check_family;
use nsf_check::{
    check_seed, fault_plan_for_seed, generate, shrink, Divergence, Family, Repro, StreamConfig,
};
use nsf_trace::RegEvent;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: check_tool fuzz [--family NAME|all] [--seed N] [--iters N] [--ops N] [--repro-dir DIR] [--quiet]\n\
         \x20      check_tool shrink --family NAME --seed N [--ops N] [--out FILE]\n\
         \x20      check_tool replay-repro FILE...\n\
         families: nsf, segmented, segmented-sw, windowed, conventional"
    );
    ExitCode::from(64)
}

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("check_tool: {msg}");
    ExitCode::from(2)
}

/// The flags each subcommand accepts (strict: anything else errors).
fn spec_for(cmd: &str) -> Option<CliSpec> {
    match cmd {
        "fuzz" => Some(CliSpec {
            value_flags: &["family", "seed", "iters", "ops", "repro-dir"],
            switches: &["quiet"],
            repeatable: &[],
        }),
        "shrink" => Some(CliSpec {
            value_flags: &["family", "seed", "ops", "out"],
            switches: &[],
            repeatable: &[],
        }),
        "replay-repro" => Some(CliSpec {
            value_flags: &[],
            switches: &[],
            repeatable: &[],
        }),
        _ => None,
    }
}

fn families_arg(args: &CliArgs) -> Result<Vec<Family>, String> {
    match args.flag("family") {
        None | Some("all") => Ok(Family::ALL.to_vec()),
        Some(name) => Family::from_name(name)
            .map(|f| vec![f])
            .ok_or_else(|| format!("unknown family {name:?}")),
    }
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
    ops: &[RegEvent],
    plan: nsf_core::FaultPlan,
    original: &Divergence,
) -> (Vec<RegEvent>, Divergence) {
    let same_failure = |cand: &[RegEvent]| {
        matches!(check_family(family, cand, plan),
            Err(d) if d.lane == original.lane && d.kind == original.kind)
    };
    let small = shrink(ops, same_failure);
    let d = check_family(family, &small, plan).expect_err("shrink preserves the failure");
    (small, d)
}

fn report_divergence(
    family: Family,
    seed: Option<u64>,
    ops: &[RegEvent],
    plan: nsf_core::FaultPlan,
    d: &Divergence,
    repro_dir: Option<&str>,
) -> Result<(), String> {
    match seed {
        Some(seed) => eprintln!("DIVERGENCE family {family} seed {seed}: {d}"),
        None => eprintln!("DIVERGENCE family {family}: {d}"),
    }
    let (small, small_d) = shrink_divergence(family, ops, plan, d);
    eprintln!(
        "shrunk {} ops -> {} (plan {:?}): {small_d}",
        ops.len(),
        small.len(),
        plan
    );
    for (i, ev) in small.iter().enumerate() {
        eprintln!("  {i:>3}: {ev}");
    }
    if let Some(dir) = repro_dir {
        let name = match seed {
            Some(seed) => format!("{dir}/{family}-seed{seed}.nsftrace"),
            None => format!("{dir}/{family}.nsftrace"),
        };
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
        Repro {
            family,
            plan,
            ops: small.clone(),
        }
        .write_file(&name)?;
        eprintln!("repro written to {name}");
    }
    Ok(())
}

/// Runs `iters` seeds per family; stops a family at its first
/// divergence. `Ok(true)` means everything was clean.
fn cmd_fuzz(args: &CliArgs) -> Result<bool, String> {
    let families = families_arg(args)?;
    let start: u64 = args.parsed_or("seed", 0u64).map_err(|e| e.to_string())?;
    let iters: u64 = args.parsed_or("iters", 500u64).map_err(|e| e.to_string())?;
    let cfg = stream_config(args).map_err(|e| e.to_string())?;
    let quiet = args.switch("quiet");
    let repro_dir = args.flag("repro-dir");
    let mut clean = true;

    for family in families {
        let mut faults = 0u64;
        let mut diverged = false;
        for seed in start..start + iters {
            let (ops, plan, verdict) = check_seed(family, &cfg, seed);
            match verdict {
                Ok(reports) => faults += reports.iter().map(|r| r.faults_absorbed).sum::<u64>(),
                Err(d) => {
                    report_divergence(family, Some(seed), &ops, plan, &d, repro_dir)?;
                    clean = false;
                    diverged = true;
                    break;
                }
            }
        }
        if !diverged && !quiet {
            println!(
                "{family:<13} {iters} seeds clean ({} lanes, {faults} injected faults absorbed)",
                family.lanes().len()
            );
        }
    }
    Ok(clean)
}

fn cmd_shrink(args: &CliArgs) -> Result<bool, String> {
    let families = families_arg(args)?;
    let [family] = families[..] else {
        return Err("shrink needs one --family (not `all`)".into());
    };
    let seed: u64 = args.parsed_or("seed", 0u64).map_err(|e| e.to_string())?;
    let cfg = stream_config(args).map_err(|e| e.to_string())?;
    let ops = generate(&cfg, seed);
    let plan = fault_plan_for_seed(seed);
    match check_family(family, &ops, plan) {
        Ok(_) => {
            println!("family {family} seed {seed}: no divergence; nothing to shrink");
            Ok(true)
        }
        Err(d) => {
            let repro_dir = args.flag("out").map(|_| ());
            let (small, small_d) = shrink_divergence(family, &ops, plan, &d);
            eprintln!(
                "family {family} seed {seed}: shrunk {} ops -> {}: {small_d}",
                ops.len(),
                small.len()
            );
            for (i, ev) in small.iter().enumerate() {
                eprintln!("  {i:>3}: {ev}");
            }
            if repro_dir.is_some() {
                let out = args.flag("out").expect("just checked");
                Repro {
                    family,
                    plan,
                    ops: small,
                }
                .write_file(out)?;
                eprintln!("repro written to {out}");
            }
            Ok(false)
        }
    }
}

/// Replays checked-in repros; each must now run clean (the divergence
/// it captured has been fixed).
fn cmd_replay_repro(args: &CliArgs) -> Result<bool, String> {
    let paths = args.positional();
    if paths.is_empty() {
        return Err("replay-repro needs at least one .nsftrace file".into());
    }
    let mut clean = true;
    for path in paths {
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
    Ok(clean)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first().map(String::as_str) else {
        return usage();
    };
    let Some(spec) = spec_for(cmd) else {
        return usage();
    };
    let args = match CliArgs::parse(&raw[1..], &spec) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("check_tool {cmd}: {e}");
            return usage();
        }
    };
    let result = match cmd {
        "fuzz" => cmd_fuzz(&args),
        "shrink" => cmd_shrink(&args),
        "replay-repro" => cmd_replay_repro(&args),
        _ => unreachable!("spec_for gated the command"),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => fail(e),
    }
}
