//! `nsf-simbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints the host record, the workload manifest and one `metric` line
//! per measurement, then the result as one JSON object on the last
//! line. Inputs are built at scale 1; the self-test runs the library
//! at scale 0. Scratch stores and the span file live under `.simbench/` in
//! the working directory. Exits 64 on a bad command line.

use nsf_bench::{CliArgs, CliError, CliSpec};
use nsf_simbench::gen::Kind;
use nsf_simbench::{report, run, RunConfig};
use std::path::PathBuf;

const SPEC: CliSpec = CliSpec {
    value_flags: &["workload", "seed", "seconds", "trace"],
    switches: &[],
    repeatable: &[],
};

const USAGE: &str = "usage: nsf-simbench --workload explore-fan|figure-narrow|live-only \
     --seed N --seconds S --trace 0|1";

fn parse(raw: &[String]) -> Result<RunConfig, String> {
    let args = CliArgs::parse(raw, &SPEC).map_err(|e| e.to_string())?;
    if let Some(p) = args.positional().first() {
        return Err(format!("unexpected argument {p:?}"));
    }
    let required = |name: &str| args.flag(name).ok_or(format!("--{name} is required"));
    let bad = |flag: &str, value: &str| {
        CliError::BadValue {
            flag: flag.into(),
            value: value.into(),
        }
        .to_string()
    };
    let workload = required("workload")?;
    let kind = Kind::parse(workload).ok_or_else(|| bad("workload", workload))?;
    let seed = required("seed")?;
    let seconds = required("seconds")?;
    let trace = required("trace")?;
    let cfg = RunConfig {
        kind,
        seed: seed.parse().map_err(|_| bad("seed", seed))?,
        seconds: seconds
            .parse::<f64>()
            .ok()
            .filter(|s| s.is_finite() && *s >= 0.0)
            .ok_or_else(|| bad("seconds", seconds))?,
        trace: match trace {
            "0" => false,
            "1" => true,
            _ => return Err(bad("trace", trace)),
        },
        scale: 1,
        root: PathBuf::from(".simbench"),
    };
    Ok(cfg)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let cfg = parse(&raw).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("{USAGE}");
        std::process::exit(64);
    });
    let result = run(&cfg);
    for line in &result.lines {
        println!("{line}");
    }
    println!(
        "{}",
        report::result_line(
            result.correct,
            result.attempted,
            result.failed,
            &result.metrics
        )
    );
}
