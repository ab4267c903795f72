//! `nsf-explore` — the design-space exploration service.
//!
//! ```text
//! cargo run --release -p nsf-explore -- --scale 0 --shard 0/2
//! ```
//!
//! Axes default to [`ExploreSpec::default_spec`]; every list flag is
//! comma-separated. The run checkpoints to an append-only ledger under
//! the workspace `results/` directory (or `--out DIR`) and can be
//! killed and re-invoked at any time: it resumes after the last intact
//! record. `--merge L1,L2,...` skips execution and merges completed
//! shard ledgers into the combined front instead.
//!
//! Exit codes (the tools' shared rule, `nsf_bench::cli`): 0 success, 2
//! runtime error, 64 usage error (a spec `validate` refuses included).

use nsf_bench::{bad_value, CliArgs, CliError, CliSpec, Command, Operands, ToolError};
use nsf_explore::{
    merge_ledgers, CacheGeom, ExploreError, ExploreSpec, Explorer, Family, DEFAULT_CHUNK,
};
use nsf_workloads::{Benchmark, BENCHMARKS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: nsf-explore [--scale N] [--shard I/N] [--out DIR]
                   [--families LIST] [--regs LIST] [--lines LIST]
                   [--contexts LIST] [--caches LIST] [--workloads LIST]
                   [--chunk N] [--stop-after N] [--threads N]
                   [--store | --no-store] [--quiet] [--merge LEDGER,LEDGER,...]
  lists are comma-separated; families use the engine-spec kinds
  (nsf, segmented, segmented-sw, segmented-valid, windowed, conventional);
  caches are sparc2 or <capacity>x<line>x<ways> in words; workloads are";

/// The paper benchmarks' CLI names that pass `keep`, in paper order.
fn workload_names(keep: fn(&Benchmark) -> bool) -> Vec<&'static str> {
    BENCHMARKS
        .iter()
        .filter(|b| keep(b))
        .map(|b| b.cli)
        .collect()
}

const EXPLORE: Command = Command {
    name: "nsf-explore",
    spec: CliSpec {
        value_flags: &[
            "scale",
            "shard",
            "out",
            "families",
            "regs",
            "lines",
            "contexts",
            "caches",
            "workloads",
            "chunk",
            "stop-after",
            "threads",
            "merge",
        ],
        switches: &["quiet", "store", "no-store"],
        repeatable: &[],
    },
    operands: Operands::None,
    run: explore,
};

/// Parses a comma-separated list flag through `one`, defaulting when
/// the flag is absent.
fn list<T>(
    args: &CliArgs,
    flag: &str,
    default: Vec<T>,
    one: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, CliError> {
    match args.flag(flag) {
        None => Ok(default),
        Some(v) => v
            .split(',')
            .map(|item| one(item.trim()).ok_or_else(|| bad_value(flag, item)))
            .collect(),
    }
}

/// Expands the workload aliases and deduplicates, preserving order.
fn workload_list(args: &CliArgs) -> Result<Vec<String>, CliError> {
    let names = match args.flag("workloads") {
        None => return Ok(ExploreSpec::default_spec(0).workloads),
        Some(v) => v,
    };
    let mut out: Vec<String> = Vec::new();
    for item in names.split(',') {
        let expanded = match item.trim() {
            "seq" => workload_names(|b| !b.parallel),
            "par" => workload_names(|b| b.parallel),
            "all" => workload_names(|_| true),
            one => {
                nsf_explore::workload_builder(one).map_err(|_| bad_value("workloads", one))?;
                vec![one]
            }
        };
        for w in expanded {
            if !out.iter().any(|o| o == w) {
                out.push(w.to_string());
            }
        }
    }
    Ok(out)
}

fn build(args: &CliArgs) -> Result<Explorer, ToolError> {
    let scale = args.scale(0)?;
    let defaults = ExploreSpec::default_spec(scale);
    let spec = ExploreSpec {
        families: list(args, "families", defaults.families, |s| {
            Family::parse(s).ok()
        })?,
        total_regs: list(args, "regs", defaults.total_regs, |s| s.parse().ok())?,
        line_sizes: list(args, "lines", defaults.line_sizes, |s| s.parse().ok())?,
        contexts: list(args, "contexts", defaults.contexts, |s| s.parse().ok())?,
        caches: list(args, "caches", defaults.caches, |s| {
            CacheGeom::parse(s).ok()
        })?,
        workloads: workload_list(args)?,
        scale,
    };
    spec.validate()
        .map_err(|e| ToolError::Usage(e.to_string()))?;

    let (shard_index, shard_count) = match args.flag("shard") {
        None => (0, 1),
        Some(v) => {
            let parsed = v.split_once('/').and_then(|(i, n)| {
                let i: u32 = i.parse().ok()?;
                let n: u32 = n.parse().ok()?;
                (n > 0 && i < n).then_some((i, n))
            });
            parsed.ok_or_else(|| bad_value("shard", v))?
        }
    };

    let out_dir = match args.flag("out") {
        Some(dir) => PathBuf::from(dir),
        None => nsf_bench::workspace_results_dir(),
    };
    let mut ex = Explorer::new(spec, out_dir);
    ex.shard_index = shard_index;
    ex.shard_count = shard_count;
    ex.threads = args.threads(ex.threads)?;
    ex.chunk = args.parsed_or("chunk", DEFAULT_CHUNK)?;
    ex.stop_after = args.parsed("stop-after")?;
    ex.quiet = args.switch("quiet");
    // The persistent store defaults ON and lives inside the output
    // directory, next to the ledger it accelerates.
    ex.store_dir = args.store()?.then(|| ex.out_dir.join("store"));
    Ok(ex)
}

/// A spec the explorer refuses is a rejected command line; anything
/// else (an unreadable ledger, a failed write) is a runtime error.
fn explore(args: &CliArgs) -> Result<(), ToolError> {
    run(&build(args)?, args).map_err(|e| match e {
        ExploreError::Spec(e) => ToolError::Usage(e.to_string()),
        e => ToolError::Runtime(e.to_string()),
    })
}

fn run(ex: &Explorer, args: &CliArgs) -> Result<(), ExploreError> {
    if let Some(ledgers) = args.flag("merge") {
        let images: Result<Vec<Vec<u8>>, std::io::Error> =
            ledgers.split(',').map(std::fs::read).collect();
        let (records, front) = merge_ledgers(&ex.spec, &images?)?;
        let path = ex.out_dir.join("explore_front_merged.txt");
        std::fs::create_dir_all(&ex.out_dir).map_err(ExploreError::from)?;
        std::fs::write(&path, &front).map_err(ExploreError::from)?;
        println!(
            "explore-summary merged={} records={} front_file={}",
            ledgers.split(',').count(),
            records.len(),
            path.display()
        );
        return Ok(());
    }
    let outcome = ex.run()?;
    let secs = outcome.elapsed.as_secs_f64();
    let rate = if secs > 0.0 {
        outcome.evaluated as f64 / secs
    } else {
        0.0
    };
    println!(
        "explore-summary shard={}/{} points={} shard_points={} resumed={} evaluated={} \
         memoized={} checkpoints={} pruned={} front={} completed={} elapsed_ms={} \
         configs_per_sec={:.1}",
        ex.shard_index,
        ex.shard_count,
        outcome.total_points,
        outcome.shard_points,
        outcome.resumed,
        outcome.evaluated,
        outcome.memoized,
        outcome.checkpoints,
        outcome.pruned,
        outcome.front_size,
        outcome.completed,
        outcome.elapsed.as_millis(),
        rate,
    );
    Ok(())
}

fn main() -> ExitCode {
    let usage = format!(
        "{USAGE}\n  {},\n  or the aliases seq / par / all",
        workload_names(|_| true).join(" ")
    );
    nsf_bench::command_main("nsf-explore", &usage, &EXPLORE)
}
