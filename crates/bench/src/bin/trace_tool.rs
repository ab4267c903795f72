//! Record, inspect, replay and diff `.nsftrace` frontend-stream traces.
//!
//! ```sh
//! # Capture any benchmark's operation stream (validated live run):
//! cargo run --release -p nsf-bench --bin trace_tool -- \
//!     record --workload gatesim --scale 1 --out gatesim.nsftrace
//!
//! # Header, staged memory, event histogram and sizes:
//! cargo run --release -p nsf-bench --bin trace_tool -- info gatesim.nsftrace
//!
//! # Re-sweep the design space from the trace (no workload re-execution);
//! # several engines fan across --threads workers:
//! cargo run --release -p nsf-bench --bin trace_tool -- \
//!     replay gatesim.nsftrace --engine nsf:80 --engine segmented:4x20 --threads 2
//!
//! # First divergent operation and per-statistic deltas between engines:
//! cargo run --release -p nsf-bench --bin trace_tool -- \
//!     diff gatesim.nsftrace --a nsf:80 --b nsf:40
//! ```
//!
//! Engine specs follow `nsf_trace::spec` (`nsf:80`, `nsf:128x4`,
//! `segmented:4x32`, `segmented-sw:...`, `segmented-valid:...`,
//! `windowed:20`, `conventional:32`, `oracle`). A trace is the sweep's
//! frontend stream plus the workload's staged memory, and replay checks
//! every recorded value on the way. Replaying it through the engine that
//! recorded it reproduces the live run's statistics exactly; other
//! engines answer "what would this op stream have cost on that file?"
//! (for a parallel program: this recorded interleaving of its threads).

use nsf_bench::{pool_map, CliArgs, CliSpec};
use nsf_sim::SimConfig;
use nsf_trace::{capture, diff, parse_engine, replay, ReplayReport, Trace};
use nsf_workloads::Workload;
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> ExitCode {
    eprintln!(
        "usage: trace_tool record --workload NAME [--engine SPEC] [--scale N] [--out FILE]\n\
         \x20      trace_tool info FILE\n\
         \x20      trace_tool replay FILE [--engine SPEC]... [--threads N]\n\
         \x20      trace_tool diff FILE --a SPEC --b SPEC"
    );
    ExitCode::from(64)
}

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("trace_tool: {msg}");
    ExitCode::from(2)
}

/// The flags each subcommand accepts (strict: anything else errors).
fn spec_for(cmd: &str) -> Option<CliSpec> {
    // `replay` fans one trace across many engines, so only its
    // `--engine` may repeat; everywhere else a duplicate flag is a
    // usage error (exit 64), like every other binary's CLI.
    let (value_flags, repeatable): (&'static [&'static str], &'static [&'static str]) = match cmd {
        "record" => (&["workload", "engine", "scale", "out"], &[]),
        "info" => (&[], &[]),
        "replay" => (&["engine", "threads"], &["engine"]),
        "diff" => (&["a", "b"], &[]),
        _ => return None,
    };
    Some(CliSpec {
        value_flags,
        switches: &[],
        repeatable,
    })
}

type Args = CliArgs;

/// Builds the named paper benchmark (case-insensitive) at `scale`.
fn workload_by_name(name: &str, scale: u32) -> Result<Workload, String> {
    let known = &nsf_workloads::BENCHMARKS;
    let b = known
        .iter()
        .find(|b| b.cli.eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let names: Vec<&str> = known.iter().map(|b| b.cli).collect();
            format!("unknown workload {name:?}; known: {}", names.join(", "))
        })?;
    Ok((b.build)(scale))
}

fn engine_config(spec: &str) -> Result<SimConfig, String> {
    Ok(SimConfig::with_regfile(
        parse_engine(spec).map_err(|e| e.to_string())?,
    ))
}

fn cmd_record(args: &Args) -> Result<(), String> {
    let name = args
        .flag("workload")
        .ok_or("record needs --workload NAME")?;
    let scale: u32 = match args.flag("scale") {
        Some(s) => s.parse().map_err(|_| format!("bad --scale {s:?}"))?,
        None => 1,
    };
    let workload = workload_by_name(name, scale)?;
    let spec = args
        .flag("engine")
        .unwrap_or_else(|| nsf_trace::default_engine_spec(workload.parallel));
    let out = args
        .flag("out")
        .map(str::to_string)
        .unwrap_or_else(|| format!("{}.nsftrace", workload.name.to_lowercase()));
    let cfg = engine_config(spec)?;
    let t = Instant::now();
    let (trace, report) = capture(&workload, cfg, spec, scale)
        .map_err(|e| format!("capture under {spec} failed: {e}"))?;
    trace
        .write_file(&out)
        .map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "recorded {}: {} events ({} stream bytes) from {} instructions under {} in {:.1} ms",
        out,
        trace.events.len(),
        trace.events.encoded_len(),
        report.instructions,
        spec,
        t.elapsed().as_secs_f64() * 1e3,
    );
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let path = args.positional().first().ok_or("info needs a trace file")?;
    let image = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let bytes = image.len();
    // Decoding checks the checksum and every header field; the histogram
    // walks the stream a tile at a time, so it checks every event and
    // the event count without holding the decoded stream.
    let trace = Trace::from_vec(image).map_err(|e| format!("reading {path}: {e}"))?;
    let kinds = trace
        .events
        .kind_counts()
        .map_err(|e| format!("reading {path}: {e}"))?;
    let meta = &trace.meta;
    let staged = &trace.events.mem_init;
    let events = trace.events.len();
    println!("{path}: nsftrace v{}", nsf_trace::FORMAT_VERSION);
    println!("  workload          {}", meta.workload);
    println!("  engine            {}", meta.engine);
    println!("  scale             {}", meta.scale);
    println!("  instructions      {}", meta.instructions);
    println!("  cycles            {}", meta.cycles);
    println!("  context switches  {}", meta.context_switches);
    println!(
        "  staged memory     {} blocks, {} words",
        staged.len(),
        staged.iter().map(|(_, words)| words.len()).sum::<usize>()
    );
    println!(
        "  events            {events} ({} shared cycles)",
        trace.events.shared_cycles
    );
    println!(
        "  size              {bytes} bytes ({:.2} bytes/event)",
        if events == 0 {
            0.0
        } else {
            bytes as f64 / events as f64
        }
    );
    for (kind, n) in kinds {
        println!("    {kind:<15} {n}");
    }
    println!("  integrity         ok (checksum, every event and the count verified)");
    Ok(())
}

fn print_replay(spec: &str, meta_instructions: u64, r: &ReplayReport, wall_ms: f64) {
    let s = &r.stats;
    println!(
        "{:<18} {:>10} {:>10} {:>9} {:>9} {:>11} {:>9.4} {:>9.1}",
        spec,
        s.reads,
        s.writes,
        s.regs_reloaded,
        s.regs_spilled,
        s.spill_reload_cycles,
        s.reloads_per_instruction(meta_instructions),
        wall_ms,
    );
}

fn cmd_replay(args: &Args) -> Result<(), String> {
    let path = args
        .positional()
        .first()
        .ok_or("replay needs a trace file")?;
    let trace = Trace::read_file(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut specs: Vec<String> = args
        .flag_all("engine")
        .iter()
        .flat_map(|s| s.split(','))
        .map(str::to_string)
        .collect();
    if specs.is_empty() {
        specs.push(trace.meta.engine.clone());
    }
    let threads: usize = match args.flag("threads") {
        Some(t) => t.parse().map_err(|_| format!("bad --threads {t:?}"))?,
        None => 1,
    };
    let configs: Vec<(String, SimConfig)> = specs
        .iter()
        .map(|s| Ok((s.clone(), engine_config(s)?)))
        .collect::<Result<_, String>>()?;

    println!(
        "replaying {} ({} events, {} instructions live) through {} engine(s)",
        path,
        trace.events.len(),
        trace.meta.instructions,
        configs.len()
    );
    println!(
        "{:<18} {:>10} {:>10} {:>9} {:>9} {:>11} {:>9} {:>9}",
        "Engine", "Reads", "Writes", "Reloads", "Spills", "SpillCyc", "Rld/inst", "Wall ms"
    );
    nsf_bench::rule(92);
    // Engines are independent; fan them across worker threads. The
    // printed order stays the spec order regardless of completion.
    let results: Vec<(ReplayReport, f64)> = pool_map(configs.len(), threads, |i| {
        let (spec, cfg) = &configs[i];
        let t = Instant::now();
        let r = replay(&trace, cfg).map_err(|e| format!("{spec}: {e}"))?;
        Ok((r, t.elapsed().as_secs_f64() * 1e3))
    })
    .into_iter()
    .collect::<Result<_, String>>()?;
    for ((spec, _), (r, wall_ms)) in configs.iter().zip(&results) {
        print_replay(spec, trace.meta.instructions, r, *wall_ms);
    }
    if let Some((same, _)) = configs
        .iter()
        .zip(&results)
        .find(|((spec, _), _)| **spec == trace.meta.engine)
    {
        println!(
            "note: {} is the recording engine; its replayed statistics are exact",
            same.0
        );
    }
    Ok(())
}

fn cmd_diff(args: &Args) -> Result<(), String> {
    let path = args.positional().first().ok_or("diff needs a trace file")?;
    let spec_a = args.flag("a").ok_or("diff needs --a SPEC")?;
    let spec_b = args.flag("b").ok_or("diff needs --b SPEC")?;
    let trace = Trace::read_file(path).map_err(|e| format!("reading {path}: {e}"))?;
    let d = diff(&trace, &engine_config(spec_a)?, &engine_config(spec_b)?)
        .map_err(|e| format!("--a {spec_a} --b {spec_b}: {e}"))?;
    println!(
        "diffing {} ({} events) — A: {} | B: {}",
        path, d.a.events, d.a.regfile_desc, d.b.regfile_desc
    );
    match &d.first_divergence {
        Some(div) => println!(
            "first divergence at event {}: {}\n  {}",
            div.index, div.op, div.detail
        ),
        None => println!("no per-operation divergence"),
    }
    if d.deltas.is_empty() {
        println!("statistics identical");
    } else {
        println!("{:<22} {:>12} {:>12} {:>12}", "Statistic", "A", "B", "B-A");
        nsf_bench::rule(62);
        for s in &d.deltas {
            println!("{:<22} {:>12} {:>12} {:>+12}", s.name, s.a, s.b, s.delta());
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first().map(String::as_str) else {
        return usage();
    };
    let Some(spec) = spec_for(cmd) else {
        return usage();
    };
    let args = match Args::parse(&raw[1..], &spec) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("trace_tool {cmd}: {e}");
            return usage();
        }
    };
    let result = match cmd {
        "record" => cmd_record(&args),
        "info" => cmd_info(&args),
        "replay" => cmd_replay(&args),
        "diff" => cmd_diff(&args),
        _ => unreachable!("spec_for gated the command"),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(e),
    }
}
