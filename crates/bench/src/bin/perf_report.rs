//! Simulator throughput report: wall-clock time and simulated-event rate
//! for every figure grid, plus the trace-replay path's throughput and
//! its speedup over live simulation.
//!
//! ```sh
//! cargo run --release -p nsf-bench --bin perf_report -- --scale 1
//! ```
//!
//! This measures the *simulator*, not the modeled machine: each figure's
//! grid is built and run exactly as its binary would (render excluded, so
//! nothing is printed or written per figure), and the elapsed wall time is
//! divided into the total instructions simulated. Each grid is then
//! re-run through the frontend cache without a store
//! (`Sweep::run_stored`), asserting bit-identical reports and recording
//! the frontend-vs-engine time split and cache hit rate. A second section
//! captures the Figure 12 workloads as `.nsftrace` streams and re-sweeps
//! the figure's whole configuration grid by *replay* — the design-space
//! shortcut `trace_tool` offers — reporting events/sec through each
//! engine family and the replay-vs-live speedup. A third section runs
//! the sibling `nsf-explore` binary over its default design-space spec
//! (fresh ledger each time) and records explorer throughput in
//! configurations/sec plus the online Pareto prune rate; it is marked
//! unavailable when that binary is not built. The numbers land in
//! `results/BENCH_regfile.json` (override the directory with `--out`)
//! and a table on stdout; EXPERIMENTS.md records the `--scale 1`
//! history. Wall-clock timing is inherently machine-dependent — these
//! numbers never feed a figure, so the determinism rule for results
//! paths does not apply here.

use nsf_bench::figures::{
    ablations, depth_sweep, export_csv, fig09, fig10, fig11, fig12, fig13, fig14, fig_pipeline,
    related_work, summary, table1,
};
use nsf_bench::{CliArgs, CliError, CliSpec, FrontendCacheStats, HarnessArgs, Sweep};
use nsf_sim::SimConfig;
use nsf_trace::{capture, parse_engine, replay_events, StreamStore, Trace};
use std::fmt::Write as _;
use std::fs;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Builds one figure's (workload, config) point set at a given scale.
type GridFn = fn(u32) -> Sweep;

/// Every data-driven figure grid, in binary name order.
const GRIDS: &[(&str, GridFn)] = &[
    ("ablations", ablations::grid),
    ("depth_sweep", depth_sweep::grid),
    ("export_csv", export_csv::grid),
    ("fig09_utilization", fig09::grid),
    ("fig10_reload_traffic", fig10::grid),
    ("fig11_resident_contexts", fig11::grid),
    ("fig12_reload_vs_size", fig12::grid),
    ("fig13_line_size", fig13::grid),
    ("fig14_overhead", fig14::grid),
    ("fig_pipeline", fig_pipeline::grid),
    ("related_work", related_work::grid),
    ("summary", summary::grid),
    ("table1", table1::grid),
];

/// Engine families the captured traces are replayed through, per
/// workload class (specs for `nsf_trace::parse_engine`).
const SEQ_ENGINES: &[&str] = &[
    "nsf:80",
    "segmented:8x20",
    "segmented-sw:8x20",
    "windowed:20",
    "conventional:32",
];
const PAR_ENGINES: &[&str] = &[
    "nsf:128",
    "segmented:4x32",
    "segmented-sw:4x32",
    "windowed:32",
    "conventional:32",
];

struct Row {
    name: &'static str,
    points: usize,
    events: u64,
    wall_ns: u128,
    run_ns: u128,
    /// Wall time of the same grid through `Sweep::run_stored` without a
    /// store.
    cache_run_ns: u128,
    /// Frontend-vs-engine split and hit rate of the cached run.
    cache: FrontendCacheStats,
    /// Wall time of the grid through `Sweep::run_stored` against an
    /// empty store (captures + persists every stream).
    store_cold_ns: u128,
    /// Wall time of the same run again — every stream served warm.
    store_warm_ns: u128,
    /// Counters of the warm pass (hits, served points).
    store_warm: FrontendCacheStats,
}

impl Row {
    fn events_per_sec(&self) -> f64 {
        rate(self.events, self.wall_ns)
    }

    /// Instr/sec through the simulation core alone (grid build excluded).
    fn sim_events_per_sec(&self) -> f64 {
        rate(self.events, self.run_ns)
    }

    /// Instr/sec through the frontend cache.
    fn cache_events_per_sec(&self) -> f64 {
        rate(self.events, self.cache_run_ns)
    }

    /// Frontend-cache speedup over the serial core on this run.
    fn cache_speedup(&self) -> f64 {
        if self.cache_run_ns == 0 {
            0.0
        } else {
            self.run_ns as f64 / self.cache_run_ns as f64
        }
    }

    /// Warm-store speedup over the cold (capturing) pass.
    fn store_speedup(&self) -> f64 {
        if self.store_warm_ns == 0 {
            0.0
        } else {
            self.store_cold_ns as f64 / self.store_warm_ns as f64
        }
    }
}

fn rate(events: u64, wall_ns: u128) -> f64 {
    if wall_ns == 0 {
        0.0
    } else {
        events as f64 * 1e9 / wall_ns as f64
    }
}

/// One engine-family replay measurement.
struct EngineRow {
    workload: String,
    engine: &'static str,
    events: u64,
    wall_ns: u128,
}

/// The replay-vs-live measurement over the Figure 12 grid.
struct ReplaySection {
    live_wall_ns: u128,
    capture_wall_ns: u128,
    replay_wall_ns: u128,
    replayed_points: usize,
    engines: Vec<EngineRow>,
}

impl ReplaySection {
    fn speedup(&self) -> f64 {
        if self.replay_wall_ns == 0 {
            0.0
        } else {
            self.live_wall_ns as f64 / self.replay_wall_ns as f64
        }
    }
}

/// One completed `nsf-explore` run, parsed from its `explore-summary`
/// stdout line (the stable key=value summary the explorer prints).
struct ExploreStats {
    points: u64,
    evaluated: u64,
    checkpoints: u64,
    pruned: u64,
    front: u64,
    elapsed_ms: u64,
    configs_per_sec: f64,
}

impl ExploreStats {
    /// Fraction of evaluated configurations the online Pareto prune
    /// discarded as dominated.
    fn prune_rate(&self) -> f64 {
        if self.points == 0 {
            0.0
        } else {
            self.pruned as f64 / self.points as f64
        }
    }

    fn parse(line: &str) -> Option<ExploreStats> {
        let field = |key: &str| {
            line.split_whitespace()
                .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('=').map(str::to_string))
        };
        Some(ExploreStats {
            points: field("points")?.parse().ok()?,
            evaluated: field("evaluated")?.parse().ok()?,
            checkpoints: field("checkpoints")?.parse().ok()?,
            pruned: field("pruned")?.parse().ok()?,
            front: field("front")?.parse().ok()?,
            elapsed_ms: field("elapsed_ms")?.parse().ok()?,
            configs_per_sec: field("configs_per_sec")?.parse().ok()?,
        })
    }
}

/// Runs the sibling `nsf-explore` binary over its default spec and
/// parses the summary line. `nsf-explore` depends on this crate, so the
/// report cannot link it as a library — it drives the built binary next
/// to its own executable instead, and degrades to `None` (section marked
/// unavailable) when that binary has not been built.
fn explore_section(args: &HarnessArgs) -> Option<ExploreStats> {
    let exe = std::env::current_exe().ok()?;
    let bin = exe
        .parent()?
        .join(format!("nsf-explore{}", std::env::consts::EXE_SUFFIX));
    if !bin.exists() {
        return None;
    }
    // A scratch ledger directory, wiped before the run so the explorer
    // never resumes a previous report's ledger (resume would evaluate
    // zero points and time nothing).
    let out = std::env::temp_dir().join(format!("nsf-explore-perf-{}", std::process::id()));
    let _ = fs::remove_dir_all(&out);
    let output = std::process::Command::new(&bin)
        .args(["--scale", &args.scale.to_string()])
        .args(["--threads", &args.threads.to_string()])
        .arg("--quiet")
        .arg("--out")
        .arg(&out)
        .output()
        .ok()?;
    let _ = fs::remove_dir_all(&out);
    if !output.status.success() {
        return None;
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().find(|l| l.starts_with("explore-summary "))?;
    ExploreStats::parse(line)
}

/// Replays every point of the Figure 12 sweep from recorded traces,
/// fanning across `threads` workers (same pool shape as `Sweep::run`).
fn replay_grid(sweep: &Sweep, traces: &[Trace], threads: usize) -> usize {
    let replay_point = |p: &nsf_bench::SweepPoint| {
        replay_events(&traces[p.workload].events, &p.cfg)
            .unwrap_or_else(|e| panic!("grid replay failed: {e}"))
    };
    if threads <= 1 {
        for p in &sweep.points {
            replay_point(p);
        }
    } else {
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..threads.min(sweep.points.len()) {
                s.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(p) = sweep.points.get(i) else { break };
                    replay_point(p);
                });
            }
        });
    }
    sweep.points.len()
}

/// Captures the Figure 12 workloads and measures the replay path:
/// per-engine throughput and the grid-sweep speedup over `live_wall_ns`
/// (the live Figure 12 run timed in the main loop).
fn replay_section(args: &HarnessArgs, live_wall_ns: u128) -> ReplaySection {
    let workloads = [
        nsf_workloads::gatesim::build(args.scale),
        nsf_workloads::gamteb::build(args.scale),
    ];
    let t = Instant::now();
    let traces: Vec<Trace> = workloads
        .iter()
        .map(|w| {
            let spec = nsf_trace::default_engine_spec(w.parallel);
            let cfg = SimConfig::with_regfile(parse_engine(spec).expect("default spec"));
            let (trace, _) = capture(w, cfg, spec, args.scale)
                .unwrap_or_else(|e| panic!("{} capture failed: {e}", w.name));
            trace
        })
        .collect();
    let capture_wall_ns = t.elapsed().as_nanos();

    // The Figure 12 sweep again, but replayed from the traces instead of
    // re-running compiler + runtime + scheduler per configuration.
    let sweep = fig12::grid(args.scale);
    let t = Instant::now();
    let replayed_points = replay_grid(&sweep, &traces, args.threads);
    let replay_wall_ns = t.elapsed().as_nanos();

    // Per-engine-family throughput, measured serially.
    let mut engines = Vec::new();
    for trace in &traces {
        let specs = if trace.meta.workload == "GateSim" {
            SEQ_ENGINES
        } else {
            PAR_ENGINES
        };
        for &spec in specs {
            let cfg = SimConfig::with_regfile(parse_engine(spec).expect("engine spec"));
            let t = Instant::now();
            let r = replay_events(&trace.events, &cfg)
                .unwrap_or_else(|e| panic!("{spec} replay failed: {e}"));
            engines.push(EngineRow {
                workload: trace.meta.workload.clone(),
                engine: spec,
                events: r.events,
                wall_ns: t.elapsed().as_nanos(),
            });
        }
    }
    ReplaySection {
        live_wall_ns,
        capture_wall_ns,
        replay_wall_ns,
        replayed_points,
        engines,
    }
}

/// Strict argument parsing: unlike the figure binaries (which share a
/// flag set through [`HarnessArgs`] and ignore strays by design), a typo
/// here silently times the wrong experiment — reject it with usage.
fn parse_args() -> Result<HarnessArgs, CliError> {
    const SPEC: CliSpec = CliSpec {
        value_flags: &["scale", "threads", "out"],
        switches: &["quiet", "store", "no-store"],
        repeatable: &[],
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = CliArgs::parse(&raw, &SPEC)?;
    // Both store settings are always *measured* here (the cached and
    // store columns are the point of the report); the switches are
    // accepted so one wrapper flag set drives every binary, and
    // conflicts still error.
    if args.switch("store") && args.switch("no-store") {
        return Err(CliError::Conflict {
            a: "store".into(),
            b: "no-store".into(),
        });
    }
    let defaults = HarnessArgs::default();
    Ok(HarnessArgs {
        scale: args.parsed_or("scale", 1u32)?,
        threads: args.parsed_or("threads", defaults.threads)?.max(1),
        store: !args.switch("no-store"),
        quiet: args.switch("quiet"),
        out: args.flag("out").map(str::to_string),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perf_report: {e}\nusage: perf_report [--scale N] [--threads N] \
                 [--store | --no-store] [--out DIR] [--quiet]"
            );
            std::process::exit(64);
        }
    };
    let mut rows = Vec::new();
    // A scratch stream store per grid, wiped before and after the run so
    // the cold pass is genuinely cold and nothing leaks across reports.
    let store_root = std::env::temp_dir().join(format!("nsf-store-perf-{}", std::process::id()));
    let _ = fs::remove_dir_all(&store_root);

    println!(
        "Simulator throughput (scale {}, {} threads)",
        args.scale, args.threads
    );
    println!(
        "{:<26} {:>7} {:>14} {:>10} {:>14}",
        "Grid", "Points", "Instructions", "Wall ms", "Instr/sec"
    );
    nsf_bench::rule(74);
    for &(name, grid) in GRIDS {
        let t = Instant::now();
        let sweep = grid(args.scale);
        let build_ns = t.elapsed().as_nanos();
        let t = Instant::now();
        let reports = sweep.run(args.threads);
        let run_ns = t.elapsed().as_nanos();
        let t = Instant::now();
        let (cache_reports, cache) = sweep.run_stored_stats(args.threads, 0, None);
        let cache_run_ns = t.elapsed().as_nanos();
        assert_eq!(
            reports, cache_reports,
            "{name}: the frontend cache must be exact"
        );
        let grid_store = StreamStore::open(store_root.join(name));
        let t = Instant::now();
        let (cold_reports, _) = sweep.run_stored_stats(args.threads, 0, Some(&grid_store));
        let store_cold_ns = t.elapsed().as_nanos();
        assert_eq!(reports, cold_reports, "{name}: store-cold must be exact");
        let t = Instant::now();
        let (warm_reports, store_warm) = sweep.run_stored_stats(args.threads, 0, Some(&grid_store));
        let store_warm_ns = t.elapsed().as_nanos();
        assert_eq!(reports, warm_reports, "{name}: store-warm must be exact");
        let events: u64 = reports.iter().map(|r| r.instructions).sum();
        let row = Row {
            name,
            points: reports.len(),
            events,
            wall_ns: build_ns + run_ns,
            run_ns,
            cache_run_ns,
            cache,
            store_cold_ns,
            store_warm_ns,
            store_warm,
        };
        println!(
            "{:<26} {:>7} {:>14} {:>10.1} {:>14.0}",
            row.name,
            row.points,
            row.events,
            row.wall_ns as f64 / 1e6,
            row.events_per_sec(),
        );
        rows.push(row);
    }
    nsf_bench::rule(74);
    let total_events: u64 = rows.iter().map(|r| r.events).sum();
    let total_ns: u128 = rows.iter().map(|r| r.wall_ns).sum();
    println!(
        "{:<26} {:>7} {:>14} {:>10.1} {:>14.0}",
        "total",
        rows.iter().map(|r| r.points).sum::<usize>(),
        total_events,
        total_ns as f64 / 1e6,
        rate(total_events, total_ns),
    );

    // The simulation core alone: grid build (compiler + workload
    // generation) excluded, so this isolates the fetch/execute/register/
    // memory loop the devirtualized dispatch and flat page table serve.
    println!("\nSimulation core (sweep.run only, grid build excluded)");
    println!("{:<26} {:>10} {:>14}", "Grid", "Run ms", "Instr/sec");
    nsf_bench::rule(52);
    for r in &rows {
        println!(
            "{:<26} {:>10.1} {:>14.0}",
            r.name,
            r.run_ns as f64 / 1e6,
            r.sim_events_per_sec(),
        );
    }
    nsf_bench::rule(52);

    // Frontend-vs-engine split of the cached run: frontend ms covers the
    // per-group capture (workload generation + fetch/decode/schedule once
    // per frontend) plus points run live (uncapturable, or in groups too
    // narrow to capture); engine ms is replay only — the register-file/
    // memory timing model fed from the recorded event stream. Hit rate is
    // replayed points / points.
    println!("\nFrontend cache (sweep.run_stored, no store)");
    println!(
        "{:<26} {:>10} {:>12} {:>10} {:>9} {:>10}",
        "Grid", "Cached ms", "Frontend ms", "Engine ms", "Hit rate", "Cache spd"
    );
    nsf_bench::rule(82);
    for r in &rows {
        println!(
            "{:<26} {:>10.1} {:>12.1} {:>10.1} {:>8.0}% {:>9.2}x",
            r.name,
            r.cache_run_ns as f64 / 1e6,
            r.cache.frontend_ns as f64 / 1e6,
            r.cache.engine_ns as f64 / 1e6,
            r.cache.hit_rate() * 100.0,
            r.cache_speedup(),
        );
    }
    nsf_bench::rule(82);

    // Cold-vs-warm persistent store: the cold pass captures and persists
    // every capturable stream (so it pays capture encoding on top of the
    // live frontend); the warm pass replays everything — including
    // singleton and narrow groups — from the store. Reports were
    // asserted bit-identical to the serial sweep on both passes.
    println!("\nStream store (sweep.run_stored, cold vs warm)");
    println!(
        "{:<26} {:>10} {:>10} {:>9} {:>6} {:>7} {:>10}",
        "Grid", "Cold ms", "Warm ms", "Hit rate", "Hits", "Misses", "Store spd"
    );
    nsf_bench::rule(84);
    let mut warm_hit_grids = 0u64;
    let mut max_store_speedup = 0f64;
    for r in &rows {
        if r.store_warm.store_hits > 0 {
            warm_hit_grids += 1;
        }
        max_store_speedup = max_store_speedup.max(r.store_speedup());
        println!(
            "{:<26} {:>10.1} {:>10.1} {:>8.0}% {:>6} {:>7} {:>9.2}x",
            r.name,
            r.store_cold_ns as f64 / 1e6,
            r.store_warm_ns as f64 / 1e6,
            r.store_warm.store_hit_rate() * 100.0,
            r.store_warm.store_hits,
            r.store_warm.store_misses,
            r.store_speedup(),
        );
    }
    nsf_bench::rule(84);
    println!(
        "store-summary grids={} grids_with_warm_hits={} max_speedup={:.2}",
        rows.len(),
        warm_hit_grids,
        max_store_speedup,
    );
    let _ = fs::remove_dir_all(&store_root);

    let live_fig12_ns = rows
        .iter()
        .find(|r| r.name == "fig12_reload_vs_size")
        .expect("fig12 is in GRIDS")
        .wall_ns;
    let replay = replay_section(&args, live_fig12_ns);

    println!("\nTrace replay throughput (events/sec through each engine)");
    println!(
        "{:<10} {:<18} {:>12} {:>10} {:>14}",
        "Trace", "Engine", "Events", "Wall ms", "Events/sec"
    );
    nsf_bench::rule(68);
    for e in &replay.engines {
        println!(
            "{:<10} {:<18} {:>12} {:>10.1} {:>14.0}",
            e.workload,
            e.engine,
            e.events,
            e.wall_ns as f64 / 1e6,
            rate(e.events, e.wall_ns),
        );
    }
    nsf_bench::rule(68);
    println!(
        "Fig. 12 grid ({} points): live {:.1} ms, capture {:.1} ms, replay {:.1} ms \
         -> replay speedup {:.1}x",
        replay.replayed_points,
        replay.live_wall_ns as f64 / 1e6,
        replay.capture_wall_ns as f64 / 1e6,
        replay.replay_wall_ns as f64 / 1e6,
        replay.speedup(),
    );

    let explore = explore_section(&args);
    println!("\nDesign-space explorer (nsf-explore default spec, fresh ledger)");
    match &explore {
        Some(e) => println!(
            "{} points, {} evaluated, {} checkpoints: {:.1} configs/sec, \
             pruned {} ({:.0}%) -> front {} ({} ms)",
            e.points,
            e.evaluated,
            e.checkpoints,
            e.configs_per_sec,
            e.pruned,
            e.prune_rate() * 100.0,
            e.front,
            e.elapsed_ms,
        ),
        None => println!("unavailable (nsf-explore binary not built alongside perf_report)"),
    }

    let mut json = String::from("{\n");
    writeln!(json, "  \"scale\": {},", args.scale).unwrap();
    writeln!(json, "  \"threads\": {},", args.threads).unwrap();
    json.push_str("  \"grids\": [\n");
    for (i, r) in rows.iter().enumerate() {
        writeln!(
            json,
            "    {{\"workload\": \"{}\", \"config\": \"scale {}\", \
             \"events\": {}, \"wall_ns\": {}, \"events_per_sec\": {:.0}}}{}",
            r.name,
            args.scale,
            r.events,
            r.wall_ns,
            r.events_per_sec(),
            if i + 1 < rows.len() { "," } else { "" },
        )
        .unwrap();
    }
    json.push_str("  ],\n");
    json.push_str("  \"sim_core\": [\n");
    for (i, r) in rows.iter().enumerate() {
        writeln!(
            json,
            "    {{\"grid\": \"{}\", \"events\": {}, \"run_wall_ns\": {}, \
             \"instr_per_sec\": {:.0}, \
             \"cache_run_wall_ns\": {}, \"cache_instr_per_sec\": {:.0}, \
             \"cache_frontend_ns\": {}, \"cache_engine_ns\": {}, \
             \"cache_hit_rate\": {:.3}, \"frontend_cache_speedup\": {:.2}}}{}",
            r.name,
            r.events,
            r.run_ns,
            r.sim_events_per_sec(),
            r.cache_run_ns,
            r.cache_events_per_sec(),
            r.cache.frontend_ns,
            r.cache.engine_ns,
            r.cache.hit_rate(),
            r.cache_speedup(),
            if i + 1 < rows.len() { "," } else { "" },
        )
        .unwrap();
    }
    json.push_str("  ],\n");
    json.push_str("  \"store\": [\n");
    for (i, r) in rows.iter().enumerate() {
        writeln!(
            json,
            "    {{\"grid\": \"{}\", \"cold_wall_ns\": {}, \"warm_wall_ns\": {}, \
             \"store_speedup\": {:.2}, \"warm_hit_rate\": {:.3}, \
             \"store_hits\": {}, \"store_misses\": {}}}{}",
            r.name,
            r.store_cold_ns,
            r.store_warm_ns,
            r.store_speedup(),
            r.store_warm.store_hit_rate(),
            r.store_warm.store_hits,
            r.store_warm.store_misses,
            if i + 1 < rows.len() { "," } else { "" },
        )
        .unwrap();
    }
    json.push_str("  ],\n");
    json.push_str("  \"replay\": {\n");
    writeln!(json, "    \"grid\": \"fig12_reload_vs_size\",").unwrap();
    writeln!(json, "    \"points\": {},", replay.replayed_points).unwrap();
    writeln!(json, "    \"live_wall_ns\": {},", replay.live_wall_ns).unwrap();
    writeln!(json, "    \"capture_wall_ns\": {},", replay.capture_wall_ns).unwrap();
    writeln!(json, "    \"replay_wall_ns\": {},", replay.replay_wall_ns).unwrap();
    writeln!(json, "    \"speedup\": {:.2},", replay.speedup()).unwrap();
    json.push_str("    \"engines\": [\n");
    for (i, e) in replay.engines.iter().enumerate() {
        writeln!(
            json,
            "      {{\"workload\": \"{}\", \"engine\": \"{}\", \"events\": {}, \
             \"wall_ns\": {}, \"events_per_sec\": {:.0}}}{}",
            e.workload,
            e.engine,
            e.events,
            e.wall_ns,
            rate(e.events, e.wall_ns),
            if i + 1 < replay.engines.len() {
                ","
            } else {
                ""
            },
        )
        .unwrap();
    }
    json.push_str("    ]\n  },\n");
    json.push_str("  \"explore\": ");
    match &explore {
        Some(e) => {
            json.push_str("{\n");
            writeln!(json, "    \"available\": true,").unwrap();
            writeln!(json, "    \"points\": {},", e.points).unwrap();
            writeln!(json, "    \"evaluated\": {},", e.evaluated).unwrap();
            writeln!(json, "    \"checkpoints\": {},", e.checkpoints).unwrap();
            writeln!(json, "    \"pruned\": {},", e.pruned).unwrap();
            writeln!(json, "    \"front\": {},", e.front).unwrap();
            writeln!(json, "    \"elapsed_ms\": {},", e.elapsed_ms).unwrap();
            writeln!(json, "    \"configs_per_sec\": {:.1},", e.configs_per_sec).unwrap();
            writeln!(json, "    \"prune_rate\": {:.3}", e.prune_rate()).unwrap();
            json.push_str("  }\n}\n");
        }
        None => json.push_str("{\"available\": false}\n}\n"),
    }

    let dir = args.results_dir();
    fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join("BENCH_regfile.json");
    fs::write(&path, json).expect("write BENCH_regfile.json");
    println!("\nwrote {}", path.display());
}
