//! Simulator throughput report: wall-clock time of every figure grid on
//! the three passes the figure binaries and tests run, plus the
//! trace-replay path's throughput and the design-space explorer's rate.
//!
//! ```sh
//! cargo run --release -p nsf-bench --bin perf_report -- --scale 1
//! ```
//!
//! This measures the *simulator*, not the modeled machine. Each grid runs
//! [`ROUNDS`] interleaved rounds; a round builds the grid as its binary
//! would (render excluded), runs it live (`Sweep::run`, the equality
//! baseline), then through the stream store twice: cold into a fresh
//! scratch store (every capturable group captures and saves) and warm
//! (every stored group replays). Both stored passes must equal live.
//! Every wall time is reported as the median, min and max over the
//! rounds, so passes compared within a row share each round's host
//! load. A second section captures the Figure 12 workloads as
//! `.nsftrace` streams and re-sweeps the figure's whole configuration
//! grid by *replay* — the design-space shortcut `trace_tool` offers —
//! reporting events/sec through each engine family and the speedup over
//! the grid's live pass. A third section runs the sibling `nsf-explore`
//! binary over its default design-space spec (fresh ledger each time)
//! and records explorer throughput in configurations/sec plus the
//! online Pareto prune rate; it is marked unavailable when that binary
//! is not built. The numbers land in `results/BENCH_regfile.json`
//! (override the directory with `--out`) and a table on stdout;
//! EXPERIMENTS.md records the `--scale 1` history. Wall-clock timing is
//! inherently machine-dependent — these numbers never feed a figure, so
//! the determinism rule for results paths does not apply here.

use nsf_bench::figures::{
    ablations, depth_sweep, export_csv, fig09, fig10, fig11, fig12, fig13, fig14, fig_pipeline,
    related_work, summary, table1,
};
use nsf_bench::{pool_map, CliArgs, CliError, CliSpec, FrontendCacheStats, HarnessArgs, Sweep};
use nsf_sim::SimConfig;
use nsf_trace::{capture, parse_engine, replay_events, StreamStore, Trace};
use std::fs;
use std::path::Path;
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

/// Measurement rounds per grid, replay and explorer run. Every reported
/// wall time is summarized over this many samples.
const ROUNDS: usize = 5;

/// Median, min and max of one wall time over the rounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Spread {
    median: u128,
    min: u128,
    max: u128,
}

impl Spread {
    /// Summarizes `samples` (at least one, in any order). With an even
    /// count the median is the lower of the two middle values, so it is
    /// always a time that was measured.
    fn of(samples: impl IntoIterator<Item = u128>) -> Spread {
        let mut s: Vec<u128> = samples.into_iter().collect();
        assert!(!s.is_empty(), "a spread needs at least one sample");
        s.sort_unstable();
        Spread {
            median: s[(s.len() - 1) / 2],
            min: s[0],
            max: s[s.len() - 1],
        }
    }

    /// The median of nanosecond samples, in milliseconds.
    fn ms(&self) -> f64 {
        self.median as f64 / 1e6
    }

    /// `median [min-max]` of nanosecond samples, in milliseconds.
    fn cell(&self) -> String {
        format!(
            "{:.1} [{:.1}-{:.1}]",
            self.ms(),
            self.min as f64 / 1e6,
            self.max as f64 / 1e6
        )
    }

    fn json(&self) -> String {
        format!(
            "{{\"median\": {}, \"min\": {}, \"max\": {}}}",
            self.median, self.min, self.max
        )
    }
}

/// Runs `round` [`ROUNDS`] times and summarizes each of the `N` wall
/// times it returns per round.
fn rounds<const N: usize>(mut round: impl FnMut() -> [u128; N]) -> [Spread; N] {
    let samples: Vec<[u128; N]> = (0..ROUNDS).map(|_| round()).collect();
    std::array::from_fn(|k| Spread::of(samples.iter().map(|s| s[k])))
}

/// Runs `f` once, returning its result and its wall time in ns.
fn timed<T>(f: impl FnOnce() -> T) -> (T, u128) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos())
}

fn rate(events: u64, wall_ns: u128) -> f64 {
    ratio(u128::from(events) * 1_000_000_000, wall_ns)
}

fn ratio(num: u128, den: u128) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One `[` … `]` JSON array, an item per line, closed at `indent`.
fn json_array(items: impl IntoIterator<Item = String>, indent: &str) -> String {
    let lines: Vec<String> = items
        .into_iter()
        .map(|item| format!("{indent}  {item}"))
        .collect();
    format!("[\n{}\n{indent}]", lines.join(",\n"))
}

/// One grid's rounds.
struct Row {
    name: &'static str,
    points: usize,
    instructions: u64,
    build: Spread,
    /// `Sweep::run`: every point live.
    live: Spread,
    /// `Sweep::run_stored` against an empty store.
    cold: Spread,
    /// The same again, every stored stream served warm.
    warm: Spread,
    /// Counters of the warm pass (the same in every round).
    warm_stats: FrontendCacheStats,
}

impl Row {
    /// Runs [`ROUNDS`] rounds of build → live → cold → warm, with a fresh
    /// scratch store at `store_dir` for each cold pass.
    fn measure(name: &'static str, grid: GridFn, args: &HarnessArgs, store_dir: &Path) -> Row {
        let (mut points, mut instructions, mut warm_stats) = (0, 0, None);
        let [build, live, cold, warm] = rounds(|| {
            let (sweep, build_ns) = timed(|| grid(args.scale));
            let (reports, live_ns) = timed(|| sweep.run(args.threads));
            let _ = fs::remove_dir_all(store_dir);
            let store = StreamStore::open(store_dir);
            let stored = || sweep.run_stored_stats(args.threads, 0, Some(&store));
            let ((cold, _), cold_ns) = timed(stored);
            assert_eq!(reports, cold, "{name}: store-cold must equal live");
            let ((warm, stats), warm_ns) = timed(stored);
            assert_eq!(reports, warm, "{name}: store-warm must equal live");
            let prev = warm_stats.replace(stats);
            assert!(
                prev.is_none_or(|p| p == stats),
                "{name}: warm counters moved between rounds"
            );
            points = reports.len();
            instructions = reports.iter().map(|r| r.instructions).sum();
            [build_ns, live_ns, cold_ns, warm_ns]
        });
        let _ = fs::remove_dir_all(store_dir);
        Row {
            name,
            points,
            instructions,
            build,
            live,
            cold,
            warm,
            warm_stats: warm_stats.expect("at least one round"),
        }
    }

    /// Instructions per second of the live pass, from its median.
    fn live_rate(&self) -> f64 {
        rate(self.instructions, self.live.median)
    }

    /// Cold median over warm median.
    fn store_speedup(&self) -> f64 {
        ratio(self.cold.median, self.warm.median)
    }

    fn json(&self) -> String {
        format!(
            "{{\"grid\": \"{}\", \"points\": {}, \"instructions\": {}, \
             \"build_ns\": {}, \"live_ns\": {}, \"cold_ns\": {}, \"warm_ns\": {}, \
             \"live_minstr_per_sec\": {:.2}, \"store_speedup\": {:.2}, \
             \"warm_hits\": {}, \"warm_misses\": {}, \"warm_hit_rate\": {:.3}}}",
            self.name,
            self.points,
            self.instructions,
            self.build.json(),
            self.live.json(),
            self.cold.json(),
            self.warm.json(),
            self.live_rate() / 1e6,
            self.store_speedup(),
            self.warm_stats.store_hits,
            self.warm_stats.store_misses,
            self.warm_stats.store_hit_rate(),
        )
    }
}

/// One engine-family replay measurement.
struct EngineRow {
    workload: &'static str,
    engine: &'static str,
    events: u64,
    wall: Spread,
}

/// The replay-vs-live measurement over the Figure 12 grid.
struct ReplaySection {
    /// The grid's live pass (`Sweep::run`, build excluded).
    live: Spread,
    capture: Spread,
    replay: Spread,
    points: usize,
    engines: Vec<EngineRow>,
}

impl ReplaySection {
    fn speedup(&self) -> f64 {
        ratio(self.live.median, self.replay.median)
    }

    fn json(&self) -> String {
        let engines = self.engines.iter().map(|e| {
            format!(
                "{{\"workload\": \"{}\", \"engine\": \"{}\", \"events\": {}, \
                 \"wall_ns\": {}, \"events_per_sec\": {:.0}}}",
                e.workload,
                e.engine,
                e.events,
                e.wall.json(),
                rate(e.events, e.wall.median),
            )
        });
        format!(
            "{{\n    \"grid\": \"fig12_reload_vs_size\",\n    \"points\": {},\n    \
             \"live_ns\": {},\n    \"capture_ns\": {},\n    \"replay_ns\": {},\n    \
             \"speedup\": {:.2},\n    \"engines\": {}\n  }}",
            self.points,
            self.live.json(),
            self.capture.json(),
            self.replay.json(),
            self.speedup(),
            json_array(engines, "    "),
        )
    }
}

/// One completed `nsf-explore` run, parsed from its `explore-summary`
/// stdout line (the stable key=value summary the explorer prints).
struct ExploreRun {
    points: u64,
    evaluated: u64,
    checkpoints: u64,
    pruned: u64,
    front: u64,
    elapsed_ms: u64,
}

impl ExploreRun {
    fn parse(line: &str) -> Option<ExploreRun> {
        let field = |key: &str| {
            line.split_whitespace()
                .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
        };
        Some(ExploreRun {
            points: field("points")?,
            evaluated: field("evaluated")?,
            checkpoints: field("checkpoints")?,
            pruned: field("pruned")?,
            front: field("front")?,
            elapsed_ms: field("elapsed_ms")?,
        })
    }
}

/// The explorer's rounds: counts from the last run (every run evaluates
/// the same spec from a fresh ledger) and its own elapsed time, in ms.
struct ExploreSection {
    run: ExploreRun,
    elapsed_ms: Spread,
}

impl ExploreSection {
    /// Configurations evaluated per second, from the median elapsed time.
    fn configs_per_sec(&self) -> f64 {
        ratio(
            u128::from(self.run.evaluated) * 1000,
            self.elapsed_ms.median,
        )
    }

    /// Fraction of evaluated configurations the online Pareto prune
    /// discarded as dominated.
    fn prune_rate(&self) -> f64 {
        ratio(self.run.pruned.into(), self.run.points.into())
    }

    fn json(&self) -> String {
        format!(
            "{{\"available\": true, \"points\": {}, \"evaluated\": {}, \"checkpoints\": {}, \
             \"pruned\": {}, \"front\": {}, \"elapsed_ms\": {}, \"configs_per_sec\": {:.1}, \
             \"prune_rate\": {:.3}}}",
            self.run.points,
            self.run.evaluated,
            self.run.checkpoints,
            self.run.pruned,
            self.run.front,
            self.elapsed_ms.json(),
            self.configs_per_sec(),
            self.prune_rate(),
        )
    }
}

/// Runs the sibling `nsf-explore` binary over its default spec
/// [`ROUNDS`] times. `nsf-explore` depends on this crate, so the report
/// cannot link it as a library — it drives the built binary next to its
/// own executable instead, and degrades to `None` (section marked
/// unavailable) when that binary has not been built or a run fails.
fn explore_section(args: &HarnessArgs) -> Option<ExploreSection> {
    let exe = std::env::current_exe().ok()?;
    let bin = exe
        .parent()?
        .join(format!("nsf-explore{}", std::env::consts::EXE_SUFFIX));
    if !bin.exists() {
        return None;
    }
    // A scratch ledger directory, wiped before each run so the explorer
    // never resumes a previous run's ledger (resume would evaluate zero
    // points and time nothing).
    let out = std::env::temp_dir().join(format!("nsf-explore-perf-{}", std::process::id()));
    let explore_once = || {
        let _ = fs::remove_dir_all(&out);
        let output = std::process::Command::new(&bin)
            .args(["--scale", &args.scale.to_string()])
            .args(["--threads", &args.threads.to_string()])
            .arg("--quiet")
            .arg("--out")
            .arg(&out)
            .output()
            .ok()?;
        if !output.status.success() {
            return None;
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().find(|l| l.starts_with("explore-summary "))?;
        ExploreRun::parse(line)
    };
    let mut runs = Vec::new();
    let [elapsed_ms] = rounds(|| {
        let run = explore_once();
        let ms = run.as_ref().map_or(0, |r| r.elapsed_ms.into());
        runs.push(run);
        [ms]
    });
    let _ = fs::remove_dir_all(&out);
    let runs: Vec<ExploreRun> = runs.into_iter().collect::<Option<_>>()?;
    Some(ExploreSection {
        run: runs.into_iter().last()?,
        elapsed_ms,
    })
}

/// Replays every point of the Figure 12 sweep from recorded traces,
/// fanning across `threads` workers (the pool `Sweep::run` uses).
fn replay_grid(sweep: &Sweep, traces: &[Trace], threads: usize) -> usize {
    pool_map(sweep.points.len(), threads, |i| {
        let p = &sweep.points[i];
        replay_events(&traces[p.workload].events, &p.cfg)
            .unwrap_or_else(|e| panic!("grid replay failed: {e}"));
    })
    .len()
}

/// Captures the Figure 12 workloads and measures the replay path over
/// [`ROUNDS`] rounds of capture → grid replay: per-engine throughput
/// and the grid-sweep speedup over `live` (the grid's live pass).
fn replay_section(args: &HarnessArgs, live: Spread) -> ReplaySection {
    let workloads = [
        nsf_workloads::gatesim::build(args.scale),
        nsf_workloads::gamteb::build(args.scale),
    ];
    // The Figure 12 sweep again, but replayed from the traces instead of
    // re-running compiler + runtime + scheduler per configuration.
    let sweep = fig12::grid(args.scale);
    let mut traces = Vec::new();
    let mut points = 0;
    let [capture_wall, replay_wall] = rounds(|| {
        let capture_ns;
        (traces, capture_ns) = timed(|| {
            workloads
                .iter()
                .map(|w| {
                    let spec = nsf_trace::default_engine_spec(w.parallel);
                    let cfg = SimConfig::with_regfile(parse_engine(spec).expect("default spec"));
                    capture(w, cfg, spec, args.scale)
                        .unwrap_or_else(|e| panic!("{} capture failed: {e}", w.name))
                        .0
                })
                .collect()
        });
        let replay_ns;
        (points, replay_ns) = timed(|| replay_grid(&sweep, &traces, args.threads));
        [capture_ns, replay_ns]
    });

    // Per-engine-family throughput, measured serially.
    let mut engines = Vec::new();
    for (w, trace) in workloads.iter().zip(&traces) {
        let specs = if w.parallel { PAR_ENGINES } else { SEQ_ENGINES };
        for &spec in specs {
            let cfg = SimConfig::with_regfile(parse_engine(spec).expect("engine spec"));
            let mut events = 0;
            let [wall] = rounds(|| {
                let (r, ns) = timed(|| replay_events(&trace.events, &cfg));
                events = r
                    .unwrap_or_else(|e| panic!("{spec} replay failed: {e}"))
                    .events;
                [ns]
            });
            engines.push(EngineRow {
                workload: w.name,
                engine: spec,
                events,
                wall,
            });
        }
    }
    ReplaySection {
        live,
        capture: capture_wall,
        replay: replay_wall,
        points,
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
    // Both store passes are always *measured* here (they are the point
    // of the report); the switches are accepted so one wrapper flag set
    // drives every binary, and conflicts still error.
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
    // Scratch stream stores, one per grid, so nothing leaks across
    // reports or into the figure binaries' store.
    let store_root = std::env::temp_dir().join(format!("nsf-store-perf-{}", std::process::id()));

    println!(
        "Simulator throughput (scale {}, {} threads, {ROUNDS} rounds of build -> live -> \
         store cold -> store warm)",
        args.scale, args.threads
    );
    println!("Wall ms: median [min-max] over the rounds. Store spd: cold / warm medians.");
    println!(
        "{:<24} {:>6} {:>11} {:>22} {:>22} {:>22} {:>22} {:>8} {:>5} {:>6} {:>5} {:>6}",
        "Grid",
        "Points",
        "Instrs",
        "Build ms",
        "Live ms",
        "Cold ms",
        "Warm ms",
        "Minstr/s",
        "Hits",
        "Misses",
        "Hit%",
        "Spd"
    );
    nsf_bench::rule(154);
    let mut rows = Vec::new();
    for &(name, grid) in GRIDS {
        let row = Row::measure(name, grid, &args, &store_root.join(name));
        println!(
            "{:<24} {:>6} {:>11} {:>22} {:>22} {:>22} {:>22} {:>8.1} {:>5} {:>6} {:>4.0}% {:>5.2}x",
            row.name,
            row.points,
            row.instructions,
            row.build.cell(),
            row.live.cell(),
            row.cold.cell(),
            row.warm.cell(),
            row.live_rate() / 1e6,
            row.warm_stats.store_hits,
            row.warm_stats.store_misses,
            row.warm_stats.store_hit_rate() * 100.0,
            row.store_speedup(),
        );
        rows.push(row);
    }
    let _ = fs::remove_dir_all(&store_root);
    nsf_bench::rule(154);
    println!(
        "store-summary grids={} grids_with_warm_hits={} max_speedup={:.2}",
        rows.len(),
        rows.iter().filter(|r| r.warm_stats.store_hits > 0).count(),
        rows.iter().map(Row::store_speedup).fold(0.0, f64::max),
    );

    let live_fig12 = rows
        .iter()
        .find(|r| r.name == "fig12_reload_vs_size")
        .expect("fig12 is in GRIDS")
        .live;
    let replay = replay_section(&args, live_fig12);

    println!("\nTrace replay throughput (events/sec through each engine, median of {ROUNDS})");
    println!(
        "{:<10} {:<18} {:>12} {:>22} {:>14}",
        "Trace", "Engine", "Events", "Wall ms", "Events/sec"
    );
    nsf_bench::rule(80);
    for e in &replay.engines {
        println!(
            "{:<10} {:<18} {:>12} {:>22} {:>14.0}",
            e.workload,
            e.engine,
            e.events,
            e.wall.cell(),
            rate(e.events, e.wall.median),
        );
    }
    nsf_bench::rule(80);
    println!(
        "Fig. 12 grid ({} points, medians): live {:.1} ms, capture {:.1} ms, replay {:.1} ms \
         -> replay speedup {:.1}x",
        replay.points,
        replay.live.ms(),
        replay.capture.ms(),
        replay.replay.ms(),
        replay.speedup(),
    );

    let explore = explore_section(&args);
    println!(
        "\nDesign-space explorer (nsf-explore default spec, fresh ledger, median of {ROUNDS})"
    );
    match &explore {
        Some(e) => println!(
            "{} points, {} evaluated, {} checkpoints: {:.1} configs/sec, \
             pruned {} ({:.0}%) -> front {} ({} ms)",
            e.run.points,
            e.run.evaluated,
            e.run.checkpoints,
            e.configs_per_sec(),
            e.run.pruned,
            e.prune_rate() * 100.0,
            e.run.front,
            e.elapsed_ms.median,
        ),
        None => println!("unavailable (nsf-explore binary not built alongside perf_report)"),
    }

    let json = format!(
        "{{\n  \"scale\": {},\n  \"threads\": {},\n  \"rounds\": {ROUNDS},\n  \"grids\": {},\n  \
         \"replay\": {},\n  \"explore\": {}\n}}\n",
        args.scale,
        args.threads,
        json_array(rows.iter().map(Row::json), "  "),
        replay.json(),
        explore.map_or_else(|| "{\"available\": false}".to_string(), |e| e.json()),
    );
    let dir = args.results_dir();
    fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join("BENCH_regfile.json");
    fs::write(&path, json).expect("write BENCH_regfile.json");
    println!("\nwrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::Spread;

    fn spread(median: u128, min: u128, max: u128) -> Spread {
        Spread { median, min, max }
    }

    #[test]
    fn one_sample_is_its_own_spread() {
        assert_eq!(Spread::of([7]), spread(7, 7, 7));
    }

    #[test]
    fn odd_count_takes_the_middle_value() {
        assert_eq!(Spread::of([10, 20, 30, 40, 50]), spread(30, 10, 50));
    }

    #[test]
    fn even_count_takes_the_lower_middle_value() {
        // The lower of the two middle values, not their mean: the median
        // is always a time that was measured.
        assert_eq!(Spread::of([10, 20, 30, 40]), spread(20, 10, 40));
        assert_eq!(Spread::of([5, 6]), spread(5, 5, 6));
    }

    #[test]
    fn unsorted_input_is_sorted_first() {
        assert_eq!(Spread::of([50, 10, 40, 30, 20]), spread(30, 10, 50));
        assert_eq!(Spread::of([40, 10, 30, 20]), spread(20, 10, 40));
        assert_eq!(Spread::of([3, 3, 1, 3, 9]), spread(3, 1, 9));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn no_samples_is_an_error() {
        Spread::of([]);
    }
}
