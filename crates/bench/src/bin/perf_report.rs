//! Simulator throughput report: wall-clock time of every figure grid on
//! the three passes the figure binaries and tests run, plus the
//! design-space explorer's rate.
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
//! rounds. The speedups are medians of per-round ratios (cold ÷ warm,
//! live ÷ cold, live ÷ warm), so the two passes of each ratio share one
//! round's host load; each grid's JSON row also lists every round's
//! ratios. (The store-warm pass replays through the same tile loop
//! `trace_tool replay` runs, so it times that kernel on every grid.) A
//! second section runs the sibling `nsf-explore` binary over its default
//! design-space spec (fresh ledger each time) and records explorer
//! throughput in configurations/sec plus the online Pareto prune rate;
//! it is marked unavailable when that binary is not built. The numbers
//! land in `results/BENCH_regfile.json` (override the directory with
//! `--out`) and a table on stdout, with a host line (CPU count, CPU
//! model, the `rustc` on `PATH`) and the process's peak RSS (`VmHWM`;
//! `null` where it cannot be read) on the closing `store-summary` line
//! and in the JSON — reported, never gated. EXPERIMENTS.md records the
//! `--scale 1` history. Wall-clock
//! timing is inherently machine-dependent — these numbers never feed a
//! figure, so the determinism rule for results paths does not apply
//! here.

use nsf_bench::figures::{
    ablations, depth_sweep, export_csv, fig09, fig10, fig11, fig12, fig13, fig14, fig_pipeline,
    related_work, summary, table1,
};
use nsf_bench::{CliArgs, CliError, CliSpec, FrontendCacheStats, HarnessArgs, Sweep};
use nsf_trace::StreamStore;
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

/// Measurement rounds per grid and explorer run. Every reported
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

/// The median of per-round ratios `num / den`, the lower middle value
/// with an even count (as in [`Spread`]). Both times of a pair come from
/// one round and share its host load, which a ratio of two medians over
/// all rounds does not cancel.
fn paired_ratio(pairs: impl IntoIterator<Item = (u128, u128)>) -> f64 {
    let mut r: Vec<f64> = pairs.into_iter().map(|(n, d)| ratio(n, d)).collect();
    assert!(!r.is_empty(), "a paired ratio needs at least one round");
    r.sort_by(f64::total_cmp);
    r[(r.len() - 1) / 2]
}

/// Each pair's ratio `num / den`, as a one-line JSON array.
fn ratios_json(pairs: impl Iterator<Item = (u128, u128)>) -> String {
    let r: Vec<String> = pairs.map(|(n, d)| format!("{:.3}", ratio(n, d))).collect();
    format!("[{}]", r.join(", "))
}

/// The process's resident high-water mark in MB (`VmHWM` in
/// `/proc/self/status`), or `None` where it cannot be read.
fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb as f64 / 1024.0)
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
    /// Live, cold and warm wall times of each round, in round order.
    round_ns: Vec<(u128, u128, u128)>,
}

impl Row {
    /// Runs [`ROUNDS`] rounds of build → live → cold → warm, with a fresh
    /// scratch store at `store_dir` for each cold pass.
    fn measure(name: &'static str, grid: GridFn, args: &HarnessArgs, store_dir: &Path) -> Row {
        let (mut points, mut instructions, mut warm_stats) = (0, 0, None);
        let mut round_ns = Vec::new();
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
            round_ns.push((live_ns, cold_ns, warm_ns));
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
            round_ns,
        }
    }

    /// Instructions per second of the live pass, from its median.
    fn live_rate(&self) -> f64 {
        rate(self.instructions, self.live.median)
    }

    /// Cold ÷ warm within each round.
    fn cold_warm(&self) -> impl Iterator<Item = (u128, u128)> + '_ {
        self.round_ns.iter().map(|&(_, cold, warm)| (cold, warm))
    }

    /// Live ÷ cold within each round.
    fn live_cold(&self) -> impl Iterator<Item = (u128, u128)> + '_ {
        self.round_ns.iter().map(|&(live, cold, _)| (live, cold))
    }

    /// Live ÷ warm within each round.
    fn live_warm(&self) -> impl Iterator<Item = (u128, u128)> + '_ {
        self.round_ns.iter().map(|&(live, _, warm)| (live, warm))
    }

    /// The median over rounds of cold ÷ warm.
    fn store_speedup(&self) -> f64 {
        paired_ratio(self.cold_warm())
    }

    /// The median over rounds of live ÷ cold.
    fn cold_speedup(&self) -> f64 {
        paired_ratio(self.live_cold())
    }

    /// The median over rounds of live ÷ warm.
    fn live_speedup(&self) -> f64 {
        paired_ratio(self.live_warm())
    }

    fn json(&self) -> String {
        format!(
            "{{\"grid\": \"{}\", \"points\": {}, \"instructions\": {}, \
             \"build_ns\": {}, \"live_ns\": {}, \"cold_ns\": {}, \"warm_ns\": {}, \
             \"live_minstr_per_sec\": {:.2}, \"store_speedup\": {:.2}, \
             \"cold_warm_rounds\": {}, \"live_cold_speedup\": {:.2}, \"live_cold_rounds\": {}, \
             \"live_speedup\": {:.2}, \"live_warm_rounds\": {}, \
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
            ratios_json(self.cold_warm()),
            self.cold_speedup(),
            ratios_json(self.live_cold()),
            self.live_speedup(),
            ratios_json(self.live_warm()),
            self.warm_stats.store_hits,
            self.warm_stats.store_misses,
            self.warm_stats.store_hit_rate(),
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

/// The host the report ran on: CPU count, CPU model (from
/// `/proc/cpuinfo`) and the version of the `rustc` on `PATH`, each
/// `"unknown"` where it cannot be read. Reported, never gated.
struct Host {
    nproc: usize,
    cpu: String,
    rustc: String,
}

impl Host {
    fn probe() -> Host {
        let unknown = || "unknown".to_string();
        let cpu = fs::read_to_string("/proc/cpuinfo").ok().and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        });
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu: cpu.unwrap_or_else(unknown),
            rustc: rustc.unwrap_or_else(unknown),
        }
    }

    fn line(&self) -> String {
        format!(
            "host nproc={} cpu=\"{}\" rustc=\"{}\"",
            self.nproc, self.cpu, self.rustc
        )
    }

    fn json(&self) -> String {
        let quoted = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
        format!(
            "{{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}}}",
            self.nproc,
            quoted(&self.cpu),
            quoted(&self.rustc)
        )
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

    let host = Host::probe();
    println!(
        "Simulator throughput (scale {}, {} threads, {ROUNDS} rounds of build -> live -> \
         store cold -> store warm)",
        args.scale, args.threads
    );
    println!("{}", host.line());
    println!(
        "Wall ms: median [min-max] over the rounds. Spd: median over rounds of cold / warm; \
         Live/C: of live / cold; Live/W: of live / warm."
    );
    println!(
        "{:<24} {:>6} {:>11} {:>22} {:>22} {:>22} {:>22} {:>8} {:>5} {:>6} {:>5} {:>6} {:>6} \
         {:>6}",
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
        "Spd",
        "Live/C",
        "Live/W"
    );
    nsf_bench::rule(168);
    let mut rows = Vec::new();
    for &(name, grid) in GRIDS {
        let row = Row::measure(name, grid, &args, &store_root.join(name));
        println!(
            "{:<24} {:>6} {:>11} {:>22} {:>22} {:>22} {:>22} {:>8.1} {:>5} {:>6} {:>4.0}% {:>5.2}x \
             {:>5.2}x {:>5.2}x",
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
            row.cold_speedup(),
            row.live_speedup(),
        );
        rows.push(row);
    }
    let _ = fs::remove_dir_all(&store_root);
    nsf_bench::rule(168);

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

    // Read last, so the high-water mark covers every section run in this
    // process (the explorer runs in its own).
    let peak_rss = peak_rss_mb().map_or_else(|| "null".to_string(), |mb| format!("{mb:.1}"));
    println!(
        "\nstore-summary grids={} grids_with_warm_hits={} max_speedup={:.2} peak_rss_mb={peak_rss}",
        rows.len(),
        rows.iter().filter(|r| r.warm_stats.store_hits > 0).count(),
        rows.iter().map(Row::store_speedup).fold(0.0, f64::max),
    );

    let json = format!(
        "{{\n  \"scale\": {},\n  \"threads\": {},\n  \"rounds\": {ROUNDS},\n  \
         \"host\": {},\n  \"peak_rss_mb\": {peak_rss},\n  \"grids\": {},\n  \"explore\": {}\n}}\n",
        args.scale,
        args.threads,
        host.json(),
        json_array(rows.iter().map(Row::json), "  "),
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
    use super::{paired_ratio, Spread};

    #[test]
    fn paired_ratio_is_the_median_of_per_round_ratios() {
        // Cold 100/200/300 against warm 100/300/150: the per-round ratios
        // are 1.0, 0.67 and 2.0, so the paired median is 1.0, while the
        // ratio of the medians (200 / 150) would read 1.33.
        let rounds = [(100, 100), (200, 300), (300, 150)];
        assert_eq!(paired_ratio(rounds), 1.0);
        let median = |k: usize| Spread::of(rounds.iter().map(|r| [r.0, r.1][k])).median;
        assert_eq!(median(0) as f64 / median(1) as f64, 200.0 / 150.0);
        // An even count takes the lower middle ratio, as a spread does.
        assert_eq!(paired_ratio([(3, 1), (1, 1), (2, 1), (4, 1)]), 2.0);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn paired_ratio_of_no_rounds_is_an_error() {
        paired_ratio([]);
    }

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
