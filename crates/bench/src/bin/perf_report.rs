//! Simulator throughput report: wall-clock time of every figure grid on
//! the three passes the figure binaries and tests run.
//!
//! ```sh
//! cargo run --release -p nsf-bench --bin perf_report -- --scale 1
//! ```
//!
//! This measures the *simulator*, not the modeled machine. Each grid of
//! [`FIGURES`] runs [`ROUNDS`] rounds, interleaved across the grids:
//! round r of every grid runs before round r + 1 of any grid, so a
//! stretch of host load lands on every grid alike rather than on one
//! grid's rounds. A round builds the
//! grid as its binary would (render excluded), runs it live
//! (`Sweep::run`, the equality baseline), then through the stream store
//! twice: cold into a fresh scratch store (every capturable group
//! captures and saves) and warm (every stored group replays). Both
//! stored passes must equal live. Every wall time is reported as the
//! median, min and max over the rounds. The speedups are medians of
//! per-round ratios (cold ÷ warm, live ÷ cold, live ÷ warm), so the two
//! passes of each ratio share one round's host load; each stands beside
//! the interquartile spread of its ratios, and each grid's JSON row also
//! lists every round's ratios. (The store-warm pass replays through the
//! same tile loop `trace_tool replay` runs, so it times that kernel on
//! every grid.) Explorer throughput is simbench's `explore-fan`
//! workload, measured in process there. The numbers land in
//! `results/BENCH_regfile.json` (override the directory with `--out`)
//! and a table on stdout, with a host line (CPU count, CPU model, the
//! `rustc` on `PATH`) and the process's peak RSS (`VmHWM`; `null` where
//! it cannot be read) on the closing `store-summary` line and in the
//! JSON — reported, never gated. EXPERIMENTS.md records the `--scale 1`
//! history. The flags are the figure binaries' ([`HarnessArgs::parse`]);
//! both store passes are always measured, so `--store`/`--no-store` only
//! parse. Wall-clock timing is inherently machine-dependent — these
//! numbers never feed a figure, so the determinism rule for results
//! paths does not apply here.

use nsf_bench::figures::{Figure, FIGURES};
use nsf_bench::{FrontendCacheStats, HarnessArgs};
use nsf_trace::StreamStore;
use std::fs;
use std::path::Path;
use std::time::Instant;

/// Measurement rounds per grid. Every reported wall time is summarized over this many samples.
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

/// The median of per-round ratios with their interquartile spread.
#[derive(Clone, Copy, Debug, PartialEq)]
struct PairedRatio {
    median: f64,
    /// Upper quartile minus lower quartile.
    iqr: f64,
}

impl PairedRatio {
    /// `median (iqr)`, the median as a speedup.
    fn cell(&self) -> String {
        format!("{:.2}x ({:.2})", self.median, self.iqr)
    }
}

/// The median and interquartile spread of per-round ratios `num / den`.
/// Over the `n` sorted ratios the median is the value at `(n - 1) / 2`,
/// the lower middle value with an even count (as in [`Spread`]); the
/// quartiles sit `q = (n - 1) / 4` in from either end, so every figure
/// is a ratio that was measured and one round reads a spread of zero.
/// Both times of a pair come from one round and share its host load,
/// which a ratio of two medians over all rounds does not cancel.
fn paired_ratio(pairs: impl IntoIterator<Item = (u128, u128)>) -> PairedRatio {
    let mut r: Vec<f64> = pairs.into_iter().map(|(n, d)| ratio(n, d)).collect();
    assert!(!r.is_empty(), "a paired ratio needs at least one round");
    r.sort_by(f64::total_cmp);
    let (last, q) = (r.len() - 1, (r.len() - 1) / 4);
    PairedRatio {
        median: r[last / 2],
        iqr: r[last - q] - r[q],
    }
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

/// One round of one grid.
struct Round {
    points: usize,
    instructions: u64,
    build_ns: u128,
    live_ns: u128,
    cold_ns: u128,
    warm_ns: u128,
    /// Counters of the warm pass.
    warm_stats: FrontendCacheStats,
}

impl Round {
    /// Builds the grid, then runs it live, cold into a fresh scratch
    /// store at `store_dir`, and warm; both stored passes must equal live.
    fn measure(figure: &Figure, args: &HarnessArgs, store_dir: &Path) -> Round {
        let name = figure.bin;
        let (sweep, build_ns) = timed(|| (figure.grid)(args.scale));
        let (reports, live_ns) = timed(|| sweep.run(args.threads));
        let _ = fs::remove_dir_all(store_dir);
        let store = StreamStore::open(store_dir);
        let stored = || sweep.run_stored_stats(args.threads, 0, Some(&store));
        let ((cold, _), cold_ns) = timed(stored);
        assert_eq!(reports, cold, "{name}: store-cold must equal live");
        let ((warm, warm_stats), warm_ns) = timed(stored);
        assert_eq!(reports, warm, "{name}: store-warm must equal live");
        let _ = fs::remove_dir_all(store_dir);
        Round {
            points: reports.len(),
            instructions: reports.iter().map(|r| r.instructions).sum(),
            build_ns,
            live_ns,
            cold_ns,
            warm_ns,
            warm_stats,
        }
    }
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
    /// Summarizes the rounds of the grid `name`, in round order.
    fn of(name: &'static str, rounds: &[Round]) -> Row {
        let first = rounds.first().expect("at least one round");
        assert!(
            rounds.iter().all(|r| r.warm_stats == first.warm_stats),
            "{name}: warm counters moved between rounds"
        );
        let spread = |ns: fn(&Round) -> u128| Spread::of(rounds.iter().map(ns));
        Row {
            name,
            points: first.points,
            instructions: first.instructions,
            build: spread(|r| r.build_ns),
            live: spread(|r| r.live_ns),
            cold: spread(|r| r.cold_ns),
            warm: spread(|r| r.warm_ns),
            warm_stats: first.warm_stats,
            round_ns: rounds
                .iter()
                .map(|r| (r.live_ns, r.cold_ns, r.warm_ns))
                .collect(),
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

    /// Cold ÷ warm over the rounds.
    fn store_speedup(&self) -> PairedRatio {
        paired_ratio(self.cold_warm())
    }

    /// Live ÷ cold over the rounds.
    fn cold_speedup(&self) -> PairedRatio {
        paired_ratio(self.live_cold())
    }

    /// Live ÷ warm over the rounds.
    fn live_speedup(&self) -> PairedRatio {
        paired_ratio(self.live_warm())
    }

    fn json(&self) -> String {
        let (store, cold, live) = (
            self.store_speedup(),
            self.cold_speedup(),
            self.live_speedup(),
        );
        format!(
            "{{\"grid\": \"{}\", \"points\": {}, \"instructions\": {}, \
             \"build_ns\": {}, \"live_ns\": {}, \"cold_ns\": {}, \"warm_ns\": {}, \
             \"live_minstr_per_sec\": {:.2}, \"store_speedup\": {:.2}, \
             \"store_speedup_iqr\": {:.3}, \"cold_warm_rounds\": {}, \
             \"live_cold_speedup\": {:.2}, \"live_cold_speedup_iqr\": {:.3}, \
             \"live_cold_rounds\": {}, \"live_speedup\": {:.2}, \"live_speedup_iqr\": {:.3}, \
             \"live_warm_rounds\": {}, \
             \"warm_hits\": {}, \"warm_misses\": {}, \"warm_hit_rate\": {:.3}}}",
            self.name,
            self.points,
            self.instructions,
            self.build.json(),
            self.live.json(),
            self.cold.json(),
            self.warm.json(),
            self.live_rate() / 1e6,
            store.median,
            store.iqr,
            ratios_json(self.cold_warm()),
            cold.median,
            cold.iqr,
            ratios_json(self.live_cold()),
            live.median,
            live.iqr,
            ratios_json(self.live_warm()),
            self.warm_stats.store_hits,
            self.warm_stats.store_misses,
            self.warm_stats.store_hit_rate(),
        )
    }
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

fn main() {
    let args = HarnessArgs::parse();
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
        "Wall ms: median [min-max] over the rounds. Spd: median (interquartile spread) over \
         rounds of cold / warm; Live/C: of live / cold; Live/W: of live / warm."
    );
    println!(
        "{:<24} {:>6} {:>11} {:>22} {:>22} {:>22} {:>22} {:>8} {:>5} {:>6} {:>5} {:>13} {:>13} \
         {:>13}",
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
    nsf_bench::rule(189);
    let mut rounds: Vec<Vec<Round>> = FIGURES.iter().map(|_| Vec::new()).collect();
    for _ in 0..ROUNDS {
        for (figure, grid) in FIGURES.iter().zip(&mut rounds) {
            grid.push(Round::measure(figure, &args, &store_root.join(figure.bin)));
        }
    }
    let mut rows = Vec::new();
    for (figure, grid) in FIGURES.iter().zip(&rounds) {
        let row = Row::of(figure.bin, grid);
        println!(
            "{:<24} {:>6} {:>11} {:>22} {:>22} {:>22} {:>22} {:>8.1} {:>5} {:>6} {:>4.0}% {:>13} \
             {:>13} {:>13}",
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
            row.store_speedup().cell(),
            row.cold_speedup().cell(),
            row.live_speedup().cell(),
        );
        rows.push(row);
    }
    let _ = fs::remove_dir_all(&store_root);
    nsf_bench::rule(189);

    // Read last, so the high-water mark covers every grid.
    let peak_rss = peak_rss_mb().map_or_else(|| "null".to_string(), |mb| format!("{mb:.1}"));
    println!(
        "\nstore-summary grids={} grids_with_warm_hits={} max_speedup={:.2} peak_rss_mb={peak_rss}",
        rows.len(),
        rows.iter().filter(|r| r.warm_stats.store_hits > 0).count(),
        rows.iter()
            .map(|r| r.store_speedup().median)
            .fold(0.0, f64::max),
    );

    let json = format!(
        "{{\n  \"scale\": {},\n  \"threads\": {},\n  \"rounds\": {ROUNDS},\n  \
         \"host\": {},\n  \"peak_rss_mb\": {peak_rss},\n  \"grids\": {}\n}}\n",
        args.scale,
        args.threads,
        host.json(),
        json_array(rows.iter().map(Row::json), "  "),
    );
    let dir = args.results_dir();
    fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join("BENCH_regfile.json");
    fs::write(&path, json).expect("write BENCH_regfile.json");
    println!("\nwrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::{paired_ratio, PairedRatio, Spread};

    #[test]
    fn paired_ratio_is_the_median_of_per_round_ratios() {
        // Cold 100/200/300 against warm 100/300/150: the per-round ratios
        // are 1.0, 0.67 and 2.0, so the paired median is 1.0, while the
        // ratio of the medians (200 / 150) would read 1.33.
        let rounds = [(100, 100), (200, 300), (300, 150)];
        assert_eq!(paired_ratio(rounds).median, 1.0);
        let median = |k: usize| Spread::of(rounds.iter().map(|r| [r.0, r.1][k])).median;
        assert_eq!(median(0) as f64 / median(1) as f64, 200.0 / 150.0);
        // An even count takes the lower middle ratio, as a spread does.
        assert_eq!(paired_ratio([(3, 1), (1, 1), (2, 1), (4, 1)]).median, 2.0);
    }

    #[test]
    fn quartiles_sit_a_quarter_in_from_either_end() {
        let of = |ratios: &[u128]| paired_ratio(ratios.iter().map(|&r| (r, 1)));
        let paired = |median: f64, iqr: f64| PairedRatio { median, iqr };
        // One round: every quartile is that round.
        assert_eq!(of(&[3]), paired(3.0, 0.0));
        // Two to four rounds: q = 0, so the spread is the full range.
        assert_eq!(of(&[9, 1]), paired(1.0, 8.0));
        assert_eq!(of(&[4, 1, 3, 2]), paired(2.0, 3.0));
        // Five rounds (perf_report's count): the second and fourth.
        assert_eq!(of(&[50, 10, 40, 30, 20]), paired(30.0, 20.0));
        // Nine rounds: the third and seventh, whatever the tails hold.
        assert_eq!(of(&[1, 900, 3, 4, 5, 6, 7, 2, 1000]), paired(5.0, 4.0));
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
