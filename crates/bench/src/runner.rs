//! The shared sweep runner: every data-driven experiment binary declares
//! its grid of (workload, configuration) points once, and this module
//! fans the independent simulations across a thread pool.
//!
//! Two properties are load-bearing:
//!
//! 1. **Determinism** — results are returned in *submission order*, so a
//!    rendered table is byte-identical whether the sweep ran on one
//!    thread or sixteen. Simulations are themselves deterministic (see
//!    `CLAUDE.md`), so the only way parallelism could leak into output
//!    is ordering; the runner removes that channel.
//! 2. **Memoisation** — each [`Workload`] is built once per sweep and
//!    shared (by index) between all points that measure it. The seed
//!    binaries rebuilt suites per figure row; a [`Sweep`] makes the
//!    sharing explicit and the build cost `O(workloads)`, not
//!    `O(points)`.
//!
//! A panic in any worker (a failed validation in [`crate::measure`])
//! propagates out of [`Sweep::run`] — a harness bug must never
//! masquerade as a data point. A capture or a replay that fails is not
//! such a bug: the points it would have served run live instead, where
//! a real failure panics in [`crate::measure`].

use crate::cli::{CliArgs, CliError, CliSpec};
use crate::measure;
use nsf_sim::{RunReport, SimConfig};
use nsf_trace::{
    capture_frontend, capture_rejection, replay_frontend, stream_fingerprint, StreamStore,
};
use nsf_workloads::Workload;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One simulation to run: a workload (by index into the sweep's
/// memoised workload table) under one configuration.
#[derive(Clone, Copy)]
pub struct SweepPoint {
    /// Index into [`Sweep::workloads`].
    pub workload: usize,
    /// The register-file / machine configuration to simulate.
    pub cfg: SimConfig,
}

/// A declared grid of simulation points over a set of workloads.
#[derive(Default)]
pub struct Sweep {
    /// Each benchmark, built exactly once.
    pub workloads: Vec<Workload>,
    /// The points, in submission (= output) order.
    pub points: Vec<SweepPoint>,
}

impl Sweep {
    /// An empty sweep.
    pub fn new() -> Self {
        Sweep::default()
    }

    /// Registers a workload and returns its index for use in
    /// [`Sweep::point`]. Call once per benchmark; points share it.
    pub fn workload(&mut self, w: Workload) -> usize {
        self.workloads.push(w);
        self.workloads.len() - 1
    }

    /// Registers a whole suite, returning the indices in order.
    pub fn suite(&mut self, ws: Vec<Workload>) -> Vec<usize> {
        ws.into_iter().map(|w| self.workload(w)).collect()
    }

    /// Appends one simulation point.
    pub fn point(&mut self, workload: usize, cfg: SimConfig) {
        assert!(workload < self.workloads.len(), "unknown workload index");
        self.points.push(SweepPoint { workload, cfg });
    }

    /// The registered workload behind a point (for rendering names,
    /// source line counts, etc.).
    pub fn workload_of(&self, point: usize) -> &Workload {
        &self.workloads[self.points[point].workload]
    }

    /// Runs every point and returns the reports in submission order,
    /// fanning across `threads` OS threads ([`pool_map`]; `<= 1` runs
    /// serially on the caller's thread). Output is identical for every
    /// thread count.
    pub fn run(&self, threads: usize) -> Vec<RunReport> {
        pool_map(self.points.len(), threads, |i| {
            let p = &self.points[i];
            measure(&self.workloads[p.workload], p.cfg)
        })
    }

    /// Partitions point indices into *frontend groups*: unbounded
    /// submission-order chunks of points that share a workload and a
    /// machine frontend ([`SimConfig::frontend_eq`]) — the unit of the
    /// frontend event-stream cache ([`Sweep::run_stored`]). Points that
    /// cannot be captured ([`capture_rejection`]) stay singletons.
    pub fn frontend_groups(&self) -> Vec<Vec<usize>> {
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut open: Vec<Option<usize>> = vec![None; self.workloads.len()];
        for (i, p) in self.points.iter().enumerate() {
            if !self.capturable(i) {
                groups.push(vec![i]);
                continue;
            }
            if let Some(gi) = open[p.workload] {
                let head = self.points[groups[gi][0]].cfg;
                if head.frontend_eq(&p.cfg) {
                    groups[gi].push(i);
                    continue;
                }
            }
            open[p.workload] = Some(groups.len());
            groups.push(vec![i]);
        }
        groups
    }

    /// `true` when point `i` can be captured ([`capture_rejection`]).
    /// A frontend group is capturable iff its head is.
    fn capturable(&self, i: usize) -> bool {
        let p = &self.points[i];
        capture_rejection(&self.workloads[p.workload], &p.cfg).is_none()
    }

    /// Smallest frontend group [`Sweep::run_stored`] captures without a
    /// stream store. A capture costs a live run plus event encoding, and
    /// a group pays one stream decode on top; replaying each further
    /// point costs only its engine work. On gatesim at the evaluation
    /// scale (`frontend_cache` Criterion group, EXPERIMENTS.md "Capture
    /// break-even") a pair still runs faster live (capture and replay
    /// take ~1.06-1.37x the two live runs), while three points already
    /// run faster captured (~0.91x) and sixteen at ~0.54x. Narrower
    /// store-less groups run every point live on [`nsf_sim::Machine`].
    pub const MIN_CAPTURE_GROUP: usize = 3;

    /// Runs every point through the frontend event-stream cache and
    /// returns the reports in submission order, bit-identical to
    /// [`Sweep::run`]'s. Each frontend group ([`Sweep::frontend_groups`])
    /// takes one of two routes:
    ///
    /// - **Capture and replay.** The head runs live and captures its
    ///   event stream ([`capture_frontend`]); every other point replays
    ///   the buffer straight into its engine, the whole group in one
    ///   [`replay_frontend`] call, skipping workload generation, fetch,
    ///   decode and scheduling. With a persistent [`StreamStore`], each
    ///   capturable group first looks its stream up by content
    ///   fingerprint ([`stream_fingerprint`]): a hit replays **every**
    ///   point, head included; a miss captures live whatever the group's
    ///   width and persists the stream for every later group, binary or
    ///   run that shares the fingerprint. A present-but-unusable entry
    ///   (truncated, corrupted, foreign version, failed replay) is
    ///   deleted and the group captures live. Without a store, only
    ///   groups at least [`Sweep::MIN_CAPTURE_GROUP`] wide capture. A
    ///   capture that fails runs the whole group live; a replay after a
    ///   capture that fails runs the rest of the group live and saves
    ///   nothing ([`FrontendCacheStats::live_fallback_points`]).
    /// - **Live.** Every other point runs on its own [`nsf_sim::Machine`].
    ///
    /// Replay is checked against the recorded live values and every
    /// lane's output is validated by the workload's own check, so a
    /// replayed point can never silently drift.
    pub fn run_stored(&self, threads: usize, store: Option<&StreamStore>) -> Vec<RunReport> {
        self.run_stored_stats(threads, 0, store).0
    }

    /// [`Sweep::run_stored`] plus the cache/store counters. `_lanes` is
    /// ignored; it keeps the signature the benchmark crate calls and
    /// goes away with the benchmark's next revision.
    pub fn run_stored_stats(
        &self,
        threads: usize,
        _lanes: usize,
        store: Option<&StreamStore>,
    ) -> (Vec<RunReport>, FrontendCacheStats) {
        let groups = self.frontend_groups();
        let wide = |g: &[usize]| g.len() >= Self::MIN_CAPTURE_GROUP;
        let mut stats = FrontendCacheStats {
            points: self.points.len() as u64,
            ..FrontendCacheStats::default()
        };
        if !groups
            .iter()
            .any(|g| self.capturable(g[0]) && (store.is_some() || wide(g)))
        {
            // Nothing could capture or hit the store: identical to the
            // plain sweep, which keeps per-point parallelism.
            return (self.run(threads), stats);
        }
        // Per group: submission-order reports plus counters.
        let run_group = |g: &[usize]| -> GroupOut {
            let w = &self.workloads[self.points[g[0]].workload];
            let head_cfg = self.points[g[0]].cfg;
            let cfgs = |ix: &[usize]| -> Vec<SimConfig> {
                ix.iter().map(|&i| self.points[i].cfg).collect()
            };
            let live = |ix: &[usize]| -> Vec<RunReport> {
                ix.iter().map(|&i| measure(w, self.points[i].cfg)).collect()
            };
            let keyed = match store {
                Some(st) if self.capturable(g[0]) => {
                    stream_fingerprint(w, &head_cfg).map(|fp| (st, fp))
                }
                _ => None,
            };
            if let Some((st, fp)) = keyed {
                match st.load_stream(fp, &head_cfg) {
                    Ok(Some(buf)) => {
                        // Warm hit: every point of the group — head
                        // included — replays from the persisted stream.
                        match replay_frontend(&buf, w, &cfgs(g)) {
                            Ok(reports) => {
                                return GroupOut {
                                    reports,
                                    replayed: g.len() as u64,
                                    store_hits: 1,
                                    store_served: g.len() as u64,
                                    ..GroupOut::default()
                                }
                            }
                            // A checksummed entry that still fails the
                            // replay wall (divergence, stale semantics)
                            // is poison: drop it and recapture live.
                            Err(_) => st.remove_stream(fp),
                        }
                    }
                    Ok(None) => {}
                    // Typed reject (truncated/corrupt/foreign): never
                    // trusted — delete and recapture live.
                    Err(_) => st.remove_stream(fp),
                }
            } else if !(self.capturable(g[0]) && wide(g)) {
                // Too narrow to amortize a capture and a stream decode
                // (or not capturable at all): every point runs live.
                return GroupOut {
                    reports: live(g),
                    ..GroupOut::default()
                };
            }
            // Capture the head live, replay the rest of the group, and
            // persist the stream on a store miss (even a singleton's
            // stream is worth keeping — the next run serves it for free).
            let store_misses = u64::from(keyed.is_some());
            let Ok(buf) = capture_frontend(w, head_cfg) else {
                // The capture run failed (its output check, say): run the
                // whole group live, where a real failure panics.
                return GroupOut {
                    reports: live(g),
                    store_misses,
                    live_fallback: g.len() as u64,
                    ..GroupOut::default()
                };
            };
            let replayed = match &g[1..] {
                [] => Ok(Vec::new()),
                rest => replay_frontend(&buf, w, &cfgs(rest)),
            };
            let rest = match replayed {
                Ok(reports) => reports,
                Err(_) => {
                    // The stream failed the replay wall for the rest of
                    // the group: run those points live, and keep the
                    // stream out of the store, where it would fail again.
                    let mut reports = vec![buf.report];
                    reports.extend(live(&g[1..]));
                    return GroupOut {
                        reports,
                        store_misses,
                        live_fallback: (g.len() - 1) as u64,
                        ..GroupOut::default()
                    };
                }
            };
            if let Some((st, fp)) = keyed {
                // A failed save (read-only store, full disk) only costs
                // future warm hits; this run's results don't depend on it.
                let _ = st.save_stream(fp, &buf);
            }
            let mut reports = Vec::with_capacity(g.len());
            reports.push(buf.report);
            reports.extend(rest);
            GroupOut {
                reports,
                replayed: (g.len() - 1) as u64,
                store_misses,
                ..GroupOut::default()
            }
        };
        let outs = pool_map(groups.len(), threads, |gi| run_group(&groups[gi]));
        let mut out: Vec<Option<RunReport>> = vec![None; self.points.len()];
        for (g, go) in groups.iter().zip(outs) {
            stats.absorb(&go);
            for (&i, r) in g.iter().zip(go.reports) {
                out[i] = Some(r);
            }
        }
        let reports = out
            .into_iter()
            .map(|r| r.expect("runner lost a point"))
            .collect();
        (reports, stats)
    }
}

/// Maps `f` over `0..n` on `threads` worker threads and returns the
/// results in index order, so the output is the same for every thread
/// count. Workers claim the next index from a shared cursor, so uneven
/// jobs balance; `threads <= 1` (or a single job) runs serially on the
/// caller's thread. A panic in any job propagates to the caller.
pub fn pool_map<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i);
                done.lock().unwrap().push((i, out));
            });
        }
    });
    let mut done = done.into_inner().unwrap();
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, out)| out).collect()
}

/// One frontend group's results and counters inside
/// [`Sweep::run_stored_stats`].
#[derive(Default)]
struct GroupOut {
    reports: Vec<RunReport>,
    replayed: u64,
    store_hits: u64,
    store_misses: u64,
    store_served: u64,
    live_fallback: u64,
}

/// Observability counters for one [`Sweep::run_stored_stats`] pass: how
/// much of the grid was served from captured event streams, how much of
/// that came from the persistent store, and how much fell back to live.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrontendCacheStats {
    /// Grid points in the sweep.
    pub points: u64,
    /// Points driven by buffer replay instead of a live frontend
    /// (in-process captures and persistent-store hits alike).
    pub replayed_points: u64,
    /// Points served from a persistent [`StreamStore`] entry — no live
    /// frontend ran for them at all, in this process or any other.
    pub store_served_points: u64,
    /// Frontend groups whose stream loaded from the store.
    pub store_hits: u64,
    /// Capturable frontend groups that missed the store (and captured
    /// live, persisting their stream for the next run).
    pub store_misses: u64,
    /// Points that ran live because their group's capture failed (the
    /// whole group) or its replay after a capture failed (the rest of
    /// the group). Zero on a healthy run.
    pub live_fallback_points: u64,
}

impl FrontendCacheStats {
    /// Fraction of grid points served from the cache.
    pub fn hit_rate(&self) -> f64 {
        if self.points == 0 {
            0.0
        } else {
            self.replayed_points as f64 / self.points as f64
        }
    }

    /// Fraction of grid points served from the persistent store.
    pub fn store_hit_rate(&self) -> f64 {
        if self.points == 0 {
            0.0
        } else {
            self.store_served_points as f64 / self.points as f64
        }
    }

    fn absorb(&mut self, go: &GroupOut) {
        self.replayed_points += go.replayed;
        self.store_hits += go.store_hits;
        self.store_misses += go.store_misses;
        self.store_served_points += go.store_served;
        self.live_fallback_points += go.live_fallback;
    }
}

/// The value the benchmark crate passes as
/// [`Sweep::run_stored_stats`]'s ignored `_lanes` argument. Goes away
/// with the benchmark's next revision.
pub const DEFAULT_LANES: usize = 8;

/// The figure binaries' flag set (strict values, tolerated unknowns —
/// see [`HarnessArgs::try_from_args`]).
const HARNESS_SPEC: CliSpec = CliSpec {
    value_flags: &["scale", "threads", "out"],
    switches: &["quiet", "store", "no-store"],
    repeatable: &[],
};

/// Usage line printed (with exit 64) when a figure binary rejects its
/// arguments.
pub const HARNESS_USAGE: &str =
    "usage: [--scale N] [--threads N] [--store | --no-store] [--quiet] [--out DIR]";

/// Command-line arguments shared by every experiment binary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HarnessArgs {
    /// Problem size: 0 = smoke, 1 = the evaluation size in EXPERIMENTS.md.
    pub scale: u32,
    /// Worker threads for the sweep (default: available parallelism).
    pub threads: usize,
    /// Consult the persistent stream store under `<results>/store/`
    /// ([`Sweep::run_stored`], the default); `--no-store` runs the
    /// frontend cache purely in-process. Output is byte-identical
    /// store-cold, store-warm, and store-disabled.
    pub store: bool,
    /// Suppress the commentary footer under each table.
    pub quiet: bool,
    /// Output directory override for binaries that write artifacts
    /// (`--out <dir>`); `None` means the workspace `results/` directory.
    pub out: Option<String>,
}

impl HarnessArgs {
    /// Parses `--scale N`, `--threads N`, `--store`/`--no-store`,
    /// `--quiet` and `--out DIR` from the process arguments. A malformed value for a
    /// known flag prints the error and [`HARNESS_USAGE`], then exits
    /// with status 64 — a mistyped `--scale` must not silently run the
    /// wrong experiment.
    pub fn parse() -> Self {
        Self::try_from_args(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            eprintln!("{HARNESS_USAGE}");
            std::process::exit(64);
        })
    }

    /// Parses from an explicit argument list (testable form of
    /// [`HarnessArgs::parse`]). Unknown arguments are still ignored —
    /// one wrapper script can pass a shared flag set to every binary —
    /// but the *values* of known flags go through the strict
    /// [`crate::cli`] layer: `--threads x` or a trailing `--scale` is a
    /// [`CliError`], never a silent default.
    pub fn try_from_args(args: impl IntoIterator<Item = String>) -> Result<Self, CliError> {
        let raw: Vec<String> = args.into_iter().collect();
        let parsed = CliArgs::parse(&Self::known_tokens(&raw), &HARNESS_SPEC)?;
        let store_on = parsed.switch("store");
        let store_off = parsed.switch("no-store");
        if store_on && store_off {
            return Err(CliError::Conflict {
                a: "store".into(),
                b: "no-store".into(),
            });
        }
        Ok(HarnessArgs {
            scale: parsed.parsed_or("scale", 1u32)?,
            threads: parsed.parsed_or("threads", default_threads())?.max(1),
            store: !store_off,
            quiet: parsed.switch("quiet"),
            out: parsed.flag("out").map(String::from),
        })
    }

    /// Keeps only the tokens belonging to declared flags: a known value
    /// flag and (when present) its value, or a known switch. Everything
    /// else — unknown flags, their values, stray positionals — is
    /// dropped before strict parsing.
    fn known_tokens(raw: &[String]) -> Vec<String> {
        let mut kept = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            if let Some(name) = raw[i].strip_prefix("--") {
                if HARNESS_SPEC.value_flags.contains(&name) {
                    kept.push(raw[i].clone());
                    if let Some(v) = raw.get(i + 1) {
                        if !v.starts_with("--") {
                            kept.push(v.clone());
                            i += 2;
                            continue;
                        }
                    }
                } else if HARNESS_SPEC.switches.contains(&name) {
                    kept.push(raw[i].clone());
                }
            }
            i += 1;
        }
        kept
    }

    /// The directory artifact-writing binaries should use: `--out` if
    /// given, else the workspace `results/` directory — resolved against
    /// this crate's manifest, so the path is correct from any working
    /// directory (the seed resolved `results/` relative to the *current*
    /// directory, scattering artifacts when invoked from a subcrate).
    pub fn results_dir(&self) -> std::path::PathBuf {
        match &self.out {
            Some(dir) => std::path::PathBuf::from(dir),
            None => workspace_results_dir(),
        }
    }
}

/// The checked-in `results/` directory at the workspace root.
pub fn workspace_results_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            scale: 1,
            threads: default_threads(),
            store: true,
            quiet: false,
            out: None,
        }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The shared `main` of every migrated experiment binary: parse the
/// harness arguments, build the figure's grid, run it through the
/// frontend cache, print the render. Every route is bit-exact, so the
/// output is byte-identical for every `--threads` and store setting.
pub fn figure_main(grid: fn(u32) -> Sweep, render: fn(u32, &Sweep, &[RunReport], bool) -> String) {
    let args = HarnessArgs::parse();
    let sweep = grid(args.scale);
    let reports = run_with_args(&sweep, &args);
    print!("{}", render(args.scale, &sweep, &reports, args.quiet));
}

/// Runs a sweep the way [`figure_main`] would: through the frontend
/// cache backed by the persistent stream store at `<results>/store`
/// (the default), or in-process only with `--no-store`. Both are
/// bit-exact.
pub fn run_with_args(sweep: &Sweep, args: &HarnessArgs) -> Vec<RunReport> {
    let store = args
        .store
        .then(|| StreamStore::open(args.results_dir().join("store")));
    sweep.run_stored(args.threads, store.as_ref())
}

/// A cursor over sweep results for renderers that consume reports in
/// grid-declaration order (aggregated cells, per-row chunks). Panics on
/// over- or under-consumption so a renderer can never silently misalign
/// with its grid.
pub struct Cursor<'a> {
    reports: &'a [RunReport],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `reports`.
    pub fn new(reports: &'a [RunReport]) -> Self {
        Cursor { reports, pos: 0 }
    }

    /// The next single report. Not an `Iterator`: exhaustion is a
    /// renderer bug and panics rather than yielding `None`.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> &'a RunReport {
        let r = &self.reports[self.pos];
        self.pos += 1;
        r
    }

    /// The next `n` reports as a slice.
    pub fn take(&mut self, n: usize) -> &'a [RunReport] {
        let s = &self.reports[self.pos..self.pos + n];
        self.pos += n;
        s
    }

    /// Asserts every report was consumed (renderer matches grid).
    pub fn finish(self) {
        assert_eq!(
            self.pos,
            self.reports.len(),
            "renderer left unconsumed sweep results"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{nsf_config, segmented_config, SEQ_CTX_REGS, SEQ_FILE_REGS};
    use nsf_workloads::gatesim;

    fn small_sweep() -> Sweep {
        let mut s = Sweep::new();
        let gs = s.workload(gatesim::build(0));
        s.point(gs, nsf_config(SEQ_FILE_REGS));
        s.point(gs, segmented_config(4, SEQ_CTX_REGS));
        s.point(gs, nsf_config(2 * SEQ_FILE_REGS));
        s
    }

    #[test]
    fn parallel_matches_serial_in_order() {
        let sweep = small_sweep();
        let serial = sweep.run(1);
        let threaded = sweep.run(8);
        assert_eq!(serial, threaded);
        // Order is grid order, not completion order: the segmented run
        // is the second point in both.
        assert!(serial[1].regfile_desc.to_lowercase().contains("segment"));
    }

    /// Replayed points a store-less pass reports for one capturable
    /// frontend group of `n` points.
    fn replayed_without_store(n: usize) -> u64 {
        if n >= Sweep::MIN_CAPTURE_GROUP {
            n as u64 - 1
        } else {
            0
        }
    }

    #[test]
    fn cached_sweep_matches_serial_in_order() {
        let sweep = small_sweep();
        let serial = sweep.run(1);
        for threads in [1, 8] {
            let (reports, stats) = sweep.run_stored_stats(threads, 0, None);
            assert_eq!(
                serial, reports,
                "threads={threads} cached sweep must be bit-identical"
            );
            // One workload, one frontend group of three points.
            assert_eq!(stats.points, 3);
            assert_eq!(stats.replayed_points, replayed_without_store(3));
        }
    }

    #[test]
    fn cached_sweep_captures_wide_groups() {
        let mut s = Sweep::new();
        let gs = s.workload(gatesim::build(0));
        // A design-space-style column: one workload, many register-file
        // organizations, wide enough to clear MIN_CAPTURE_GROUP.
        let n = Sweep::MIN_CAPTURE_GROUP.max(4);
        for i in 0..n as u32 {
            if i % 4 == 3 {
                s.point(gs, segmented_config(2 + i / 4, SEQ_CTX_REGS));
            } else {
                s.point(gs, nsf_config(SEQ_FILE_REGS / 2 + 8 * i));
            }
        }
        let serial = s.run(1);
        for threads in [1, 8] {
            let (reports, stats) = s.run_stored_stats(threads, 0, None);
            assert_eq!(
                serial, reports,
                "threads={threads} cached sweep must be bit-identical"
            );
            // The frontend-equal points clear MIN_CAPTURE_GROUP: the
            // first captures, the rest replay in one call.
            assert_eq!(stats.points, n as u64);
            assert_eq!(stats.replayed_points, n as u64 - 1);
            let want = (n - 1) as f64 / n as f64;
            assert!((stats.hit_rate() - want).abs() < 1e-12);
        }
    }

    #[test]
    fn cached_sweep_handles_parallel_and_mixed_grids() {
        use crate::{PAR_CTX_REGS, PAR_FILE_REGS};
        use nsf_workloads::quicksort;
        let mut s = Sweep::new();
        let gs = s.workload(gatesim::build(0));
        let qs = s.workload(quicksort::build(0));
        for w in [gs, qs, gs, qs] {
            let (file, ctx) = if w == qs {
                (PAR_FILE_REGS, PAR_CTX_REGS)
            } else {
                (SEQ_FILE_REGS, SEQ_CTX_REGS)
            };
            s.point(w, nsf_config(file));
            s.point(w, segmented_config(4, ctx));
        }
        let serial = s.run(1);
        let (cached, stats) = s.run_stored_stats(1, 0, None);
        assert_eq!(serial, cached, "mixed seq/par grid");
        // The parallel workload is unbatchable (singleton groups, run
        // live); the sequential one shares one frontend group of four.
        assert_eq!(stats.points, 8);
        assert_eq!(stats.replayed_points, replayed_without_store(4));
        assert_eq!(serial, s.run_stored(4, None), "threaded cached groups");
    }

    #[test]
    fn frontend_groups_span_the_whole_sweep() {
        let mut s = Sweep::new();
        let a = s.workload(gatesim::build(0));
        for _ in 0..5 {
            s.point(a, nsf_config(SEQ_FILE_REGS));
        }
        // No width limit: one group takes all.
        assert_eq!(s.frontend_groups(), vec![vec![0, 1, 2, 3, 4]]);
        // A frontend change starts a new group...
        let mut cfg = nsf_config(SEQ_FILE_REGS);
        cfg.quantum = Some(64);
        s.point(a, cfg);
        s.point(a, cfg);
        assert_eq!(s.frontend_groups(), vec![vec![0, 1, 2, 3, 4], vec![5, 6]]);
        // ...and execution tracing forces singletons (uncapturable).
        let mut traced = nsf_config(SEQ_FILE_REGS);
        traced.trace_depth = 8;
        s.point(a, traced);
        s.point(a, traced);
        let groups = s.frontend_groups();
        assert_eq!(
            groups,
            vec![vec![0, 1, 2, 3, 4], vec![5, 6], vec![7], vec![8]]
        );
    }

    #[test]
    fn non_single_issue_points_stay_singletons() {
        let mut s = Sweep::new();
        let a = s.workload(gatesim::build(0));
        let mut wide = nsf_config(SEQ_FILE_REGS);
        wide.issue_width = 2;
        wide.read_ports = 3;
        wide.write_ports = 2;
        let mut zero = nsf_config(SEQ_FILE_REGS);
        zero.issue_width = 0;
        // Identical multi-issue (or zero-issue) frontends would pass
        // frontend_eq, but only a single-issue stream can be captured:
        // every such point is a singleton, the rule the runner routes by.
        for cfg in [wide, wide, zero, zero] {
            s.point(a, cfg);
        }
        assert_eq!(
            s.frontend_groups(),
            vec![vec![0], vec![1], vec![2], vec![3]]
        );
        // And the multi-issue points reproduce the serial sweep.
        s.points.truncate(2);
        assert_eq!(s.run(1), s.run_stored(2, None));
    }

    #[test]
    #[should_panic(expected = "issue_width 0")]
    fn zero_issue_width_fails_like_the_plain_sweep() {
        // Machine::new rejects a zero-issue frontend, so a wide group of
        // such points must fail on the cached route exactly as
        // Sweep::run does, never produce reports.
        let mut s = Sweep::new();
        let a = s.workload(gatesim::build(0));
        let mut zero = nsf_config(SEQ_FILE_REGS);
        zero.issue_width = 0;
        for _ in 0..Sweep::MIN_CAPTURE_GROUP.max(2) {
            s.point(a, zero);
        }
        s.run_stored(1, None);
    }

    #[test]
    fn store_flags_parse_and_conflict() {
        let on = HarnessArgs::try_from_args(["--store"].map(String::from)).unwrap();
        assert!(on.store);
        let off = HarnessArgs::try_from_args(["--no-store"].map(String::from)).unwrap();
        assert!(!off.store);
        // Default is on: figure binaries persist and reuse streams.
        assert!(
            HarnessArgs::try_from_args(std::iter::empty())
                .unwrap()
                .store
        );
        let err =
            HarnessArgs::try_from_args(["--store", "--no-store"].map(String::from)).unwrap_err();
        assert!(matches!(err, CliError::Conflict { .. }));
    }

    #[test]
    fn args_parse_defaults_and_flags() {
        let a = HarnessArgs::try_from_args(
            ["--scale", "0", "--threads", "3", "--quiet"].map(String::from),
        )
        .unwrap();
        assert_eq!(
            a,
            HarnessArgs {
                scale: 0,
                threads: 3,
                store: true,
                quiet: true,
                out: None
            }
        );
        let d = HarnessArgs::try_from_args(std::iter::empty()).unwrap();
        assert_eq!(d.scale, 1);
        assert!(d.threads >= 1);
        assert!(!d.quiet);
        // --threads 0 clamps to 1 rather than deadlocking.
        let z = HarnessArgs::try_from_args(["--threads", "0"].map(String::from)).unwrap();
        assert_eq!(z.threads, 1);
        // Unknown flags (and their values) are still tolerated, so one
        // wrapper script can drive every binary.
        let u = HarnessArgs::try_from_args(
            ["--mystery", "7", "positional", "--scale", "0"].map(String::from),
        )
        .unwrap();
        assert_eq!(u.scale, 0);
    }

    #[test]
    fn malformed_known_flag_values_are_errors() {
        // Pinned, not incidental: a mistyped value for a *known* flag
        // must fail parsing (the binaries turn this into exit 64), never
        // silently fall back to a default.
        for bad in [
            vec!["--threads", "x"],
            vec!["--threads", "-3"],
            vec!["--threads", "many"],
            vec!["--scale", "1.5"],
            vec!["--scale"],
            vec!["--threads", "--quiet"],
        ] {
            let args = bad.iter().map(|s| s.to_string());
            assert!(
                HarnessArgs::try_from_args(args).is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn out_flag_overrides_results_dir() {
        let a = HarnessArgs::try_from_args(["--out", "/tmp/elsewhere"].map(String::from)).unwrap();
        assert_eq!(a.out.as_deref(), Some("/tmp/elsewhere"));
        assert_eq!(a.results_dir(), std::path::Path::new("/tmp/elsewhere"));
        // Without --out, artifacts land in the workspace results/
        // directory regardless of the invoking working directory.
        let d = HarnessArgs::default();
        assert!(d.results_dir().ends_with("results"));
        assert!(d
            .results_dir()
            .parent()
            .unwrap()
            .join("Cargo.toml")
            .exists());
    }

    #[test]
    fn cursor_chunks_and_finishes() {
        let sweep = small_sweep();
        let reports = sweep.run(1);
        let mut c = Cursor::new(&reports);
        assert_eq!(c.take(2).len(), 2);
        let _ = c.next();
        c.finish();
    }

    #[test]
    #[should_panic(expected = "unconsumed")]
    fn cursor_flags_underconsumption() {
        let sweep = small_sweep();
        let reports = sweep.run(1);
        let c = Cursor::new(&reports);
        c.finish();
    }
}
