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
//! masquerade as a data point.

use crate::cli::{CliArgs, CliError, CliSpec};
use crate::{measure, measure_lanes};
use nsf_sim::{batchable_program, RunReport, SimConfig};
use nsf_trace::{capture_frontend, replay_frontend, stream_fingerprint, StreamStore};
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
    /// fanning across `threads` OS threads (`<= 1` runs serially on the
    /// caller's thread). Output is identical for every thread count.
    pub fn run(&self, threads: usize) -> Vec<RunReport> {
        if threads <= 1 || self.points.len() <= 1 {
            return self
                .points
                .iter()
                .map(|p| measure(&self.workloads[p.workload], p.cfg))
                .collect();
        }
        let threads = threads.min(self.points.len());
        let cursor = AtomicUsize::new(0);
        let done: Mutex<Vec<(usize, RunReport)>> =
            Mutex::new(Vec::with_capacity(self.points.len()));
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(p) = self.points.get(i) else { break };
                    let report = measure(&self.workloads[p.workload], p.cfg);
                    done.lock().unwrap().push((i, report));
                });
            }
        });
        let mut done = done.into_inner().unwrap();
        done.sort_by_key(|(i, _)| *i);
        assert_eq!(done.len(), self.points.len(), "runner lost a point");
        done.into_iter().map(|(_, r)| r).collect()
    }

    /// Like [`Sweep::run`], but executes points that share a workload
    /// (and a machine frontend) as lane-batched [`nsf_sim::LaneSet`]
    /// passes of up to `lanes` configurations each, amortizing fetch,
    /// decode and scheduling across the group. Points whose program is
    /// not batchable ([`batchable_program`]) stay serial. Reports are
    /// returned in submission order and are bit-identical to
    /// [`Sweep::run`]'s for every `(threads, lanes)` combination;
    /// `lanes <= 1` *is* [`Sweep::run`].
    pub fn run_lanes(&self, threads: usize, lanes: usize) -> Vec<RunReport> {
        if lanes <= 1 {
            return self.run(threads);
        }
        let groups = self.lane_groups(lanes);
        // A grid whose groups all land below the lane-batching break-even
        // ([`Sweep::MIN_LANE_GROUP`]) gains nothing from the group
        // machinery — take the plain serial path, which is also what each
        // narrow group below does per point.
        if groups.iter().all(|g| !Self::lane_batchable(g.len())) {
            return self.run(threads);
        }
        let run_group = |g: &[usize]| -> Vec<RunReport> {
            let w = &self.workloads[self.points[g[0]].workload];
            if !Self::lane_batchable(g.len()) {
                // Below break-even a lane set's per-op dispatch overhead
                // exceeds the shared-frontend saving: run the points
                // exactly as [`Sweep::run`] would.
                return g.iter().map(|&i| measure(w, self.points[i].cfg)).collect();
            }
            let cfgs: Vec<SimConfig> = g.iter().map(|&i| self.points[i].cfg).collect();
            measure_lanes(w, &cfgs)
        };
        if threads <= 1 || groups.len() <= 1 {
            let mut out: Vec<Option<RunReport>> = vec![None; self.points.len()];
            for g in &groups {
                for (&i, r) in g.iter().zip(run_group(g)) {
                    out[i] = Some(r);
                }
            }
            return out
                .into_iter()
                .map(|r| r.expect("runner lost a point"))
                .collect();
        }
        let threads = threads.min(groups.len());
        let cursor = AtomicUsize::new(0);
        let done: Mutex<Vec<(usize, RunReport)>> =
            Mutex::new(Vec::with_capacity(self.points.len()));
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| loop {
                    let gi = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(g) = groups.get(gi) else { break };
                    let reports = run_group(g);
                    let mut done = done.lock().unwrap();
                    for (&i, r) in g.iter().zip(reports) {
                        done.push((i, r));
                    }
                });
            }
        });
        let mut done = done.into_inner().unwrap();
        done.sort_by_key(|(i, _)| *i);
        assert_eq!(done.len(), self.points.len(), "runner lost a point");
        done.into_iter().map(|(_, r)| r).collect()
    }

    /// Partitions point indices into lane groups: submission-order
    /// greedy chunks of up to `lanes` points that share a workload and a
    /// machine frontend. Unbatchable workloads get singleton groups.
    /// Public so schedulers above the runner (the explorer's
    /// checkpointed driver) can see how a sweep will batch.
    pub fn lane_groups(&self, lanes: usize) -> Vec<Vec<usize>> {
        let batchable: Vec<bool> = self
            .workloads
            .iter()
            .map(|w| batchable_program(&w.program))
            .collect();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        // The open (growable) group per workload, by group index.
        let mut open: Vec<Option<usize>> = vec![None; self.workloads.len()];
        for (i, p) in self.points.iter().enumerate() {
            if !batchable[p.workload] || p.cfg.issue_width > 1 {
                // Multi-issue frontends group instructions by dynamic
                // port pressure; their streams are not lane-invariant,
                // so such points always run serial.
                groups.push(vec![i]);
                continue;
            }
            if let Some(gi) = open[p.workload] {
                let head = self.points[groups[gi][0]].cfg;
                if groups[gi].len() < lanes && head.frontend_eq(&p.cfg) {
                    groups[gi].push(i);
                    continue;
                }
            }
            open[p.workload] = Some(groups.len());
            groups.push(vec![i]);
        }
        groups
    }

    /// Partitions point indices into *frontend groups*: unbounded
    /// submission-order chunks of points that share a workload and a
    /// machine frontend ([`SimConfig::frontend_eq`]) — the unit of the
    /// frontend event-stream cache ([`Sweep::run_cached`]). Unlike
    /// [`Sweep::lane_groups`] there is no width limit (a replay is not
    /// a lockstep lane pass, so nothing caps the group), and points
    /// with execution tracing on stay singletons (a traced run cannot
    /// be captured).
    pub fn frontend_groups(&self) -> Vec<Vec<usize>> {
        let batchable: Vec<bool> = self
            .workloads
            .iter()
            .map(|w| batchable_program(&w.program))
            .collect();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut open: Vec<Option<usize>> = vec![None; self.workloads.len()];
        for (i, p) in self.points.iter().enumerate() {
            if !batchable[p.workload] || p.cfg.trace_depth != 0 || p.cfg.issue_width > 1 {
                // Traced runs cannot be captured, and multi-issue
                // streams are not lane-invariant: both stay serial.
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

    /// Like [`Sweep::run_lanes`], but pays each distinct
    /// workload/frontend's frontend **once for the whole sweep**: the
    /// first point of every frontend group at least
    /// [`MIN_CAPTURE_GROUP`] wide runs live and captures its event
    /// stream ([`capture_frontend`]); every later point in the group
    /// replays the buffer straight into its engine — the whole group in
    /// one [`replay_frontend`] call, so the stream is decoded once per
    /// group — skipping workload generation, fetch, decode and
    /// scheduling. Groups too narrow to amortize a capture compose with
    /// the live paths instead: groups of three or more lane-batch (up
    /// to `lanes` per pass), pairs and singletons run serially. Reports
    /// are returned in submission order and are bit-identical to
    /// [`Sweep::run`]'s; replay is checked against the recorded live
    /// values and every lane's output is validated by the workload's
    /// own check, so a cached point can never silently drift.
    pub fn run_cached(&self, threads: usize, lanes: usize) -> Vec<RunReport> {
        self.run_cached_stats(threads, lanes).0
    }

    /// Smallest lane group worth a [`nsf_sim::LaneSet`] pass. A lane
    /// set's per-op dispatch (scan fan-out, lane-0 equivalence checks)
    /// is a fixed tax every lane pays; with only two lanes the shared
    /// frontend is split over too few engines to recoup it, and the
    /// measured pair-heavy grids (`depth_sweep`'s per-depth
    /// NSF/segmented pairs) ran ~15% *slower* batched than serial.
    /// Groups below this width route to the serial loop.
    pub const MIN_LANE_GROUP: usize = 3;

    /// Whether a lane group of `len` points clears the measured
    /// lane-batching break-even ([`Sweep::MIN_LANE_GROUP`]).
    pub fn lane_batchable(len: usize) -> bool {
        len >= Self::MIN_LANE_GROUP
    }

    /// Smallest frontend group [`Sweep::run_cached`] captures. A
    /// capture run costs ~1.8x a live run (event encoding) and each
    /// group pays one stream decode worth ~0.6x a live run: fixed
    /// costs the replayed lanes must recoup. The value was measured
    /// when a replayed lane cost only slightly less than a lane-batched
    /// one, which put the break-even in the low teens. Replay has since
    /// become much cheaper per lane — the tiled replay loop inlines each
    /// engine's register hits and moves spilled frames a cache line at
    /// a time, while a lane-batched lane still pays the full per-op
    /// dispatch — so the true break-even now sits lower. The constant
    /// is kept so the routing of every grid stays as measured; re-
    /// measuring it belongs with collapsing the sweep paths into one.
    /// Groups narrower than this route to lane batching (three up to
    /// the threshold) or the serial loop (pairs, singletons).
    pub const MIN_CAPTURE_GROUP: usize = 16;

    /// [`Sweep::run_cached`] plus the cache's observability counters:
    /// how many points replayed from a buffer instead of running live,
    /// and how the wall time split between frontend-paying work
    /// (captures and serial points) and engine-only replay.
    pub fn run_cached_stats(
        &self,
        threads: usize,
        lanes: usize,
    ) -> (Vec<RunReport>, FrontendCacheStats) {
        self.run_stored_stats(threads, lanes, None)
    }

    /// [`Sweep::run_cached`] backed by a persistent [`StreamStore`]:
    /// before capturing, each capturable frontend group looks its
    /// stream up by content fingerprint ([`stream_fingerprint`]) and,
    /// on a hit, replays **every** point of the group — including the
    /// head, and including singleton and narrow groups that could never
    /// amortize a live capture on their own (the effective
    /// [`Sweep::MIN_CAPTURE_GROUP`] is 1 on warm runs). On a miss the
    /// group captures live (whatever its width) and persists the stream
    /// for every later group, binary, or run that shares the
    /// fingerprint. A present-but-unusable entry (truncated, corrupted,
    /// foreign version, failed replay) is deleted and the group falls
    /// back to live capture — reports are bit-identical to
    /// [`Sweep::run`]'s in every case. `store: None` is exactly
    /// [`Sweep::run_cached`].
    pub fn run_stored(
        &self,
        threads: usize,
        lanes: usize,
        store: Option<&StreamStore>,
    ) -> Vec<RunReport> {
        self.run_stored_stats(threads, lanes, store).0
    }

    /// [`Sweep::run_stored`] plus the cache/store counters.
    pub fn run_stored_stats(
        &self,
        threads: usize,
        lanes: usize,
        store: Option<&StreamStore>,
    ) -> (Vec<RunReport>, FrontendCacheStats) {
        let lanes = lanes.max(1);
        let groups = self.frontend_groups();
        let batchable: Vec<bool> = self
            .workloads
            .iter()
            .map(|w| batchable_program(&w.program))
            .collect();
        // A group is store-capturable iff its stream is lane-invariant
        // and untraced — the same conditions [`Sweep::frontend_groups`]
        // applies, re-derived here because its singletons are ambiguous
        // (a group of one is either an excluded point or just a lonely
        // frontend).
        let capturable = |g: &[usize]| {
            let p = &self.points[g[0]];
            batchable[p.workload] && p.cfg.trace_depth == 0 && p.cfg.issue_width == 1
        };
        let mut stats = FrontendCacheStats {
            points: self.points.len() as u64,
            ..FrontendCacheStats::default()
        };
        if groups.iter().all(|g| g.len() == 1)
            && (store.is_none() || !groups.iter().any(|g| capturable(g)))
        {
            // Nothing shares a frontend and no store could serve a
            // singleton: identical to the plain sweep, and timed as pure
            // frontend-paying work.
            let t0 = std::time::Instant::now();
            let reports = self.run(threads);
            stats.frontend_ns = t0.elapsed().as_nanos() as u64;
            return (reports, stats);
        }
        // Per group: submission-order reports plus counters.
        let run_group = |g: &[usize]| -> GroupOut {
            let w = &self.workloads[self.points[g[0]].workload];
            let head_cfg = self.points[g[0]].cfg;
            let fingerprint = match store {
                Some(_) if capturable(g) => stream_fingerprint(w, &head_cfg),
                _ => None,
            };
            if let (Some(st), Some(fp)) = (store, fingerprint) {
                match st.load_stream(fp, &head_cfg) {
                    Ok(Some(buf)) => {
                        // Warm hit: every point of the group — head
                        // included — replays from the persisted stream.
                        let t1 = std::time::Instant::now();
                        let cfgs: Vec<SimConfig> = g.iter().map(|&i| self.points[i].cfg).collect();
                        match replay_frontend(&buf, w, &cfgs) {
                            Ok(reports) => {
                                return GroupOut {
                                    reports,
                                    frontend_ns: 0,
                                    engine_ns: t1.elapsed().as_nanos() as u64,
                                    replayed: g.len() as u64,
                                    store_hits: 1,
                                    store_misses: 0,
                                    store_served: g.len() as u64,
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
                // Store miss: capture live regardless of group width
                // (even a singleton's stream is worth persisting — the
                // next run serves it for free) and persist the stream.
                let t0 = std::time::Instant::now();
                let buf = capture_frontend(w, head_cfg)
                    .unwrap_or_else(|e| panic!("{} failed: {e}", w.name));
                let frontend_ns = t0.elapsed().as_nanos() as u64;
                // A failed save (read-only store, full disk) only costs
                // future warm hits; this run's results don't depend on it.
                let _ = st.save_stream(fp, &buf);
                let t1 = std::time::Instant::now();
                let mut out = Vec::with_capacity(g.len());
                out.push(buf.report.clone());
                if g.len() > 1 {
                    let cfgs: Vec<SimConfig> = g[1..].iter().map(|&i| self.points[i].cfg).collect();
                    out.extend(
                        replay_frontend(&buf, w, &cfgs)
                            .unwrap_or_else(|e| panic!("{} failed: {e}", w.name)),
                    );
                }
                return GroupOut {
                    reports: out,
                    frontend_ns,
                    engine_ns: t1.elapsed().as_nanos() as u64,
                    replayed: (g.len() - 1) as u64,
                    store_hits: 0,
                    store_misses: 1,
                    store_served: 0,
                };
            }
            if g.len() < Self::MIN_CAPTURE_GROUP {
                // Too narrow to amortize a capture run (~1.8x a live
                // run of event encoding) plus a stream decode: stay
                // live. Groups clearing the lane-batching break-even
                // still share their frontend through lane-batched
                // passes; narrower ones run serially.
                let t0 = std::time::Instant::now();
                let mut out = Vec::with_capacity(g.len());
                if Self::lane_batchable(g.len()) && lanes >= 2 {
                    for chunk in g.chunks(lanes) {
                        if Self::lane_batchable(chunk.len()) {
                            let cfgs: Vec<SimConfig> =
                                chunk.iter().map(|&i| self.points[i].cfg).collect();
                            out.extend(measure_lanes(w, &cfgs));
                        } else {
                            out.extend(chunk.iter().map(|&i| measure(w, self.points[i].cfg)));
                        }
                    }
                } else {
                    out.extend(g.iter().map(|&i| measure(w, self.points[i].cfg)));
                }
                return GroupOut {
                    reports: out,
                    frontend_ns: t0.elapsed().as_nanos() as u64,
                    ..GroupOut::default()
                };
            }
            let t0 = std::time::Instant::now();
            let buf =
                capture_frontend(w, head_cfg).unwrap_or_else(|e| panic!("{} failed: {e}", w.name));
            let frontend_ns = t0.elapsed().as_nanos() as u64;
            let t1 = std::time::Instant::now();
            let cfgs: Vec<SimConfig> = g[1..].iter().map(|&i| self.points[i].cfg).collect();
            let mut out = Vec::with_capacity(g.len());
            out.push(buf.report.clone());
            out.extend(
                replay_frontend(&buf, w, &cfgs)
                    .unwrap_or_else(|e| panic!("{} failed: {e}", w.name)),
            );
            GroupOut {
                reports: out,
                frontend_ns,
                engine_ns: t1.elapsed().as_nanos() as u64,
                replayed: (g.len() - 1) as u64,
                ..GroupOut::default()
            }
        };
        if threads <= 1 || groups.len() <= 1 {
            let mut out: Vec<Option<RunReport>> = vec![None; self.points.len()];
            for g in &groups {
                let go = run_group(g);
                stats.absorb(&go);
                for (&i, r) in g.iter().zip(go.reports) {
                    out[i] = Some(r);
                }
            }
            let reports = out
                .into_iter()
                .map(|r| r.expect("runner lost a point"))
                .collect();
            return (reports, stats);
        }
        let threads = threads.min(groups.len());
        let cursor = AtomicUsize::new(0);
        let done: Mutex<Vec<(usize, RunReport)>> =
            Mutex::new(Vec::with_capacity(self.points.len()));
        let shared: Mutex<FrontendCacheStats> = Mutex::new(stats);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| loop {
                    let gi = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(g) = groups.get(gi) else { break };
                    let go = run_group(g);
                    shared.lock().unwrap().absorb(&go);
                    let mut done = done.lock().unwrap();
                    for (&i, r) in g.iter().zip(go.reports) {
                        done.push((i, r));
                    }
                });
            }
        });
        let stats = shared.into_inner().unwrap();
        let mut done = done.into_inner().unwrap();
        done.sort_by_key(|(i, _)| *i);
        assert_eq!(done.len(), self.points.len(), "runner lost a point");
        let reports = done.into_iter().map(|(_, r)| r).collect();
        (reports, stats)
    }
}

/// One frontend group's results and counters inside
/// [`Sweep::run_stored_stats`].
#[derive(Default)]
struct GroupOut {
    reports: Vec<RunReport>,
    frontend_ns: u64,
    engine_ns: u64,
    replayed: u64,
    store_hits: u64,
    store_misses: u64,
    store_served: u64,
}

/// Observability counters for one [`Sweep::run_cached_stats`] pass: how
/// much of the grid was served from captured event streams, and where
/// the time went.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrontendCacheStats {
    /// Grid points in the sweep.
    pub points: u64,
    /// Points driven by buffer replay instead of a live frontend
    /// (in-process captures and persistent-store hits alike).
    pub replayed_points: u64,
    /// Nanoseconds spent paying the frontend: captures plus points that
    /// ran fully live (singleton groups).
    pub frontend_ns: u64,
    /// Nanoseconds spent in engine-only replay.
    pub engine_ns: u64,
    /// Points served from a persistent [`StreamStore`] entry — no live
    /// frontend ran for them at all, in this process or any other.
    pub store_served_points: u64,
    /// Frontend groups whose stream loaded from the store.
    pub store_hits: u64,
    /// Capturable frontend groups that missed the store (and captured
    /// live, persisting their stream for the next run).
    pub store_misses: u64,
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
        self.frontend_ns += go.frontend_ns;
        self.engine_ns += go.engine_ns;
        self.replayed_points += go.replayed;
        self.store_hits += go.store_hits;
        self.store_misses += go.store_misses;
        self.store_served_points += go.store_served;
    }
}

/// Default lane width for batched sweeps (`--lanes`): wide enough to
/// cover a full same-workload column of the figure grids, while lane
/// equivalence keeps any value safe.
pub const DEFAULT_LANES: usize = 8;

/// The figure binaries' flag set (strict values, tolerated unknowns —
/// see [`HarnessArgs::try_from_args`]).
const HARNESS_SPEC: CliSpec = CliSpec {
    value_flags: &["scale", "threads", "lanes", "out"],
    switches: &[
        "quiet",
        "frontend-cache",
        "no-frontend-cache",
        "store",
        "no-store",
    ],
    repeatable: &[],
};

/// Usage line printed (with exit 64) when a figure binary rejects its
/// arguments.
pub const HARNESS_USAGE: &str = "usage: [--scale N] [--threads N] [--lanes N] \
     [--frontend-cache | --no-frontend-cache] [--store | --no-store] \
     [--quiet] [--out DIR]";

/// Command-line arguments shared by every experiment binary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HarnessArgs {
    /// Problem size: 0 = smoke, 1 = the evaluation size in EXPERIMENTS.md.
    pub scale: u32,
    /// Worker threads for the sweep (default: available parallelism).
    pub threads: usize,
    /// Maximum configurations per lane-batched pass
    /// ([`Sweep::run_lanes`]); 1 disables batching entirely.
    pub lanes: usize,
    /// Drive sweeps through the frontend event-stream cache
    /// ([`Sweep::run_cached`], the default); `--no-frontend-cache`
    /// reverts to live lane-batched execution. Output is byte-identical
    /// either way — the switch exists for timing comparisons and as an
    /// escape hatch.
    pub frontend_cache: bool,
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
    /// Parses `--scale N`, `--threads N`, `--lanes N`, `--quiet` and
    /// `--out DIR` from the process arguments. A malformed value for a
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
    /// [`crate::cli`] layer: `--lanes x` or a trailing `--threads` is a
    /// [`CliError`], never a silent default.
    pub fn try_from_args(args: impl IntoIterator<Item = String>) -> Result<Self, CliError> {
        let raw: Vec<String> = args.into_iter().collect();
        let parsed = CliArgs::parse(&Self::known_tokens(&raw), &HARNESS_SPEC)?;
        let cache_on = parsed.switch("frontend-cache");
        let cache_off = parsed.switch("no-frontend-cache");
        if cache_on && cache_off {
            return Err(CliError::Conflict {
                a: "frontend-cache".into(),
                b: "no-frontend-cache".into(),
            });
        }
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
            lanes: parsed.parsed_or("lanes", DEFAULT_LANES)?.max(1),
            frontend_cache: !cache_off,
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
            lanes: DEFAULT_LANES,
            frontend_cache: true,
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
/// frontend cache (or lane-batched live with `--no-frontend-cache`),
/// print the render. Both paths are bit-exact, so the output is
/// byte-identical for every `--lanes`, `--threads` and cache setting.
pub fn figure_main(grid: fn(u32) -> Sweep, render: fn(u32, &Sweep, &[RunReport], bool) -> String) {
    let args = HarnessArgs::parse();
    let sweep = grid(args.scale);
    let reports = run_with_args(&sweep, &args);
    print!("{}", render(args.scale, &sweep, &reports, args.quiet));
}

/// Runs a sweep the way [`figure_main`] would: through the frontend
/// cache backed by the persistent stream store at `<results>/store`
/// (the default), in-process-only with `--no-store`, or live
/// lane-batched with `--no-frontend-cache`. All paths are bit-exact.
pub fn run_with_args(sweep: &Sweep, args: &HarnessArgs) -> Vec<RunReport> {
    if args.frontend_cache {
        let store = args
            .store
            .then(|| StreamStore::open(args.results_dir().join("store")));
        sweep.run_stored(args.threads, args.lanes, store.as_ref())
    } else {
        sweep.run_lanes(args.threads, args.lanes)
    }
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

    #[test]
    fn lane_batching_matches_serial_in_order() {
        let sweep = small_sweep();
        let serial = sweep.run(1);
        for (threads, lanes) in [(1, 2), (1, 8), (8, 4)] {
            assert_eq!(
                serial,
                sweep.run_lanes(threads, lanes),
                "threads={threads} lanes={lanes}"
            );
        }
        assert_eq!(serial, sweep.run_lanes(1, 1), "lanes=1 is the serial path");
    }

    #[test]
    fn lane_batching_handles_parallel_and_mixed_grids() {
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
        assert_eq!(s.run(1), s.run_lanes(1, 8), "mixed seq/par grid");
        assert_eq!(s.run(1), s.run_lanes(4, 2), "threaded lane groups");
    }

    #[test]
    fn cached_sweep_matches_serial_in_order() {
        let sweep = small_sweep();
        let serial = sweep.run(1);
        for (threads, lanes) in [(1, 1), (1, 8), (8, 4)] {
            let (reports, stats) = sweep.run_cached_stats(threads, lanes);
            assert_eq!(
                serial, reports,
                "threads={threads} lanes={lanes} cached sweep must be bit-identical"
            );
            // One workload, one frontend — but three points sit below
            // the capture threshold, so the group takes the live
            // fallback (lane-batched or serial) and nothing replays.
            assert_eq!(stats.points, 3);
            assert_eq!(stats.replayed_points, 0);
            assert_eq!(stats.hit_rate(), 0.0);
        }
    }

    #[test]
    fn cached_sweep_captures_wide_groups() {
        let mut s = Sweep::new();
        let gs = s.workload(gatesim::build(0));
        // A design-space-style column: one workload, many register-file
        // organizations, wide enough to clear MIN_CAPTURE_GROUP.
        for i in 0..Sweep::MIN_CAPTURE_GROUP as u32 {
            if i % 4 == 3 {
                s.point(gs, segmented_config(2 + i / 4, SEQ_CTX_REGS));
            } else {
                s.point(gs, nsf_config(SEQ_FILE_REGS / 2 + 8 * i));
            }
        }
        let n = Sweep::MIN_CAPTURE_GROUP as u64;
        let serial = s.run(1);
        for (threads, lanes) in [(1, 1), (1, 8), (8, 4)] {
            let (reports, stats) = s.run_cached_stats(threads, lanes);
            assert_eq!(
                serial, reports,
                "threads={threads} lanes={lanes} cached sweep must be bit-identical"
            );
            // The frontend-equal points clear MIN_CAPTURE_GROUP: the
            // first captures, the rest replay in one call.
            assert_eq!(stats.points, n);
            assert_eq!(stats.replayed_points, n - 1);
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
        let (cached, stats) = s.run_cached_stats(1, 8);
        assert_eq!(serial, cached, "mixed seq/par grid");
        // The parallel workload is unbatchable (singleton groups, run
        // live); the sequential one shares one frontend group, but four
        // points sit below the capture threshold, so it lane-batches
        // live instead of replaying.
        assert_eq!(stats.points, 8);
        assert_eq!(stats.replayed_points, 0);
        assert_eq!(serial, s.run_cached(4, 2), "threaded cached groups");
    }

    #[test]
    fn frontend_groups_span_the_whole_sweep() {
        let mut s = Sweep::new();
        let a = s.workload(gatesim::build(0));
        for _ in 0..5 {
            s.point(a, nsf_config(SEQ_FILE_REGS));
        }
        // No width limit: unlike lane_groups, one group takes all.
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
    fn multi_issue_points_stay_serial_in_both_groupings() {
        let mut s = Sweep::new();
        let a = s.workload(gatesim::build(0));
        let mut wide = nsf_config(SEQ_FILE_REGS);
        wide.issue_width = 2;
        wide.read_ports = 3;
        wide.write_ports = 2;
        // Identical multi-issue frontends would pass frontend_eq, but a
        // multi-issue stream is not lane-invariant: every point must be
        // a singleton on both routing paths.
        for _ in 0..4 {
            s.point(a, wide);
        }
        assert_eq!(
            s.frontend_groups(),
            vec![vec![0], vec![1], vec![2], vec![3]]
        );
        assert_eq!(s.lane_groups(8), vec![vec![0], vec![1], vec![2], vec![3]]);
        // And the full cached path still reproduces the serial sweep.
        let serial = s.run(1);
        assert_eq!(serial, s.run_lanes(1, 8));
        assert_eq!(serial, s.run_cached(2, 4));
    }

    #[test]
    fn cache_flags_parse_and_conflict() {
        let on = HarnessArgs::try_from_args(["--frontend-cache"].map(String::from)).unwrap();
        assert!(on.frontend_cache);
        let off = HarnessArgs::try_from_args(["--no-frontend-cache"].map(String::from)).unwrap();
        assert!(!off.frontend_cache);
        // Default is on.
        assert!(
            HarnessArgs::try_from_args(std::iter::empty())
                .unwrap()
                .frontend_cache
        );
        // Contradictory switches are a usage error (exit 64 in main),
        // never a silent precedence rule.
        let err = HarnessArgs::try_from_args(
            ["--frontend-cache", "--no-frontend-cache"].map(String::from),
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Conflict { .. }));
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
    fn lane_groups_chunk_per_workload_in_order() {
        let mut s = Sweep::new();
        let a = s.workload(gatesim::build(0));
        for _ in 0..5 {
            s.point(a, nsf_config(SEQ_FILE_REGS));
        }
        let groups = s.lane_groups(2);
        assert_eq!(groups, vec![vec![0, 1], vec![2, 3], vec![4]]);
        // A frontend change (different quantum) breaks the chain even
        // mid-group: lanes must share the whole machine frontend.
        let mut cfg = nsf_config(SEQ_FILE_REGS);
        cfg.quantum = Some(64);
        s.point(a, cfg);
        s.point(a, cfg);
        let groups = s.lane_groups(8);
        assert_eq!(groups, vec![vec![0, 1, 2, 3, 4], vec![5, 6]]);
    }

    #[test]
    fn args_parse_defaults_and_flags() {
        let a = HarnessArgs::try_from_args(
            ["--scale", "0", "--threads", "3", "--lanes", "2", "--quiet"].map(String::from),
        )
        .unwrap();
        assert_eq!(
            a,
            HarnessArgs {
                scale: 0,
                threads: 3,
                lanes: 2,
                frontend_cache: true,
                store: true,
                quiet: true,
                out: None
            }
        );
        let d = HarnessArgs::try_from_args(std::iter::empty()).unwrap();
        assert_eq!(d.scale, 1);
        assert!(d.threads >= 1);
        assert_eq!(d.lanes, DEFAULT_LANES);
        assert!(!d.quiet);
        // --threads 0 / --lanes 0 clamp to 1 rather than deadlocking.
        let z = HarnessArgs::try_from_args(["--threads", "0", "--lanes", "0"].map(String::from))
            .unwrap();
        assert_eq!(z.threads, 1);
        assert_eq!(z.lanes, 1);
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
            vec!["--lanes", "x"],
            vec!["--lanes", "-3"],
            vec!["--threads", "many"],
            vec!["--scale", "1.5"],
            vec!["--lanes"],
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
