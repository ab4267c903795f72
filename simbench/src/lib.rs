//! The simulator benchmark: seeded inputs driven through the default
//! execution path (`Sweep::run_stored` with the frontend cache and a
//! stream store, and `Explorer::run`), checked against a serial
//! reference, timed cold and warm, and — in a separate traced run —
//! broken down by layer. See `README.md` beside this crate for the
//! workloads and metrics.

pub mod exec;
pub mod gen;
pub mod probe;
pub mod report;
pub mod traced;

use exec::{run_pass, Inputs, Output, Pass, Reference, Route, Scratch};
use gen::Kind;
use nsf_bench::Sweep;
use nsf_sim::{batchable_program, parse_engine, SimConfig};
use probe::Probe;
use report::{median, ratio, Metric};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use traced::{Counters, Tracer};

/// How one invocation runs.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Which workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Problem size (0 = self-test, 1 = benchmark).
    pub scale: u32,
    /// How long the timed repetitions run.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Directory for scratch stores and the span file.
    pub root: PathBuf,
}

/// What one invocation measured.
pub struct RunResult {
    /// Human-readable lines: host, manifest, metrics.
    pub lines: Vec<String>,
    /// Every output matched the reference.
    pub correct: bool,
    /// Points attempted over every pass.
    pub attempted: u64,
    /// Points whose output was wrong, or whose pass failed.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

/// Sweep and explorer worker threads. One: on a shared two-vCPU host a
/// second worker roughly doubled the run-to-run spread of throughput.
pub const THREADS: usize = 1;

/// Fewest timed repetitions, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Lowest `bench.layer_sum_frac` a correct traced run may report: below
/// it, more than 2% of the traced time went to code no span covers.
pub const MIN_LAYER_SUM_FRAC: f64 = 0.98;

/// Counts attempted and failed points across passes.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    error: Option<String>,
}

impl Tally {
    fn check(&mut self, reference: &Reference, pass: Pass, out: &Output) {
        self.attempted += reference.points(pass) as u64;
        self.failed += reference.failures(pass, out) as u64;
        if let (None, Output::Failed(e)) = (&self.error, out) {
            self.error = Some(format!("{} pass failed: {e}", pass.name()));
        }
    }

    /// Marks the run not correct without failing a point.
    fn reject(&mut self, why: String) {
        self.error.get_or_insert(why);
    }
}

/// Runs one invocation: set-up, reference, manifest, then the timed
/// (or traced) repetitions.
pub fn run(cfg: &RunConfig) -> RunResult {
    let mut lines = vec![report::host_line(cfg.scale, THREADS)];
    let mut tr = Tracer::default();
    let (inputs, _) = setup(cfg, &mut tr);
    let scratch = Scratch::new(cfg.root.join("scratch"));
    let reference = Reference::compute(&inputs, &scratch);
    lines.extend(manifest(&inputs, &reference));

    let mut tally = Tally::default();
    let metrics = if cfg.trace {
        let m = traced_reps(
            cfg, &inputs, &reference, &scratch, &mut tr, &mut tally, &mut lines,
        );
        let path = cfg
            .root
            .join(format!("trace-{}-seed{}.jsonl", cfg.kind.name(), cfg.seed));
        match tr.write_jsonl(&path) {
            Ok(()) => lines.push(format!(
                "spans {} written to {}",
                tr.spans.len(),
                path.display()
            )),
            Err(e) => lines.push(format!("spans not written to {}: {e}", path.display())),
        }
        m
    } else {
        timed_reps(
            cfg, &inputs, &reference, &scratch, &mut tr, &mut tally, &mut lines,
        )
    };
    scratch.wipe();
    if let Some(e) = &tally.error {
        lines.push(format!("error {e}"));
    }
    for m in &metrics {
        lines.push(format!("metric {} {} {}", m.name, m.value, m.unit));
    }
    RunResult {
        lines,
        correct: tally.failed == 0 && tally.error.is_none(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    }
}

/// One set-up: draws the plan, builds every program and enumerates the
/// specs. Returns the inputs and the set-up time (and records a
/// `workloads.build` span).
fn setup(cfg: &RunConfig, tr: &mut Tracer) -> (Inputs, f64) {
    tr.set_pass("setup");
    let t0 = Instant::now();
    let plan = gen::plan(cfg.kind, cfg.seed, cfg.scale);
    let sweep = tr.span("workloads.build", || gen::build(&plan));
    if let Some((cold, warm)) = &plan.explore {
        std::hint::black_box((cold.enumerate(), warm.enumerate()));
    }
    let t = t0.elapsed().as_secs_f64();
    (Inputs { plan, sweep }, t)
}

/// The untraced repetitions until `seconds` have passed. Each is a
/// set-up, a cold pass and a warm pass on a fresh store, with a host
/// probe reading before the set-up, between the passes and after them.
/// Every time is scaled to the probe's nominal speed (see
/// [`probe`]); each metric is the median over repetitions.
fn timed_reps(
    cfg: &RunConfig,
    inputs: &Inputs,
    reference: &Reference,
    scratch: &Scratch,
    tr: &mut Tracer,
    tally: &mut Tally,
    lines: &mut Vec<String>,
) -> Vec<Metric> {
    let mut probe = Probe::default();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let (mut setup_s, mut cold, mut warm, mut store) = (vec![], vec![], vec![], vec![]);
    let (mut raw_cold, mut raw_warm, mut host) = (vec![], vec![], vec![]);
    let mut routes = [Route::default(); 2];
    while cold.len() < MIN_REPS || Instant::now() < deadline {
        let mut speed = vec![probe.msteps()];
        let (built, t) = setup(cfg, tr);
        std::hint::black_box(built);
        setup_s.push(t * speed[0] / probe::NOMINAL_MSTEPS);
        scratch.wipe();
        let mut mips = [0.0; 2];
        for (k, pass) in Pass::BOTH.into_iter().enumerate() {
            let (t, out, route) = run_pass(inputs, pass, scratch);
            speed.push(probe.msteps());
            routes[k] = route;
            tally.check(reference, pass, &out);
            mips[k] = reference.instructions(pass) as f64 / t.as_secs_f64() / 1e6;
        }
        store.push(scratch.bytes() as f64 / 1e6);
        let nominal = |k: usize| (speed[k] + speed[k + 1]) / 2.0 / probe::NOMINAL_MSTEPS;
        cold.push(mips[0] / nominal(0));
        warm.push(mips[1] / nominal(1));
        raw_cold.push(mips[0]);
        raw_warm.push(mips[1]);
        host.extend(speed);
    }
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    lines.push(routed_line(&routes, reference));
    lines.push(format!(
        "reps {} cold_sim_mips={} warm_sim_mips={}",
        cold.len(),
        list(&cold),
        list(&warm)
    ));
    lines.push(format!(
        "unscaled probe_msteps={:.1} cold_sim_mips={:.3} warm_sim_mips={:.3} (medians; per rep {} / {})",
        median(&host),
        median(&raw_cold),
        median(&raw_warm),
        list(&raw_cold),
        list(&raw_warm)
    ));
    lines.push(format!("metric store_mb {} MB", median(&store)));
    lines.push(format!(
        "metric failed_frac {} ratio",
        ratio(tally.failed as f64, tally.attempted as f64)
    ));
    vec![
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("cold_sim_mips", median(&cold), "Minstr/s"),
        Metric::new("warm_sim_mips", median(&warm), "Minstr/s"),
        Metric::new("peak_rss_mb", report::peak_rss_mb(), "MB"),
    ]
}

/// The traced repetitions. Each pairs an untraced repetition with a
/// traced one (both on fresh stores), so the traced
/// run's reports can be checked for identity and its overhead measured.
fn traced_reps(
    cfg: &RunConfig,
    inputs: &Inputs,
    reference: &Reference,
    scratch: &Scratch,
    tr: &mut Tracer,
    tally: &mut Tally,
    lines: &mut Vec<String>,
) -> Vec<Metric> {
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut c = Counters::default();
    let mut first_heads = None;
    let (mut traced_wall, mut plain_wall, mut store) = (Vec::new(), Vec::new(), Vec::new());
    let mut identical = true;
    let mut routes = [Route::default(); 2];
    while traced_wall.len() < 2 || Instant::now() < deadline {
        let rep = traced_wall.len();
        std::hint::black_box(setup(cfg, tr));
        scratch.wipe();
        let mut plain = Vec::new();
        let mut wall = Duration::ZERO;
        for (k, pass) in Pass::BOTH.into_iter().enumerate() {
            let (t, out, route) = run_pass(inputs, pass, scratch);
            tally.check(reference, pass, &out);
            wall += t;
            plain.push(out);
            routes[k] = route;
        }
        let memo = scratch.store_dir().join(traced::MEMO_FILE);
        if inputs.plan.explore.is_some() && !memo.is_file() {
            tally.reject(format!("the explorer left no memo at {}", memo.display()));
        }
        plain_wall.push(wall.as_secs_f64());
        scratch.wipe();
        let mut ns = 0;
        for (k, (pass, plain)) in Pass::BOTH.into_iter().zip(&plain).enumerate() {
            tr.set_pass(format!("{}-{rep}", pass.name()));
            let before = c.route();
            let (t, out) = traced::pass(tr, |tr| traced_pass(inputs, pass, scratch, tr, &mut c));
            tally.check(reference, pass, &out);
            identical &= out == *plain;
            ns += t;
            let mirror = c.route().since(&before);
            if !routes[k].agrees_with(&mirror) {
                tally.reject(format!(
                    "traced {} pass routed {mirror:?}, the runner {:?}",
                    pass.name(),
                    routes[k]
                ));
            }
        }
        traced_wall.push(ns as f64 / 1e9);
        store.push(scratch.bytes() as f64 / 1e6);
        first_heads.get_or_insert_with(|| c.heads.clone());
    }
    lines.push(routed_line(&routes, reference));
    lines.push(format!(
        "reps {} traced_identical={identical}",
        traced_wall.len()
    ));
    if !identical {
        tally.failed += 1;
        tally
            .error
            .get_or_insert_with(|| "traced reports differ from untraced".into());
    }

    tr.set_pass("probe");
    let heads = first_heads.unwrap_or_default();
    let capture_ns: u64 = heads.iter().map(|h| h.2).sum();
    let mut live_ns = 0;
    for &(w, head, _) in &heads {
        let id = tr.enter("probe.live_head");
        let _ = nsf_workloads::run(&inputs.sweep.workloads[w], head);
        tr.exit(id);
        live_ns += tr.spans[id].ns();
    }
    let engines = engine_ns_per_event(inputs, tr);

    let reps = traced_wall.len() as f64;
    let own = tr.self_ns();
    let mut self_s: HashMap<&str, f64> = HashMap::new();
    let mut pass_s = 0.0;
    let mut build_s = Vec::new();
    for (s, o) in tr.spans.iter().zip(&own) {
        if s.pass == "setup" && s.name == "workloads.build" {
            build_s.push(s.ns() as f64 / 1e9);
        }
        if !(s.pass.starts_with("cold-") || s.pass.starts_with("warm-")) {
            continue;
        }
        if s.name == "pass" {
            pass_s += s.ns() as f64 / 1e9 / reps;
        }
        *self_s.entry(s.name).or_default() += *o as f64 / 1e9 / reps;
    }
    let t = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    let layer_s: f64 = self_s
        .iter()
        .filter(|(n, _)| **n != "pass")
        .map(|(_, v)| v)
        .sum();
    let per = |x: u64| x as f64 / reps;
    let sim = &c.sim;
    let rf = &sim.regfile;
    let accesses = rf.reads + rf.writes;
    let explore_run_s = if inputs.plan.explore.is_some() {
        pass_s
    } else {
        0.0
    };
    let layer_sum_frac = ratio(layer_s, pass_s);
    if layer_sum_frac < MIN_LAYER_SUM_FRAC {
        tally.reject(format!(
            "bench.layer_sum_frac {layer_sum_frac} is below {MIN_LAYER_SUM_FRAC}"
        ));
    }
    let mut m = vec![
        Metric::new("workloads.build_s", median(&build_s), "s"),
        Metric::new(
            "workloads.programs",
            inputs.sweep.workloads.len() as f64,
            "count",
        ),
        Metric::new(
            "workloads.static_instrs",
            inputs
                .sweep
                .workloads
                .iter()
                .map(|w| w.program.len())
                .sum::<usize>() as f64,
            "count",
        ),
        Metric::new("runner.points", per(c.points), "count"),
        Metric::new("runner.groups", per(c.groups), "count"),
        Metric::new(
            "runner.wide_point_share",
            ratio(c.wide_points as f64, c.points as f64),
            "ratio",
        ),
        Metric::new(
            "runner.live_point_share",
            ratio(c.live_points as f64, c.points as f64),
            "ratio",
        ),
        Metric::new(
            "runner.pool_idle_frac",
            1.0 - ratio(c.pool_busy_ns, c.pool_capacity_ns),
            "ratio",
        ),
        Metric::new("sim.live_s", t("sim.live"), "s"),
        Metric::new("sim.live_points", per(c.live_points), "count"),
        Metric::new(
            "sim.live_mips",
            ratio(per(c.live_instructions), t("sim.live")) / 1e6,
            "Minstr/s",
        ),
        Metric::new("sim.instructions", per(sim.instructions), "count"),
        Metric::new("sim.cycles", per(sim.cycles), "count"),
        Metric::new(
            "sim.port_conflict_cycles",
            per(rf.port_conflict_cycles),
            "count",
        ),
        Metric::new("runtime.thread_switches", per(sim.thread_switches), "count"),
        Metric::new("runtime.spawns", per(sim.spawns), "count"),
        Metric::new("runtime.idle_cycles", per(sim.idle_cycles), "count"),
        Metric::new("fcache.capture_s", t("fcache.capture"), "s"),
        Metric::new("fcache.captures", per(c.captures), "count"),
        Metric::new("fcache.capture_events", per(c.capture_events), "count"),
        Metric::new(
            "fcache.capture_bytes_per_event",
            ratio(c.capture_bytes as f64, c.capture_events as f64),
            "B/event",
        ),
        Metric::new(
            "fcache.capture_tax",
            ratio(capture_ns as f64, live_ns as f64),
            "ratio",
        ),
        Metric::new("fcache.replay_s", t("fcache.replay"), "s"),
        Metric::new("fcache.replay_points", per(c.replay_points), "count"),
        Metric::new(
            "fcache.replay_lane_events",
            per(c.replay_lane_events),
            "count",
        ),
        Metric::new(
            "fcache.replay_mevents_per_s",
            ratio(per(c.replay_lane_events), t("fcache.replay")) / 1e6,
            "Mevents/s",
        ),
        Metric::new("store.fingerprint_s", t("store.fingerprint"), "s"),
        Metric::new("store.load_s", t("store.load"), "s"),
        Metric::new("store.save_s", t("store.save"), "s"),
        Metric::new("store.hits", per(c.hits), "count"),
        Metric::new("store.misses", per(c.misses), "count"),
        Metric::new("store.rejects", per(c.rejects), "count"),
        Metric::new(
            "store.hit_ratio",
            ratio(c.hits as f64, (c.hits + c.misses) as f64),
            "ratio",
        ),
        Metric::new("store.bytes_written", per(c.bytes_written), "B"),
        Metric::new("store.bytes_read", per(c.bytes_read), "B"),
        Metric::new("core.accesses", per(accesses), "count"),
        Metric::new(
            "core.miss_ratio",
            ratio((rf.read_misses + rf.write_misses) as f64, accesses as f64),
            "ratio",
        ),
        Metric::new("core.regs_reloaded", per(rf.regs_reloaded), "count"),
        Metric::new("core.regs_spilled", per(rf.regs_spilled), "count"),
        Metric::new(
            "core.spill_reload_cycles",
            per(rf.spill_reload_cycles),
            "count",
        ),
    ];
    for (family, ns) in engines {
        m.push(Metric::new(
            format!("core.{family}.ns_per_event"),
            ns,
            "ns/event",
        ));
    }
    m.extend([
        Metric::new("mem.dcache_accesses", per(sim.dcache.accesses), "count"),
        Metric::new(
            "mem.dcache_miss_ratio",
            ratio(sim.dcache.misses as f64, sim.dcache.accesses as f64),
            "ratio",
        ),
        Metric::new("mem.dcache_writebacks", per(sim.dcache.writebacks), "count"),
        Metric::new("explore.run_s", explore_run_s, "s"),
        Metric::new("explore.enumerate_s", t("explore.enumerate"), "s"),
        Metric::new("explore.memo_hits", per(c.memo_hits), "count"),
        Metric::new(
            "explore.memo_hit_ratio",
            ratio(c.memo_hits as f64, c.memo_lookups as f64),
            "ratio",
        ),
        Metric::new("explore.cost_s", t("explore.cost"), "s"),
        Metric::new("explore.pareto_s", t("explore.pareto"), "s"),
        Metric::new(
            "explore.pruned_ratio",
            ratio(c.front_pruned as f64, c.front_inserted as f64),
            "ratio",
        ),
        Metric::new("explore.ledger_bytes", per(c.ledger_bytes), "B"),
        Metric::new("bench.layer_sum_frac", layer_sum_frac, "ratio"),
        Metric::new(
            "bench.trace_overhead_frac",
            ratio(median(&traced_wall), median(&plain_wall)) - 1.0,
            "ratio",
        ),
        Metric::new("store_mb", median(&store), "MB"),
        Metric::new(
            "failed_frac",
            ratio(tally.failed as f64, tally.attempted as f64),
            "ratio",
        ),
    ]);
    m
}

/// One traced pass of `inputs`.
fn traced_pass(
    inputs: &Inputs,
    pass: Pass,
    scratch: &Scratch,
    tr: &mut Tracer,
    c: &mut Counters,
) -> Output {
    match &inputs.plan.explore {
        None => {
            let store = nsf_trace::StreamStore::open(scratch.store_dir());
            Output::Reports(traced::sweep(&inputs.sweep, &store, &|i| i, tr, c))
        }
        Some((cold, warm)) => {
            let spec = if pass == Pass::Cold { cold } else { warm };
            let out_dir = scratch.out_dir(pass.name());
            traced::explore(spec, &out_dir, &scratch.store_dir(), tr, c)
        }
    }
}

/// Engine families the per-event probe replays, with the sequential
/// organization each is measured as.
const PROBE_ENGINES: [(&str, &str); 5] = [
    ("nsf", "nsf:80"),
    ("segmented", "segmented:4x20"),
    ("segmented-sw", "segmented-sw:4x20"),
    ("windowed", "windowed:20"),
    ("conventional", "conventional:20"),
];

/// Host ns per replayed register-file event for each engine family:
/// the workload's first sequential program is captured once
/// (`nsf_trace::capture`) and its event stream replayed through each
/// engine (`nsf_trace::replay_events`); the median of several replays.
fn engine_ns_per_event(inputs: &Inputs, tr: &mut Tracer) -> Vec<(&'static str, f64)> {
    let Some(w) = inputs.sweep.workloads.iter().find(|w| !w.parallel) else {
        return PROBE_ENGINES.iter().map(|(f, _)| (*f, 0.0)).collect();
    };
    let spec = PROBE_ENGINES[0].1;
    let cfg = SimConfig::with_regfile(parse_engine(spec).expect("static engine spec"));
    let trace = tr.span("probe.capture", || {
        nsf_trace::capture(w, cfg, spec, inputs.plan.scale)
    });
    let Ok((trace, _)) = trace else {
        return PROBE_ENGINES.iter().map(|(f, _)| (*f, 0.0)).collect();
    };
    let events = trace.events.len().max(1) as f64;
    PROBE_ENGINES
        .iter()
        .map(|&(family, engine)| {
            let cfg = SimConfig::with_regfile(parse_engine(engine).expect("static engine spec"));
            let mut samples = Vec::new();
            let until = Instant::now() + Duration::from_millis(50);
            while samples.len() < 3 || (samples.len() < 15 && Instant::now() < until) {
                let id = tr.enter("probe.replay_events");
                let ok = nsf_trace::replay_events(&trace.events, &cfg).is_ok();
                tr.exit(id);
                if !ok {
                    break;
                }
                samples.push(tr.spans[id].ns() as f64 / events);
            }
            (family, median(&samples))
        })
        .collect()
}

/// Whether a sweep group can be captured (the runner's rule).
fn capturable(sweep: &Sweep, g: &[usize]) -> bool {
    let p = sweep.points[g[0]];
    batchable_program(&sweep.workloads[p.workload].program)
        && p.cfg.trace_depth == 0
        && p.cfg.issue_width == 1
}

/// The run's manifest: what was generated and how its points group,
/// so a later change can cite the share of work with a property. Cold
/// and warm values are written `cold/warm`. How the points were
/// actually routed is measured by the passes; see [`routed_line`].
fn manifest(inputs: &Inputs, reference: &Reference) -> Vec<String> {
    let plan = &inputs.plan;
    let sweep = &inputs.sweep;
    let mut widths: BTreeMap<usize, usize> = BTreeMap::new();
    let points = [reference.points(Pass::Cold), reference.points(Pass::Warm)];
    let (groups, wide, uncapturable, multi_issue);
    match &plan.explore {
        None => {
            let gs = sweep.frontend_groups();
            for g in &gs {
                *widths.entry(g.len()).or_default() += 1;
            }
            let sum = |f: &dyn Fn(&Vec<usize>) -> usize| gs.iter().map(f).sum::<usize>();
            groups = [gs.len(), gs.len()];
            wide = sum(&|g| {
                if g.len() >= Sweep::MIN_CAPTURE_GROUP {
                    g.len()
                } else {
                    0
                }
            });
            uncapturable = sum(&|g| if capturable(sweep, g) { 0 } else { g.len() });
            multi_issue = sweep
                .points
                .iter()
                .filter(|p| p.cfg.issue_width > 1)
                .count();
        }
        Some((cold, warm)) => {
            // Every (workload, cache) cell is one frontend.
            let cells = |spec: &nsf_explore::ExploreSpec| {
                let mut w: Vec<usize> = Vec::new();
                let mut last = None;
                for p in spec.enumerate() {
                    let key = (p.workload, p.cache.to_string());
                    if last.as_ref() != Some(&key) {
                        w.push(0);
                        last = Some(key);
                    }
                    *w.last_mut().expect("pushed") += 1;
                }
                w
            };
            let (cw, ww) = (cells(cold), cells(warm));
            for &n in &cw {
                *widths.entry(n).or_default() += 1;
            }
            groups = [cw.len(), ww.len()];
            wide = cw.iter().filter(|&&n| n >= Sweep::MIN_CAPTURE_GROUP).sum();
            uncapturable = 0;
            multi_issue = 0;
        }
    }
    let share = |n: usize| ratio(n as f64, points[0] as f64);
    let hist: Vec<String> = widths.iter().map(|(w, n)| format!("{w}:{n}")).collect();
    vec![
        format!(
            "manifest workload={} seed={} scale={} programs={} points={}/{} groups={}/{} sim_instructions={}/{}",
            plan.kind.name(),
            plan.seed,
            plan.scale,
            sweep.workloads.len(),
            points[0],
            points[1],
            groups[0],
            groups[1],
            reference.instructions(Pass::Cold),
            reference.instructions(Pass::Warm),
        ),
        format!("manifest group_widths={}", hist.join(",")),
        format!(
            "manifest shares wide={:.4} uncapturable={:.4} multi_issue={:.4}",
            share(wide),
            share(uncapturable),
            share(multi_issue),
        ),
    ]
}

/// The manifest's measured line: how the last cold and warm pass routed
/// their points, from the counters of the code under test ([`Route`]).
/// Replayed and memo values are shares of the pass's points; `-` marks
/// store hits the explorer does not report.
fn routed_line(routes: &[Route; 2], reference: &Reference) -> String {
    let share = |k: usize, n: u64| ratio(n as f64, reference.points(Pass::BOTH[k]) as f64);
    let hits = |k: usize| routes[k].store_hits.map_or("-".into(), |h| h.to_string());
    format!(
        "manifest routed replayed={:.4}/{:.4} memo={:.4}/{:.4} captured={}/{} store_hits={}/{}",
        share(0, routes[0].replayed),
        share(1, routes[1].replayed),
        share(0, routes[0].memoized),
        share(1, routes[1].memoized),
        routes[0].captured,
        routes[1].captured,
        hits(0),
        hits(1),
    )
}
