//! Seeded inputs. Every workload is a pure function of `(seed, scale)`:
//! [`plan`] draws program parameters and configurations without
//! building anything, and [`build`] turns a plan into programs. The
//! simulator only ever sees the built inputs.
//!
//! The seed moves *what* runs (synthetic program shapes, engine and
//! cache samples) while the draws are sized so the amount of work per
//! run stays close across seeds: throughput is compared across seeds,
//! so a seed must not be able to double it.

use nsf_bench::figures::fig_pipeline::{READ_PORTS, WRITE_PORTS};
use nsf_bench::{
    nsf_config, nsf_lines_config, segmented_config, segmented_software_config,
    segmented_valid_config, Sweep, PAR_CTX_REGS, PAR_FILE_REGS, SEQ_CTX_REGS, SEQ_FILE_REGS,
};
use nsf_core::ReloadPolicy;
use nsf_explore::{workload_builder, CacheGeom, ExploreSpec, Family};
use nsf_sim::SimConfig;
use nsf_workloads::synth::{self, ParParams, SeqParams};
use nsf_workloads::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `Explorer::run` over wide (workload, cache) cells: replay and
    /// engine work dominate.
    ExploreFan,
    /// Figure-shaped grids of 1–3 configurations per program: every
    /// group is narrow, so capture and store traffic dominate.
    FigureNarrow,
    /// Parallel and multi-issue points only: nothing is capturable.
    LiveOnly,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [Kind::ExploreFan, Kind::FigureNarrow, Kind::LiveOnly];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ExploreFan => "explore-fan",
            Kind::FigureNarrow => "figure-narrow",
            Kind::LiveOnly => "live-only",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One program of a workload, as the seed drew it.
#[derive(Clone, Debug)]
pub enum Program {
    /// A paper benchmark by its explorer name, at a program scale.
    Paper(&'static str, u32),
    /// A synthetic call tree ([`synth::sequential`]).
    Seq(SeqParams),
    /// Synthetic yielding threads ([`synth::parallel`]).
    Par(ParParams),
}

impl Program {
    /// Builds (compiles and packages) the program.
    pub fn build(&self) -> Workload {
        match self {
            Program::Paper(name, scale) => {
                workload_builder(name).expect("paper workload names are static")(*scale)
            }
            Program::Seq(p) => synth::sequential(*p),
            Program::Par(p) => synth::parallel(*p),
        }
    }
}

/// Everything one run simulates, drawn before any program is built.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Which workload.
    pub kind: Kind,
    /// The seed every draw came from.
    pub seed: u64,
    /// Problem size: 0 is the self-test size, 1 the benchmark size.
    pub scale: u32,
    /// The programs, in sweep workload order.
    pub programs: Vec<Program>,
    /// Sweep points as (program index, configuration); empty for
    /// explore-fan, whose points come from its specs.
    pub points: Vec<(usize, SimConfig)>,
    /// explore-fan only: the cold spec and its widened warm superset.
    pub explore: Option<(ExploreSpec, ExploreSpec)>,
}

/// The three sequential paper benchmarks, by explorer name.
const SEQ_PAPER: [&str; 3] = ["gatesim", "rtlsim", "zipfile"];
/// The six parallel paper benchmarks, by explorer name.
const PAR_PAPER: [&str; 6] = ["as", "dtw", "gamteb", "paraffins", "quicksort", "wavefront"];

/// Draws the plan for `kind` from `(seed, scale)`.
pub fn plan(kind: Kind, seed: u64, scale: u32) -> Plan {
    // Each workload draws from its own stream, so adding a draw to one
    // workload cannot shift another's inputs.
    let mut rng = StdRng::seed_from_u64(seed ^ (0x5EED_0000 + kind as u64));
    let mut plan = Plan {
        kind,
        seed,
        scale,
        programs: Vec::new(),
        points: Vec::new(),
        explore: None,
    };
    match kind {
        Kind::ExploreFan => plan_explore(&mut plan, &mut rng),
        Kind::FigureNarrow => plan_figure(&mut plan, &mut rng),
        Kind::LiveOnly => plan_live(&mut plan, &mut rng),
    }
    plan
}

/// Per-program configuration counts: `lo..=hi` spread evenly over
/// `programs` and shuffled, so the seed decides which program runs how
/// many configurations but not how many points the workload has.
fn counts(rng: &mut StdRng, programs: usize, lo: usize, hi: usize) -> Vec<usize> {
    let span = hi - lo + 1;
    let mut c: Vec<usize> = (0..programs).map(|i| lo + i * span / programs).collect();
    for i in (1..c.len()).rev() {
        c.swap(i, rng.gen_range(0..=i));
    }
    c
}

/// `n` distinct items of `pool`, in pool order.
fn pick<T: Copy>(rng: &mut StdRng, pool: &[T], n: usize) -> Vec<T> {
    let mut idx: Vec<usize> = (0..pool.len()).collect();
    for i in 0..n {
        let j = rng.gen_range(i..idx.len());
        idx.swap(i, j);
    }
    let mut chosen = idx[..n].to_vec();
    chosen.sort_unstable();
    chosen.into_iter().map(|i| pool[i]).collect()
}

/// The first item of `pool` not already in `taken`, from a random start.
fn pick_new<T: Copy + PartialEq>(rng: &mut StdRng, pool: &[T], taken: &[T]) -> T {
    let start = rng.gen_range(0..pool.len());
    (0..pool.len())
        .map(|k| pool[(start + k) % pool.len()])
        .find(|v| !taken.contains(v))
        .expect("pool larger than the picked set")
}

fn cache(capacity_words: u32, line_words: u32, ways: u32) -> CacheGeom {
    CacheGeom {
        capacity_words,
        line_words,
        ways,
    }
}

/// Engines in every (workload, cache) cell of the cold spec. The draws
/// below give 17, 20 or 23; holding it fixed keeps the capture-to-replay
/// and memo-to-simulate mix, and so the throughput, from moving with
/// the seed.
const EXPLORE_CELL: usize = 20;

/// Three sequential paper programs under one seed-drawn spec: all six
/// families, three file sizes (one small enough for a conventional
/// file, one large enough for eight windows), three line widths, two
/// frame counts and one cache, redrawn until every (workload, cache)
/// cell holds [`EXPLORE_CELL`] engines. The warm spec adds the fourth
/// line width (new engines in old cells) and a second cache (new cells).
fn plan_explore(plan: &mut Plan, rng: &mut StdRng) {
    let small = [40, 48, 56, 64];
    let mid = [80, 96, 112, 120, 128];
    let large = [160, 192, 240, 256];
    let lines = [1u8, 2, 4, 8];
    let contexts = [2u32, 3, 4];
    let caches = [
        CacheGeom::sparc2(),
        cache(8192, 8, 2),
        cache(4096, 4, 4),
        cache(32768, 8, 4),
        cache(2048, 4, 2),
    ];
    let cold = loop {
        let mut regs = pick(rng, &small, 1);
        regs.extend(pick(rng, &mid, 1));
        regs.extend(pick(rng, &large, 1));
        let spec = ExploreSpec {
            families: Family::ALL.to_vec(),
            total_regs: regs,
            line_sizes: pick(rng, &lines, 3),
            contexts: pick(rng, &contexts, 2),
            caches: pick(rng, &caches, 1),
            workloads: SEQ_PAPER.iter().map(|s| s.to_string()).collect(),
            scale: plan.scale,
        };
        // Nearly a third of the draws qualify.
        if spec.enumerate().len() == EXPLORE_CELL * SEQ_PAPER.len() {
            break spec;
        }
    };
    let mut warm = cold.clone();
    warm.line_sizes
        .push(pick_new(rng, &lines, &cold.line_sizes));
    warm.caches.push(pick_new(rng, &caches, &cold.caches));
    plan.programs = SEQ_PAPER
        .iter()
        .map(|n| Program::Paper(n, plan.scale))
        .collect();
    plan.explore = Some((cold, warm));
}

/// Sequential configurations shaped like the fig09, fig10, fig13, fig14
/// and table1 grids.
fn figure_configs() -> Vec<SimConfig> {
    let ctx = SEQ_CTX_REGS;
    vec![
        nsf_config(SEQ_FILE_REGS),
        segmented_config(4, ctx),
        segmented_valid_config(4, ctx),
        nsf_config(6 * u32::from(ctx)),
        segmented_config(6, ctx),
        segmented_software_config(6, ctx),
        nsf_lines_config(SEQ_FILE_REGS, 2, ReloadPolicy::WholeLine),
        nsf_lines_config(SEQ_FILE_REGS, 4, ReloadPolicy::ValidOnly),
    ]
}

/// The three sequential paper programs plus synthetic call trees, each
/// under 1–3 figure configurations.
fn plan_figure(plan: &mut Plan, rng: &mut StdRng) {
    let (synths, depths) = if plan.scale == 0 {
        (3, 5..=6)
    } else {
        (12, 10..=11)
    };
    plan.programs = SEQ_PAPER
        .iter()
        .map(|n| Program::Paper(n, plan.scale))
        .collect();
    for _ in 0..synths {
        plan.programs.push(Program::Seq(SeqParams {
            depth: rng.gen_range(depths.clone()),
            fanout: 2,
            locals: rng.gen_range(6..=12),
        }));
    }
    // The paper programs, the largest, run two configurations each so
    // the seed cannot swing the capture-to-replay mix much.
    let pool = figure_configs();
    let mut n = vec![2; SEQ_PAPER.len()];
    n.extend(counts(rng, synths, 1, 3));
    for (w, n) in n.into_iter().enumerate() {
        for cfg in pick(rng, &pool, n) {
            plan.points.push((w, cfg));
        }
    }
}

/// A synthetic parallel program of about `target` instructions: the
/// seed draws its shape and the iteration count absorbs the size.
fn par_params(rng: &mut StdRng, target: u32) -> ParParams {
    let threads: u32 = rng.gen_range(6..=10);
    let work: u32 = rng.gen_range(12..=30);
    ParParams {
        threads,
        iters: (target / (threads * (work + 6))).max(2),
        work,
        active_regs: rng.gen_range(12..=24),
    }
}

/// The six parallel paper programs plus synthetic parallel programs,
/// each under 2–4 configurations, plus the sequential paper programs at
/// issue widths 2 and 4 (the fig_pipeline shape).
fn plan_live(plan: &mut Plan, rng: &mut StdRng) {
    // Parallel programs are an order of magnitude shorter than the
    // sequential ones at the same scale; doubling theirs keeps each
    // near 0.1 M simulated instructions or more.
    let par_scale = 2 * plan.scale;
    let (synths, target) = if plan.scale == 0 {
        (3, 4_000)
    } else {
        (12, 75_000)
    };
    plan.programs = PAR_PAPER
        .iter()
        .map(|n| Program::Paper(n, par_scale))
        .collect();
    for _ in 0..synths {
        plan.programs.push(Program::Par(par_params(rng, target)));
    }
    let ctx = PAR_CTX_REGS;
    let par_pool = [
        nsf_config(PAR_FILE_REGS),
        nsf_config(96),
        segmented_config(4, ctx),
        segmented_software_config(4, ctx),
        segmented_valid_config(4, ctx),
        nsf_lines_config(PAR_FILE_REGS, 4, ReloadPolicy::WholeLine),
    ];
    let mut n = vec![3; PAR_PAPER.len()];
    n.extend(counts(rng, synths, 2, 4));
    for (w, n) in n.into_iter().enumerate() {
        for cfg in pick(rng, &par_pool, n) {
            plan.points.push((w, cfg));
        }
    }
    let seq_ctx = SEQ_CTX_REGS;
    let seq_pool = [
        nsf_config(6 * u32::from(seq_ctx)),
        segmented_config(6, seq_ctx),
        segmented_software_config(6, seq_ctx),
    ];
    for name in SEQ_PAPER {
        let w = plan.programs.len();
        plan.programs.push(Program::Paper(name, plan.scale));
        for width in [2, 4] {
            let mut cfg = seq_pool[rng.gen_range(0..seq_pool.len())];
            cfg.issue_width = width;
            cfg.read_ports = READ_PORTS;
            cfg.write_ports = WRITE_PORTS;
            plan.points.push((w, cfg));
        }
    }
}

/// Builds every program of `plan` into a sweep holding its points
/// (explore-fan's sweep holds the programs only: the explorer builds
/// its own copies by name).
pub fn build(plan: &Plan) -> Sweep {
    let mut sweep = Sweep::new();
    for p in &plan.programs {
        sweep.workload(p.build());
    }
    for &(w, cfg) in &plan.points {
        sweep.point(w, cfg);
    }
    sweep
}
