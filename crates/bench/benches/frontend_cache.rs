//! Criterion group `frontend_cache`: capture-and-replay against live
//! simulation on a figure-style configuration fan — one workload, N
//! frontend-identical engine configurations. `capture_replay_{N}cfg`
//! measures the whole cached group (one live capture plus N - 1
//! replayed lanes) and `live_{N}cfg` the same N points run live, one
//! machine each, on gatesim at scale 1 (the evaluation size: at scale 0
//! fixed per-point costs swamp the frontend). The smallest N where the
//! first beats the second is the runner's `Sweep::MIN_CAPTURE_GROUP`.
//! `replay_only_8cfg` isolates the replay engine at scale 0 by reusing a
//! pre-captured buffer, which is the marginal cost of every grid point
//! after the first.
//!
//! Group `replay_kernel` times replay alone (no capture) on two stream
//! shapes: a register-hit-heavy stream (gatesim) and a context-switch-
//! heavy one (rtlsim), each replayed into one lane and into an
//! explorer-style fan of 19 lanes over all six engine families.

use criterion::{criterion_group, criterion_main, Criterion};
use nsf_bench::nsf_config;
use nsf_sim::{parse_engine, SimConfig};
use nsf_trace::{capture_frontend, replay_frontend};
use nsf_workloads::{gatesim, rtlsim, run};

fn bench_frontend_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("frontend_cache");
    g.sample_size(10);
    // A Figure-12-style size fan: NSF capacities, shared frontend.
    let cfgs: Vec<SimConfig> = (0..16u32).map(|i| nsf_config(48 + 16 * i)).collect();

    let eval = gatesim::build(1);
    for n in [2, 3, 4, 8, 16] {
        let fan = &cfgs[..n];
        g.bench_function(format!("live_{n}cfg"), |b| {
            b.iter(|| {
                fan.iter()
                    .map(|&cfg| run(&eval, cfg).expect("validates"))
                    .collect::<Vec<_>>()
            })
        });
        g.bench_function(format!("capture_replay_{n}cfg"), |b| {
            b.iter(|| {
                let buf = capture_frontend(&eval, fan[0]).expect("captures");
                let mut reports = vec![buf.report.clone()];
                reports.extend(replay_frontend(&buf, &eval, &fan[1..]).expect("replays"));
                reports
            })
        });
    }
    let w = gatesim::build(0);
    let buf = capture_frontend(&w, cfgs[0]).expect("captures");
    g.bench_function("replay_only_8cfg", |b| {
        b.iter(|| replay_frontend(&buf, &w, &cfgs[..8]).expect("replays"))
    });
    g.finish();
}

/// An explorer-style cell: 19 engines over the six swept families
/// (NSF, segmented with hardware, software and valid-bit transfers,
/// windowed, conventional), each holding a 20-register context.
const FAN_19: [&str; 19] = [
    "nsf:48",
    "nsf:64",
    "nsf:80",
    "nsf:64x2",
    "nsf:80x2",
    "nsf:80x4",
    "segmented:2x20",
    "segmented:3x20",
    "segmented:4x20",
    "segmented-sw:2x20",
    "segmented-sw:3x20",
    "segmented-sw:4x20",
    "segmented-valid:2x20",
    "segmented-valid:3x20",
    "segmented-valid:4x20",
    "windowed:20",
    "windowed:32",
    "conventional:20",
    "conventional:32",
];

fn bench_replay_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("replay_kernel");
    g.sample_size(10);
    let fan: Vec<SimConfig> = FAN_19
        .iter()
        .map(|s| SimConfig::with_regfile(parse_engine(s).expect("valid engine spec")))
        .collect();
    for (name, w) in [("gatesim", gatesim::build(0)), ("rtlsim", rtlsim::build(0))] {
        let buf = capture_frontend(&w, fan[0]).expect("captures");
        for lanes in [1, fan.len()] {
            g.bench_function(format!("{name}_{lanes}lane"), |b| {
                b.iter(|| replay_frontend(&buf, &w, &fan[..lanes]).expect("replays"))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_frontend_cache, bench_replay_kernel);
criterion_main!(benches);
