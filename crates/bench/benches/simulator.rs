//! Criterion benchmarks of the full pipeline: compiling a benchmark and
//! simulating it on each register file organization.

use criterion::{criterion_group, criterion_main, Criterion};
use nsf_bench::{nsf_config, segmented_config, segmented_software_config};
use nsf_sim::SimConfig;
use nsf_workloads::{gamteb, gatesim, quicksort, run};

fn bench_simulation(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulate");
    g.sample_size(20);
    let gs = gatesim::build(0);
    let qs = quicksort::build(0);
    for (tag, cfg) in [
        ("nsf", nsf_config(128)),
        ("segmented_hw", segmented_config(4, 32)),
        ("segmented_sw", segmented_software_config(4, 32)),
    ] {
        g.bench_function(format!("gatesim_{tag}"), |b| {
            b.iter(|| run(&gs, cfg).expect("validates"));
        });
        g.bench_function(format!("quicksort_{tag}"), |b| {
            b.iter(|| run(&qs, cfg).expect("validates"));
        });
    }
    g.finish();
}

fn bench_live(c: &mut Criterion) {
    // Points no capture can serve, so they always run on the live
    // interpreter: a fine-grain parallel program (many short threads, so
    // scheduling and thread switches weigh in) and a multi-issue frontend.
    let mut g = c.benchmark_group("live");
    g.sample_size(20);
    let gt = gamteb::build(0);
    for (tag, cfg) in [
        ("nsf", nsf_config(128)),
        ("segmented_hw", segmented_config(4, 32)),
    ] {
        g.bench_function(format!("gamteb_{tag}"), |b| {
            b.iter(|| run(&gt, cfg).expect("validates"));
        });
    }
    let gs = gatesim::build(0);
    let wide = SimConfig {
        issue_width: 2,
        read_ports: 3,
        write_ports: 2,
        ..nsf_config(80)
    };
    g.bench_function("gatesim_nsf_width2", |b| {
        b.iter(|| run(&gs, wide).expect("validates"));
    });
    g.finish();
}

fn bench_compile(c: &mut Criterion) {
    let mut g = c.benchmark_group("compile");
    g.sample_size(20);
    // `build` runs the whole front end: IR construction, liveness, graph
    // coloring, codegen, plus the Rust reference computation.
    g.bench_function("gatesim_build", |b| b.iter(|| gatesim::build(0)));
    g.bench_function("quicksort_build", |b| b.iter(|| quicksort::build(0)));
    g.finish();
}

fn bench_default_config(c: &mut Criterion) {
    // Guard against pathological slowdowns in the default setup.
    c.bench_function("default_simconfig_gatesim", |b| {
        let w = gatesim::build(0);
        b.iter(|| run(&w, SimConfig::default()).expect("validates"));
    });
}

criterion_group!(
    benches,
    bench_simulation,
    bench_live,
    bench_compile,
    bench_default_config
);
criterion_main!(benches);
