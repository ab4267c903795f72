//! The benchmark's self-test, at scale 0: every metric `BENCHMARK.json`
//! names is printed with its unit on every workload, nothing fails,
//! the generator is a pure function of the seed, the measured routing
//! has each workload's intended split, and a perturbed reference is
//! caught.

use nsf_simbench::exec::{run_pass, Inputs, Output, Pass, Reference, Route, Scratch};
use nsf_simbench::gen::{self, Kind};
use nsf_simbench::{run, RunConfig, MIN_LAYER_SUM_FRAC};
use std::path::PathBuf;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn scratch_root(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("simbench-{tag}"))
}

fn config(kind: Kind, trace: bool) -> RunConfig {
    RunConfig {
        kind,
        seed: 11,
        scale: 0,
        seconds: 0.0,
        trace,
        root: scratch_root(&format!("{}-{trace}", kind.name())),
    }
}

fn check_metrics(trace: bool, section: &str) {
    let want = declared(section);
    assert!(!want.is_empty(), "{section} declares metrics");
    for kind in Kind::ALL {
        let r = run(&config(kind, trace));
        let got: Vec<(String, String)> = r
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect();
        assert_eq!(got, want, "{} {section}", kind.name());
        for m in &r.metrics {
            assert!(m.value.is_finite(), "{} {}", kind.name(), m.name);
            let line = format!("metric {} {} {}", m.name, m.value, m.unit);
            assert!(r.lines.contains(&line), "{} prints {line}", kind.name());
        }
        assert!(r.correct, "{}: {:?}", kind.name(), r.lines);
        assert_eq!(r.failed, 0, "{} failed_frac is 0", kind.name());
        assert!(r.attempted > 0);
        assert!(
            r.lines.iter().any(|l| l.starts_with("manifest routed ")),
            "{} prints its measured routing",
            kind.name()
        );
        if trace {
            let sum = r
                .metrics
                .iter()
                .find(|m| m.name == "bench.layer_sum_frac")
                .expect("traced runs report bench.layer_sum_frac");
            assert!(
                sum.value >= MIN_LAYER_SUM_FRAC,
                "{}: layer_sum_frac {}",
                kind.name(),
                sum.value
            );
        }
    }
}

#[test]
fn every_end_to_end_metric_is_printed_and_nothing_fails() {
    check_metrics(false, "end_to_end");
}

#[test]
fn every_per_layer_metric_is_printed_and_the_trace_matches() {
    check_metrics(true, "per_layer");
}

#[test]
fn generator_is_a_pure_function_of_the_seed() {
    for kind in Kind::ALL {
        let a = format!("{:?}", gen::plan(kind, 5, 1));
        assert_eq!(a, format!("{:?}", gen::plan(kind, 5, 1)), "{}", kind.name());
        assert_ne!(a, format!("{:?}", gen::plan(kind, 6, 1)), "{}", kind.name());
    }
}

#[test]
fn workloads_have_the_intended_shape() {
    for seed in 0..20 {
        let (cold, warm) = gen::plan(Kind::ExploreFan, seed, 1)
            .explore
            .expect("explore-fan explores");
        // Every (workload, cache) cell is one frontend group at least
        // as wide as the runner's capture threshold, and every cold
        // cell is equally wide.
        assert_eq!(cold.enumerate().len(), 60, "seed {seed}");
        for spec in [&cold, &warm] {
            let points = spec.enumerate();
            for w in 0..spec.workloads.len() {
                for c in &spec.caches {
                    let cell = points
                        .iter()
                        .filter(|p| p.workload == w && p.cache == *c)
                        .count();
                    assert!(
                        cell >= nsf_bench::Sweep::MIN_CAPTURE_GROUP,
                        "seed {seed}: {cell}"
                    );
                }
            }
        }
        let narrow = gen::build(&gen::plan(Kind::FigureNarrow, seed, 0));
        assert!(narrow.frontend_groups().iter().all(|g| g.len() <= 3));
        let live = gen::build(&gen::plan(Kind::LiveOnly, seed, 0));
        for g in live.frontend_groups() {
            let p = live.points[g[0]];
            let w = &live.workloads[p.workload];
            assert!(
                w.parallel || p.cfg.issue_width > 1,
                "seed {seed}: capturable point"
            );
        }
    }
}

fn inputs(kind: Kind) -> Inputs {
    let plan = gen::plan(kind, 3, 0);
    let sweep = gen::build(&plan);
    Inputs { plan, sweep }
}

#[test]
fn routing_is_measured_and_has_the_intended_split() {
    let scratch = Scratch::new(scratch_root("routing"));
    let passes = |inputs: &Inputs| {
        scratch.wipe();
        let reference = Reference::compute(inputs, &scratch);
        let routes = Pass::BOTH.map(|pass| {
            let (_, out, route) = run_pass(inputs, pass, &scratch);
            assert_eq!(reference.failures(pass, &out), 0);
            route
        });
        (reference, routes)
    };

    let fan = inputs(Kind::ExploreFan);
    let (reference, [cold, warm]) = passes(&fan);
    let points = reference.points(Pass::Cold) as u64;
    assert!(cold.replayed * 10 > points * 9, "{cold:?} of {points}");
    assert_eq!(cold.memoized, 0);
    assert_eq!(warm.memoized, points, "every cold point hits the memo");
    assert!(warm.captured > 0, "the widened spec's new cache captures");

    let narrow = inputs(Kind::FigureNarrow);
    let (reference, [cold, warm]) = passes(&narrow);
    let groups = narrow.sweep.frontend_groups().len() as u64;
    // A group whose frontend an earlier group already captured hits the
    // store even cold.
    assert!(cold.captured > 0);
    assert_eq!(
        cold.captured + cold.store_hits.expect("sweeps report hits"),
        groups
    );
    assert_eq!(warm.store_hits, Some(groups));
    assert_eq!(warm.captured, 0);
    assert_eq!(warm.replayed, reference.points(Pass::Warm) as u64);

    let live = inputs(Kind::LiveOnly);
    let (_, routes) = passes(&live);
    for r in routes {
        assert_eq!(
            r,
            Route {
                store_hits: Some(0),
                ..Route::default()
            }
        );
    }
    assert_eq!(scratch.bytes(), 0, "live-only leaves no store bytes");
    scratch.wipe();
}

#[test]
fn a_perturbed_reference_counts_as_failed() {
    let narrow = inputs(Kind::FigureNarrow);
    let scratch = Scratch::new(scratch_root("perturbed"));
    let mut reference = Reference::compute(&narrow, &scratch);
    let (_, out, _) = run_pass(&narrow, Pass::Cold, &scratch);
    assert_eq!(reference.failures(Pass::Cold, &out), 0);
    if let Reference::Sweep(reports) = &mut reference {
        reports[0].cycles += 1;
    }
    assert_eq!(reference.failures(Pass::Cold, &out), 1);
    assert_eq!(
        reference.failures(Pass::Cold, &Output::Failed("panic".into())),
        narrow.sweep.points.len()
    );

    let fan = inputs(Kind::ExploreFan);
    let mut reference = Reference::compute(&fan, &scratch);
    let (_, out, _) = run_pass(&fan, Pass::Cold, &scratch);
    assert_eq!(reference.failures(Pass::Cold, &out), 0);
    if let Reference::Explore(cold, _) = &mut reference {
        cold.records[0].cycles += 1;
        cold.ledger.push(0);
    }
    assert_eq!(reference.failures(Pass::Cold, &out), 1);
    scratch.wipe();
}
