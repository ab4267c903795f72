//! Every paper program records to `.nsftrace` and replays from it.
//!
//! A trace is the frontend stream plus the workload's staged memory, so
//! replay checks every recorded read, load and atomic value. These
//! tests pin the three consequences: each program's same-engine replay
//! reproduces its live statistics exactly (the six parallel programs
//! included), each sequential program replays through the five engine
//! families the benchmark probes, and a trace stripped of its staged
//! memory stops with a typed divergence at an input load instead of
//! producing statistics.

use nsf_sim::{SimConfig, SimError};
use nsf_trace::TraceError;
use nsf_trace::{capture, default_engine_spec, parse_engine, replay, replay_events, Trace};

fn cfg(spec: &str) -> SimConfig {
    SimConfig::with_regfile(parse_engine(spec).expect("spec parses"))
}

/// Records `w` under its default engine and reads the trace back from
/// its own bytes.
fn recorded(w: &nsf_workloads::Workload) -> (Trace, nsf_sim::RunReport) {
    let spec = default_engine_spec(w.parallel);
    let (trace, live) = capture(w, cfg(spec), spec, 0).expect("live run validates");
    let back = Trace::from_bytes(&trace.to_bytes()).expect("own bytes decode");
    assert_eq!(back, trace, "{}: serialization round-trips", w.name);
    (back, live)
}

#[test]
fn every_paper_program_replays_its_live_stats_from_v3() {
    let suite = nsf_workloads::paper_suite(0);
    assert_eq!(suite.len(), 9);
    for w in &suite {
        let (trace, live) = recorded(w);
        assert_eq!(trace.report, live, "{}", w.name);
        let spec = default_engine_spec(w.parallel);
        let replayed = replay(&trace, &cfg(spec)).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(replayed.stats, live.regfile, "{} under {spec}", w.name);
        assert_eq!(replayed.events, trace.events.events);
    }
}

#[test]
fn sequential_programs_replay_through_the_probe_engines() {
    let probes = [
        "nsf:80",
        "segmented:4x20",
        "segmented-sw:4x20",
        "windowed:20",
        "conventional:20",
    ];
    for w in nsf_workloads::paper_suite(0).iter().filter(|w| !w.parallel) {
        let (trace, _) = capture(w, cfg(probes[0]), probes[0], 0).expect("records");
        for spec in probes {
            let r = replay_events(&trace.events, &cfg(spec))
                .unwrap_or_else(|e| panic!("{} through {spec}: {e}", w.name));
            assert!(r.stats.reads > 0, "{} through {spec}", w.name);
        }
    }
}

#[test]
fn stripped_staged_memory_diverges_at_an_input_load() {
    let w = nsf_workloads::zipfile::build(0);
    let (trace, _) = recorded(&w);
    assert!(!trace.events.mem_init.is_empty());
    let mut stripped = trace.events.clone();
    stripped.mem_init.clear();
    let err = replay_events(&stripped, &cfg("nsf:80")).unwrap_err();
    let TraceError::Stream(SimError::LaneDivergence { detail, .. }) = &err else {
        panic!("expected a lane divergence, got {err}");
    };
    // "cached replay of load 0x… (event N) read 0, live run recorded M"
    let addr = detail
        .strip_prefix("cached replay of load 0x")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
        .unwrap_or_else(|| panic!("not a load divergence: {detail}"));
    assert!(detail.contains(" read 0,"), "{detail}");
    let staged = trace.events.mem_init.iter().any(|(base, words)| {
        (u64::from(*base)..u64::from(*base) + words.len() as u64).contains(&u64::from(addr))
    });
    assert!(staged, "{addr:#x} is not a staged input word: {detail}");
}
