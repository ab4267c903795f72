//! Pins the `.nsftrace` bytes [`nsf_trace::capture`] produces over a
//! wider grid than the two golden files: every paper program at scale 0
//! under one engine of each family, the NSF at issue width 2, and a
//! 16-instruction scheduling quantum on the parallel programs.
//!
//! Each point pins the FNV-1a-64 of the trace's sealed payload — the
//! bytes between the `magic | version` header and the checksum trailer
//! — and its event count. The pins therefore survive a change of the
//! seal's checksum or a version bump, but any change to workload
//! generation, simulator op order, the recording hook or the payload
//! encoding moves one; if the change is deliberate, print the new table
//! from `observed()` and paste it.

use nsf_sim::SimConfig;
use nsf_trace::frame::{fnv64, HEADER_LEN, SEAL_LEN};
use nsf_trace::{capture, default_engine_spec, parse_engine};

/// One engine per family; the NSF uses the program's default size.
const FAMILIES: [&str; 4] = [
    "segmented:4x32",
    "segmented-sw:4x32",
    "windowed:32",
    "conventional:32",
];

/// `(label, fnv64 of the sealed payload, event count)` for every point.
fn observed() -> Vec<(String, u64, usize)> {
    let mut out = Vec::new();
    for w in nsf_workloads::paper_suite(0) {
        let nsf = default_engine_spec(w.parallel);
        let base = |spec: &str| SimConfig::with_regfile(parse_engine(spec).unwrap());
        let mut points: Vec<(String, SimConfig, &str)> = std::iter::once(nsf)
            .chain(FAMILIES)
            .map(|spec| (spec.to_string(), base(spec), spec))
            .collect();
        points.push((
            format!("{nsf} w2"),
            SimConfig {
                issue_width: 2,
                ..base(nsf)
            },
            nsf,
        ));
        if w.parallel {
            points.push((
                format!("{nsf} q16"),
                SimConfig {
                    quantum: Some(16),
                    ..base(nsf)
                },
                nsf,
            ));
        }
        for (label, cfg, spec) in points {
            let (trace, _) = capture(&w, cfg, spec, 0)
                .unwrap_or_else(|e| panic!("{} {label}: capture failed: {e}", w.name));
            let bytes = trace.to_bytes();
            out.push((
                format!("{} {label}", w.name),
                fnv64(&bytes[HEADER_LEN..bytes.len() - SEAL_LEN]),
                trace.events.len(),
            ));
        }
    }
    out
}

const PINS: &[(&str, u64, usize)] = &[
    ("GateSim nsf:80", 0xe1f8708f024c857d, 15437),
    ("GateSim segmented:4x32", 0x8e7970ca74406f5f, 15437),
    ("GateSim segmented-sw:4x32", 0xa1c83b61c314bcff, 15437),
    ("GateSim windowed:32", 0xbcf07f37c32d399b, 15437),
    ("GateSim conventional:32", 0xaccb54e6b273f8b9, 15437),
    ("GateSim nsf:80 w2", 0x14bddbe6e72ba399, 15437),
    ("RTLSim nsf:80", 0xacdfabb039bab75f, 15873),
    ("RTLSim segmented:4x32", 0x5b455ebe85adcb63, 15873),
    ("RTLSim segmented-sw:4x32", 0x3b6ff7c211b7e4ac, 15873),
    ("RTLSim windowed:32", 0xf60dfc2a41e2c83d, 15873),
    ("RTLSim conventional:32", 0x812db8097cff986c, 15873),
    ("RTLSim nsf:80 w2", 0x9dcad522dd421fe2, 15873),
    ("ZipFile nsf:80", 0x667329ca1dbb7a68, 143726),
    ("ZipFile segmented:4x32", 0x996e3e94b7892290, 143726),
    ("ZipFile segmented-sw:4x32", 0x4924b2a57a30dd5f, 143726),
    ("ZipFile windowed:32", 0xa625ab8906a49d78, 143726),
    ("ZipFile conventional:32", 0x80cdcc9755822d96, 143726),
    ("ZipFile nsf:80 w2", 0x546b4283ceb99a50, 143726),
    ("AS nsf:128", 0x6eb930d25ac8c21c, 6942),
    ("AS segmented:4x32", 0x45da785dbac6bfb0, 6942),
    ("AS segmented-sw:4x32", 0x0484521510803ffe, 6942),
    ("AS windowed:32", 0x9f54f4bc9c189da7, 6942),
    ("AS conventional:32", 0x49439f919fcc4221, 6942),
    ("AS nsf:128 w2", 0xf95af8cceb173e10, 6942),
    ("AS nsf:128 q16", 0x8fa362b5fe183f61, 7138),
    ("DTW nsf:128", 0xfd0ac518b76f3cf2, 10892),
    ("DTW segmented:4x32", 0xbb7a62a076918e68, 10892),
    ("DTW segmented-sw:4x32", 0xa8ab53ec89739281, 10892),
    ("DTW windowed:32", 0x0cab7416934008bc, 10887),
    ("DTW conventional:32", 0xc9f63d2ef41b3181, 10887),
    ("DTW nsf:128 w2", 0xdde0f03ed1690df6, 10892),
    ("DTW nsf:128 q16", 0x31240f29bd219ff4, 11132),
    ("Gamteb nsf:128", 0x2e0e51b2715f8d78, 1525),
    ("Gamteb segmented:4x32", 0xdc79786284fbc3bf, 1525),
    ("Gamteb segmented-sw:4x32", 0xedcb5900610f993f, 1525),
    ("Gamteb windowed:32", 0x340f40613e8f9a88, 1525),
    ("Gamteb conventional:32", 0xd9e7a0226bd5d5d6, 1525),
    ("Gamteb nsf:128 w2", 0xdd5c4775471bc1e6, 1525),
    ("Gamteb nsf:128 q16", 0x7fbebdb7d2a66b6d, 1546),
    ("Paraffins nsf:128", 0x98e017101ef9cfbd, 2220),
    ("Paraffins segmented:4x32", 0x415c6df02dc7a4be, 2220),
    ("Paraffins segmented-sw:4x32", 0xc05613dce16b8f0d, 2220),
    ("Paraffins windowed:32", 0xa8642a9e3b023355, 2220),
    ("Paraffins conventional:32", 0x3700af3c95857a8d, 2220),
    ("Paraffins nsf:128 w2", 0x98e017101ef9cfbd, 2220),
    ("Paraffins nsf:128 q16", 0x3d371776f0165dea, 2226),
    ("Quicksort nsf:128", 0x235f9efc6ceb22ea, 20495),
    ("Quicksort segmented:4x32", 0x9cde85662868cbbe, 20495),
    ("Quicksort segmented-sw:4x32", 0x00192bf589ce6926, 20495),
    ("Quicksort windowed:32", 0x12920ef3f4caf6a6, 20495),
    ("Quicksort conventional:32", 0xfc28e7d520dc12c1, 20495),
    ("Quicksort nsf:128 w2", 0x23e83ba61cebda06, 20495),
    ("Quicksort nsf:128 q16", 0x9a23702739b3bffb, 20914),
    ("Wavefront nsf:128", 0x84279c87290f733a, 5759),
    ("Wavefront segmented:4x32", 0x76a123b8877355c0, 5759),
    ("Wavefront segmented-sw:4x32", 0x7edf66f5abc98cc0, 5759),
    ("Wavefront windowed:32", 0x27ace8d840444a65, 5759),
    ("Wavefront conventional:32", 0x1bc118ea3cfacc39, 5759),
    ("Wavefront nsf:128 w2", 0x5502393e2640b215, 5759),
    ("Wavefront nsf:128 q16", 0x4820c83343930f4b, 5769),
];

#[test]
fn capture_bytes_are_pinned() {
    let got = observed();
    let want: Vec<(String, u64, usize)> = PINS
        .iter()
        .map(|&(label, hash, events)| (label.to_string(), hash, events))
        .collect();
    assert_eq!(got.len(), want.len(), "pin table covers every point");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "capture drifted");
    }
}
