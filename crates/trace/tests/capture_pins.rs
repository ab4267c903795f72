//! Pins the `.nsftrace` bytes [`nsf_trace::capture`] produces over a
//! wider grid than the two golden files: every paper program at scale 0
//! under one engine of each family, the NSF at issue width 2, and a
//! 16-instruction scheduling quantum on the parallel programs.
//!
//! Each point pins the FNV-1a-64 of the trace's sealed payload — the
//! bytes between the `magic | version` header and the checksum trailer:
//! since format version 3, the frontend stream, the staged memory and
//! the run's report — and its event count. The pins therefore survive a change of the
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
    ("GateSim nsf:80", 0x8e7ecf78a504e70c, 15993),
    ("GateSim segmented:4x32", 0x01480a5ffbf4421b, 15993),
    ("GateSim segmented-sw:4x32", 0xc3752ee843ac8805, 15993),
    ("GateSim windowed:32", 0x2e5e381ab49ced2c, 15993),
    ("GateSim conventional:32", 0x888c3ae300dc6ee3, 15993),
    ("GateSim nsf:80 w2", 0xfc841920605fff47, 15993),
    ("RTLSim nsf:80", 0x2140a45078230a90, 16485),
    ("RTLSim segmented:4x32", 0xceeac15c01790026, 16485),
    ("RTLSim segmented-sw:4x32", 0xebeee090fc80ef39, 16485),
    ("RTLSim windowed:32", 0x8208e3f121784a30, 16485),
    ("RTLSim conventional:32", 0xfaa4ee17a23089a9, 16485),
    ("RTLSim nsf:80 w2", 0x90626b927dd6c4d7, 16485),
    ("ZipFile nsf:80", 0xf5d8aaae5709316c, 149504),
    ("ZipFile segmented:4x32", 0x82dcf17fb1eb7bbf, 149504),
    ("ZipFile segmented-sw:4x32", 0x11b49cdd049ba5cf, 149504),
    ("ZipFile windowed:32", 0x257f5033fba0770e, 149504),
    ("ZipFile conventional:32", 0x9e316346cfade262, 149504),
    ("ZipFile nsf:80 w2", 0x13109ee4a189d1c7, 149504),
    ("AS nsf:128", 0x4b01f465295a12ba, 7143),
    ("AS segmented:4x32", 0x024c743687ca7745, 7143),
    ("AS segmented-sw:4x32", 0xe8ef868086a7d149, 7143),
    ("AS windowed:32", 0x379428bc98ae051d, 7143),
    ("AS conventional:32", 0x88e4c43eca91ec20, 7143),
    ("AS nsf:128 w2", 0x577c439a07caa2ba, 7143),
    ("AS nsf:128 q16", 0x6062afc24e625502, 7339),
    ("DTW nsf:128", 0x2719f4d694010348, 11186),
    ("DTW segmented:4x32", 0xd7d6c90768430a3e, 11186),
    ("DTW segmented-sw:4x32", 0x6b5ae55da08c9369, 11186),
    ("DTW windowed:32", 0xaea262e327f45ec5, 11181),
    ("DTW conventional:32", 0xbafede39b40fbd74, 11181),
    ("DTW nsf:128 w2", 0x1343b318495731ad, 11186),
    ("DTW nsf:128 q16", 0x8d6b843cd86eef8d, 11426),
    ("Gamteb nsf:128", 0xdeb65a25a2e3b3da, 1570),
    ("Gamteb segmented:4x32", 0x68a13ebc3e8025d9, 1570),
    ("Gamteb segmented-sw:4x32", 0x8286e7cd965e4a1a, 1570),
    ("Gamteb windowed:32", 0x86dc3a21e5693e15, 1570),
    ("Gamteb conventional:32", 0xaa5fd17502c1991c, 1570),
    ("Gamteb nsf:128 w2", 0xbf5236e3944b4a3b, 1570),
    ("Gamteb nsf:128 q16", 0x731d01851dcad85c, 1591),
    ("Paraffins nsf:128", 0x58cb3836a2cd0168, 2285),
    ("Paraffins segmented:4x32", 0x289c757a99ce1bd8, 2285),
    ("Paraffins segmented-sw:4x32", 0x607ebe135077d5a6, 2285),
    ("Paraffins windowed:32", 0x694f79de656817ac, 2285),
    ("Paraffins conventional:32", 0x89dd7440782dcb29, 2285),
    ("Paraffins nsf:128 w2", 0x021be5767540fd14, 2285),
    ("Paraffins nsf:128 q16", 0x198994b8ef1c43e3, 2291),
    ("Quicksort nsf:128", 0xf339c0aa246ba8bd, 21081),
    ("Quicksort segmented:4x32", 0x15c8f3dedfc1440b, 21081),
    ("Quicksort segmented-sw:4x32", 0xabb41762d9a4c1be, 21081),
    ("Quicksort windowed:32", 0x8096417c4ca1f986, 21081),
    ("Quicksort conventional:32", 0xb4a41c3abc1d1347, 21081),
    ("Quicksort nsf:128 w2", 0xe195b1c72fd3cb58, 21081),
    ("Quicksort nsf:128 q16", 0xc691f1d80a8e2002, 21500),
    ("Wavefront nsf:128", 0x85b95b92c5deee26, 5914),
    ("Wavefront segmented:4x32", 0x158511ae4903a142, 5914),
    ("Wavefront segmented-sw:4x32", 0x5c4f543058584668, 5914),
    ("Wavefront windowed:32", 0xcdc06f6b953f8b2f, 5914),
    ("Wavefront conventional:32", 0xaf9bc256d250c00e, 5914),
    ("Wavefront nsf:128 w2", 0x0d270b85bd0d843f, 5914),
    ("Wavefront nsf:128 q16", 0xb3689219121b9917, 5924),
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
