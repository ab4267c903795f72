//! Pins the `.nsftrace` bytes [`nsf_trace::capture`] produces over a
//! wider grid than the two golden files: every paper program at scale 0
//! under one engine of each family, the NSF at issue width 2, and a
//! 16-instruction scheduling quantum on the parallel programs.
//!
//! Each point pins the FNV-1a-64 of the serialized trace and its event
//! count. Any change to workload generation, simulator op order, the
//! recording hook or the encoding moves a pin; if the change is
//! deliberate, print the new table from `observed()` and paste it.

use nsf_sim::SimConfig;
use nsf_trace::frame::fnv64;
use nsf_trace::{capture, default_engine_spec, parse_engine};

/// One engine per family; the NSF uses the program's default size.
const FAMILIES: [&str; 4] = [
    "segmented:4x32",
    "segmented-sw:4x32",
    "windowed:32",
    "conventional:32",
];

/// `(label, fnv64 of the trace bytes, event count)` for every point.
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
            out.push((
                format!("{} {label}", w.name),
                fnv64(&trace.to_bytes()),
                trace.events.len(),
            ));
        }
    }
    out
}

const PINS: &[(&str, u64, usize)] = &[
    ("GateSim nsf:80", 0x68b60e56848e859b, 15437),
    ("GateSim segmented:4x32", 0x9a1e7486ea127237, 15437),
    ("GateSim segmented-sw:4x32", 0xdac3641b2e41c14f, 15437),
    ("GateSim windowed:32", 0xfb0a256a2b8b5a24, 15437),
    ("GateSim conventional:32", 0x3c213ebc0e176add, 15437),
    ("GateSim nsf:80 w2", 0x525e934e9b96257c, 15437),
    ("RTLSim nsf:80", 0x2d765f5db82b9616, 15873),
    ("RTLSim segmented:4x32", 0x83152abdc817846c, 15873),
    ("RTLSim segmented-sw:4x32", 0x884a3a448d9f358b, 15873),
    ("RTLSim windowed:32", 0xfe6c959ec2132913, 15873),
    ("RTLSim conventional:32", 0xed9492d822b65084, 15873),
    ("RTLSim nsf:80 w2", 0xa86db4edfc3bc605, 15873),
    ("ZipFile nsf:80", 0xe8904f9824523fa9, 143726),
    ("ZipFile segmented:4x32", 0x1d0223dd3d54daf0, 143726),
    ("ZipFile segmented-sw:4x32", 0xb1fd7318394cfeb9, 143726),
    ("ZipFile windowed:32", 0xcc51cca4d2979a66, 143726),
    ("ZipFile conventional:32", 0x314c85fa05fae207, 143726),
    ("ZipFile nsf:80 w2", 0xa134b3a065e980dd, 143726),
    ("AS nsf:128", 0x171d866cefd56cb7, 6942),
    ("AS segmented:4x32", 0x0aa2ede748919e8f, 6942),
    ("AS segmented-sw:4x32", 0x2a4f665ab44b132f, 6942),
    ("AS windowed:32", 0xa8c6ffb35f1c709c, 6942),
    ("AS conventional:32", 0x86f28b44cb7c54f6, 6942),
    ("AS nsf:128 w2", 0xba40cf43f80133e8, 6942),
    ("AS nsf:128 q16", 0xf09bac3cc9f144ea, 7138),
    ("DTW nsf:128", 0xf3e7337a192472a4, 10892),
    ("DTW segmented:4x32", 0x4abacb3e796cd5b7, 10892),
    ("DTW segmented-sw:4x32", 0x0ac2ad90a35e8a1d, 10892),
    ("DTW windowed:32", 0xeeab405dccf1c971, 10887),
    ("DTW conventional:32", 0xf1e10ba12b192f68, 10887),
    ("DTW nsf:128 w2", 0xd03132635f9250c1, 10892),
    ("DTW nsf:128 q16", 0xca2aafbfdc057085, 11132),
    ("Gamteb nsf:128", 0xf0f756dbb7447e23, 1525),
    ("Gamteb segmented:4x32", 0x0473ccb329f84cd5, 1525),
    ("Gamteb segmented-sw:4x32", 0xedd3054cd2f73f94, 1525),
    ("Gamteb windowed:32", 0x3afb0eda49aeae44, 1525),
    ("Gamteb conventional:32", 0xaa88ec87284a1305, 1525),
    ("Gamteb nsf:128 w2", 0xd90c587e77e11d23, 1525),
    ("Gamteb nsf:128 q16", 0xf94974ef4ac382f1, 1546),
    ("Paraffins nsf:128", 0xcf1c894320253c76, 2220),
    ("Paraffins segmented:4x32", 0x1077bac1988d7082, 2220),
    ("Paraffins segmented-sw:4x32", 0x01fa8b071d730c6d, 2220),
    ("Paraffins windowed:32", 0x0934970926f791a6, 2220),
    ("Paraffins conventional:32", 0x4170b4c32b172876, 2220),
    ("Paraffins nsf:128 w2", 0xcf1c894320253c76, 2220),
    ("Paraffins nsf:128 q16", 0x72ac141ce43a2b26, 2226),
    ("Quicksort nsf:128", 0x797a242fb28dad54, 20495),
    ("Quicksort segmented:4x32", 0xceb6c03d6a0cf8f8, 20495),
    ("Quicksort segmented-sw:4x32", 0xd0b72fdadbf66150, 20495),
    ("Quicksort windowed:32", 0x2bb4304af3406188, 20495),
    ("Quicksort conventional:32", 0xf88f4a2030746be2, 20495),
    ("Quicksort nsf:128 w2", 0xcf3a860e9c566558, 20495),
    ("Quicksort nsf:128 q16", 0xa27d8a422d2e1585, 20914),
    ("Wavefront nsf:128", 0x13affb1b0ea74d25, 5759),
    ("Wavefront segmented:4x32", 0x68cfe916d88d73cc, 5759),
    ("Wavefront segmented-sw:4x32", 0xb19467de11c0dfed, 5759),
    ("Wavefront windowed:32", 0x37d6110aa78f63e0, 5759),
    ("Wavefront conventional:32", 0x9a3a598ebe60f209, 5759),
    ("Wavefront nsf:128 w2", 0xa10b386a93c9c932, 5759),
    ("Wavefront nsf:128 q16", 0x92bc912fe860d258, 5769),
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
