//! Pins every field of live `RunReport`s: an FNV-1a-64 digest of each
//! report's `Debug` rendering, per (program, configuration) point.
//!
//! The live interpreter's per-instruction path may be restructured for
//! speed, but every count, cycle and sample it reports must stay exactly
//! what it was. The points cover every paper program at scale 0 under
//! the NSF, segmented (hardware and software spill), windowed and
//! conventional organizations, plus multi-issue frontends, a scheduling
//! quantum, an instruction cache and three occupancy sampling intervals.
//! NSF files with multi-register lines (Fig. 13's geometry) cover the
//! decoder's line arithmetic: 8- and 16-register lines under each reload
//! policy for the sequential programs, whose 20-register contexts end in
//! a partial line, and 4-register lines for one parallel program.

use nsf::core::{ReloadPolicy, SpillEngine};
use nsf::mem::CacheConfig;
use nsf::sim::{RegFileSpec, RunReport, SimConfig};
use nsf::workloads::{self, run, Workload};
use nsf_bench::{
    nsf_config, nsf_lines_config, segmented_config, segmented_software_config, PAR_FILE_REGS,
    SEQ_FILE_REGS,
};

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(report: &RunReport) -> u64 {
    fnv1a64(format!("{report:?}").as_bytes())
}

/// The five organizations, sized for the program's grain.
fn organizations(w: &Workload) -> [(&'static str, SimConfig); 5] {
    let (nsf_regs, ctx) = if w.parallel { (128, 32) } else { (80, 20) };
    [
        ("nsf", nsf_config(nsf_regs)),
        ("seg-hw", segmented_config(4, ctx)),
        ("seg-sw", segmented_software_config(4, ctx)),
        (
            "windowed",
            SimConfig::with_regfile(RegFileSpec::sparc_windows(ctx)),
        ),
        (
            "conventional",
            SimConfig::with_regfile(RegFileSpec::Conventional {
                regs: ctx,
                engine: SpillEngine::hardware(),
            }),
        ),
    ]
}

/// Every pinned point of `suite`, labelled `program/variant`.
fn points(suite: &[Workload]) -> Vec<(String, &Workload, SimConfig)> {
    let mut out = Vec::new();
    for w in suite {
        let orgs = organizations(w);
        for (tag, cfg) in orgs {
            out.push((format!("{}/{tag}", w.name), w, cfg));
        }
        let (_, nsf) = orgs[0];
        let (_, seg) = orgs[1];
        for width in [2, 4] {
            for (tag, base) in [("nsf", nsf), ("seg-hw", seg)] {
                let cfg = SimConfig {
                    issue_width: width,
                    read_ports: 3,
                    write_ports: 2,
                    ..base
                };
                out.push((format!("{}/{tag}-w{width}", w.name), w, cfg));
            }
        }
        if w.parallel {
            for q in [16, 32] {
                let cfg = SimConfig {
                    quantum: Some(q),
                    ..nsf
                };
                out.push((format!("{}/nsf-q{q}", w.name), w, cfg));
            }
        }
        let icache = SimConfig {
            icache: Some(CacheConfig {
                capacity_words: 256,
                line_words: 4,
                ways: 2,
                hit_cycles: 1,
                miss_penalty: 12,
            }),
            ..seg
        };
        out.push((format!("{}/seg-hw-icache", w.name), w, icache));
        for interval in [0, 1, 7] {
            let cfg = SimConfig {
                sample_interval: interval,
                ..nsf
            };
            out.push((format!("{}/nsf-s{interval}", w.name), w, cfg));
        }
        let (regs, widths): (u32, &[u8]) = match (w.parallel, w.name) {
            (false, _) => (SEQ_FILE_REGS, &[8, 16]),
            (true, "Gamteb") => (PAR_FILE_REGS, &[4]),
            (true, _) => (PAR_FILE_REGS, &[]),
        };
        for &width in widths {
            for (tag, reload) in [
                ("whole", ReloadPolicy::WholeLine),
                ("valid", ReloadPolicy::ValidOnly),
                ("single", ReloadPolicy::SingleRegister),
            ] {
                let cfg = nsf_lines_config(regs, width, reload);
                out.push((format!("{}/nsf-l{width}-{tag}", w.name), w, cfg));
            }
        }
    }
    out
}

#[rustfmt::skip]
const PINS: &[(&str, u64)] = &[
    ("GateSim/nsf", 0xc1b23bcb73aad4c5),
    ("GateSim/seg-hw", 0x439458e237da1ca2),
    ("GateSim/seg-sw", 0x1a437bd342f07893),
    ("GateSim/windowed", 0x0631bcecdd101256),
    ("GateSim/conventional", 0x6a3ffa8c8503f3a5),
    ("GateSim/nsf-w2", 0x733281a4e9f226c6),
    ("GateSim/seg-hw-w2", 0x623515a619d1d7f7),
    ("GateSim/nsf-w4", 0xceead997b3fb6456),
    ("GateSim/seg-hw-w4", 0xefffa338156624b6),
    ("GateSim/seg-hw-icache", 0x95fcd5ada89c3793),
    ("GateSim/nsf-s0", 0xeeb6fc613475417f),
    ("GateSim/nsf-s1", 0xcd3a6a5c4caac14e),
    ("GateSim/nsf-s7", 0x203712c97d0f8e4d),
    ("GateSim/nsf-l8-whole", 0x9a7caa11a660500f),
    ("GateSim/nsf-l8-valid", 0x8320b940ff46dd6f),
    ("GateSim/nsf-l8-single", 0x8b51ff6006f9a5d6),
    ("GateSim/nsf-l16-whole", 0xad56596dc455018f),
    ("GateSim/nsf-l16-valid", 0x568ca42affe2041b),
    ("GateSim/nsf-l16-single", 0xc24a5654f5a32231),
    ("RTLSim/nsf", 0xefe9b1b68d69b137),
    ("RTLSim/seg-hw", 0x384dd823a2cc9d2f),
    ("RTLSim/seg-sw", 0xf50df0fc583692e5),
    ("RTLSim/windowed", 0xa8ba3f53b6589043),
    ("RTLSim/conventional", 0xfa514cc5d52f6990),
    ("RTLSim/nsf-w2", 0x04258d1f064f7ab3),
    ("RTLSim/seg-hw-w2", 0xe9d14d710608e1d5),
    ("RTLSim/nsf-w4", 0xc580697ecc82530e),
    ("RTLSim/seg-hw-w4", 0x1e8f59fc222be7fc),
    ("RTLSim/seg-hw-icache", 0x600784ae2f0dd565),
    ("RTLSim/nsf-s0", 0x10a5f827d4fdf2ef),
    ("RTLSim/nsf-s1", 0x3818790089263f81),
    ("RTLSim/nsf-s7", 0xbc077ebca05f5ab5),
    ("RTLSim/nsf-l8-whole", 0x78a1cefb80e6a144),
    ("RTLSim/nsf-l8-valid", 0xa23325a250de6015),
    ("RTLSim/nsf-l8-single", 0xb57eb69ed36c5eba),
    ("RTLSim/nsf-l16-whole", 0xc8183219906e3e2c),
    ("RTLSim/nsf-l16-valid", 0x52c857e9440ff2b7),
    ("RTLSim/nsf-l16-single", 0xc40d61d473cb5bf8),
    ("ZipFile/nsf", 0x8c5dd2a91fc1335c),
    ("ZipFile/seg-hw", 0x8ec09b33c3c745b4),
    ("ZipFile/seg-sw", 0x563684137fcc7a08),
    ("ZipFile/windowed", 0x2128a67339e1b8e7),
    ("ZipFile/conventional", 0x7b51ae6dde8085e0),
    ("ZipFile/nsf-w2", 0xcb194ec10acd3773),
    ("ZipFile/seg-hw-w2", 0x443ebe19906b967b),
    ("ZipFile/nsf-w4", 0xb526a63b5f0c2580),
    ("ZipFile/seg-hw-w4", 0x5afc226fe08fcd72),
    ("ZipFile/seg-hw-icache", 0x64f41c6bd466a9d4),
    ("ZipFile/nsf-s0", 0x08c5c3fbb619e0e2),
    ("ZipFile/nsf-s1", 0xbbc7ae3c2ea7b6d6),
    ("ZipFile/nsf-s7", 0x46c89cf5ffa64af8),
    ("ZipFile/nsf-l8-whole", 0x68eec179d9373cd3),
    ("ZipFile/nsf-l8-valid", 0x5e48fe3ea00de6c9),
    ("ZipFile/nsf-l8-single", 0x30d0abe55c856947),
    ("ZipFile/nsf-l16-whole", 0xc2ab95aff1e5f48e),
    ("ZipFile/nsf-l16-valid", 0x79d325d8282f7f59),
    ("ZipFile/nsf-l16-single", 0x92bc26beb1fad46c),
    ("AS/nsf", 0x4e48e249f6304367),
    ("AS/seg-hw", 0xa20c5d014c1eb488),
    ("AS/seg-sw", 0x4b78b376125d57ee),
    ("AS/windowed", 0x9e946f59ab37a6d9),
    ("AS/conventional", 0x8462ec3660d72462),
    ("AS/nsf-w2", 0x51d6a030cc2c9b87),
    ("AS/seg-hw-w2", 0x88bda7e1bedb3eb8),
    ("AS/nsf-w4", 0x1af1687be8f6d703),
    ("AS/seg-hw-w4", 0x4fe12f75b1bb4eb0),
    ("AS/nsf-q16", 0x943ead11a9dd5099),
    ("AS/nsf-q32", 0x53ced67061dc65ac),
    ("AS/seg-hw-icache", 0x0d3d14c11f0545e9),
    ("AS/nsf-s0", 0x9ec02891995a41f6),
    ("AS/nsf-s1", 0x29b9e7e63a19c7b5),
    ("AS/nsf-s7", 0x2b963ecb3f9d113c),
    ("DTW/nsf", 0x782a1c14577ee85a),
    ("DTW/seg-hw", 0x4bd0d4bc222f3f7a),
    ("DTW/seg-sw", 0x8bcdfe757141da6c),
    ("DTW/windowed", 0x82ea66341f452aa3),
    ("DTW/conventional", 0x87eb89af51d25899),
    ("DTW/nsf-w2", 0x5e8a7c3da321ed50),
    ("DTW/seg-hw-w2", 0x768f58d4d8673a23),
    ("DTW/nsf-w4", 0x2f0878e6d29a0ed1),
    ("DTW/seg-hw-w4", 0x645e1e4fd319f19c),
    ("DTW/nsf-q16", 0x9fe9e347cbbbf12b),
    ("DTW/nsf-q32", 0x30ba579d20666a21),
    ("DTW/seg-hw-icache", 0x5512d0a1e21b5568),
    ("DTW/nsf-s0", 0x5fe7baddb1ed0137),
    ("DTW/nsf-s1", 0x126e7d7b382fb87a),
    ("DTW/nsf-s7", 0x55b5c43dff787787),
    ("Gamteb/nsf", 0xd408a86e6b4758ab),
    ("Gamteb/seg-hw", 0xcd8393d8053f70a8),
    ("Gamteb/seg-sw", 0x044329508efad3dd),
    ("Gamteb/windowed", 0xc97d06eaca0a39b2),
    ("Gamteb/conventional", 0x4693335b6260f75b),
    ("Gamteb/nsf-w2", 0x92a674be14eeb7db),
    ("Gamteb/seg-hw-w2", 0x15c3c2d16a7784f0),
    ("Gamteb/nsf-w4", 0xa4b3c241944dc576),
    ("Gamteb/seg-hw-w4", 0x3910636bd7bd1e38),
    ("Gamteb/nsf-q16", 0x58c006fbccaac3c8),
    ("Gamteb/nsf-q32", 0x0f03b5208c13673c),
    ("Gamteb/seg-hw-icache", 0x27661c0e5906917e),
    ("Gamteb/nsf-s0", 0x05133f45cd86f6f9),
    ("Gamteb/nsf-s1", 0x73441f009396a103),
    ("Gamteb/nsf-s7", 0x2278be17567fb28a),
    ("Gamteb/nsf-l4-whole", 0xa417bf8bf1ff5551),
    ("Gamteb/nsf-l4-valid", 0x5f3fb3468d632613),
    ("Gamteb/nsf-l4-single", 0x0a7c1418523c8161),
    ("Paraffins/nsf", 0x10ace6075fbcd3c6),
    ("Paraffins/seg-hw", 0x3cecb85f13c4dc2e),
    ("Paraffins/seg-sw", 0x5046737d0a7a3391),
    ("Paraffins/windowed", 0x42589e583df1e544),
    ("Paraffins/conventional", 0x24277b3b81aa248f),
    ("Paraffins/nsf-w2", 0x6f19f1da158c8209),
    ("Paraffins/seg-hw-w2", 0xe0d4a03e41c621c5),
    ("Paraffins/nsf-w4", 0x6f19f1da158c8209),
    ("Paraffins/seg-hw-w4", 0xe0d4a03e41c621c5),
    ("Paraffins/nsf-q16", 0x66a5b4652ba383cb),
    ("Paraffins/nsf-q32", 0x10ace6075fbcd3c6),
    ("Paraffins/seg-hw-icache", 0xe4aa5a0f83bdf73b),
    ("Paraffins/nsf-s0", 0xe537ef021a5060f2),
    ("Paraffins/nsf-s1", 0x811af4ba055e2a8b),
    ("Paraffins/nsf-s7", 0xd0e1c664c20c5963),
    ("Quicksort/nsf", 0x669c55a95573927b),
    ("Quicksort/seg-hw", 0xd26fdc973ce7d12d),
    ("Quicksort/seg-sw", 0x91716d3f454ddd8c),
    ("Quicksort/windowed", 0x2e654cff9cdc3b84),
    ("Quicksort/conventional", 0x16701854c9d225c9),
    ("Quicksort/nsf-w2", 0x905ca76d2ba0a985),
    ("Quicksort/seg-hw-w2", 0x605e244475cdf8ef),
    ("Quicksort/nsf-w4", 0x508c859ddeb93045),
    ("Quicksort/seg-hw-w4", 0xff5245ed86a3bfe6),
    ("Quicksort/nsf-q16", 0xc63842ac2079f5e7),
    ("Quicksort/nsf-q32", 0xea2662a8f97fe17f),
    ("Quicksort/seg-hw-icache", 0x13ae5d1ed1a89503),
    ("Quicksort/nsf-s0", 0xe63e9acda1551616),
    ("Quicksort/nsf-s1", 0x1b0508fe551656f4),
    ("Quicksort/nsf-s7", 0x4348735c4a5879f7),
    ("Wavefront/nsf", 0xaa8a5d6815eec76b),
    ("Wavefront/seg-hw", 0x9a39c978c2413277),
    ("Wavefront/seg-sw", 0x3db4fb6deb002ba5),
    ("Wavefront/windowed", 0x3a2c2ff4250e50b2),
    ("Wavefront/conventional", 0xb83c88d8dbdac017),
    ("Wavefront/nsf-w2", 0x35bef0d1406efaa8),
    ("Wavefront/seg-hw-w2", 0x9f9c0e4f88b13b2c),
    ("Wavefront/nsf-w4", 0xb9ce6c56ec1ac9fc),
    ("Wavefront/seg-hw-w4", 0xe8f38b887cece024),
    ("Wavefront/nsf-q16", 0x310e6a72184e54c4),
    ("Wavefront/nsf-q32", 0x21230b35225333b4),
    ("Wavefront/seg-hw-icache", 0x19c25453798c6494),
    ("Wavefront/nsf-s0", 0x1b209540fe0c729c),
    ("Wavefront/nsf-s1", 0x52df72df0c40536f),
    ("Wavefront/nsf-s7", 0x37c37dc30e0a84ff),
];

#[test]
fn live_reports_are_pinned() {
    let mut got = Vec::new();
    let suite = workloads::paper_suite(0);
    for (label, w, cfg) in points(&suite) {
        let report = run(w, cfg).unwrap_or_else(|e| panic!("{label}: {e}"));
        got.push((label, digest(&report)));
    }
    let table: String = got
        .iter()
        .map(|(l, d)| format!("    ({l:?}, {d:#018x}),\n"))
        .collect();
    let want: Vec<(String, u64)> = PINS.iter().map(|&(l, d)| (l.to_string(), d)).collect();
    assert_eq!(got, want, "live reports moved; current digests:\n{table}");
}
