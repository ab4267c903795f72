//! Design-space ablations beyond the paper's figures (DESIGN.md §6):
//! replacement policy, write-miss policy, register pressure, switch
//! quantum, and explicit deallocation hints.

use super::rule;
use crate::runner::{Cursor, Sweep};
use crate::{aggregate, nsf_config, pct, segmented_config, PAR_CTX_REGS};
use nsf_core::{NsfConfig, ReplacementPolicy, WriteMissPolicy};
use nsf_sim::{RegFileSpec, RunReport, SimConfig};
use nsf_workloads::synth::{parallel, ParParams};
use std::fmt::Write;

/// Ablation 1's replacement policies, in output order.
const POLICIES: [(&str, ReplacementPolicy); 3] = [
    ("LRU", ReplacementPolicy::Lru),
    ("FIFO", ReplacementPolicy::Fifo),
    ("Random", ReplacementPolicy::Random { seed: 42 }),
];
/// Ablation 2's write-miss policies, in output order.
const WRITE_MISS: [(&str, WriteMissPolicy); 2] = [
    ("Write-allocate", WriteMissPolicy::WriteAllocate),
    ("Fetch-on-write", WriteMissPolicy::FetchOnWrite),
];
/// Ablation 3's active-register counts per synthetic thread.
const ACTIVE_REGS: [u8; 7] = [4, 8, 12, 16, 20, 24, 28];
/// Ablation 4's switch quanta (`None` = block multithreading).
const QUANTA: [Option<u64>; 4] = [None, Some(256), Some(64), Some(16)];
/// Ablation 5's NSF sizes.
pub(crate) const HINT_REGS: [u32; 3] = [40, 60, 80];

fn nsf_with(replacement: ReplacementPolicy, write_miss: WriteMissPolicy, total: u32) -> SimConfig {
    let mut cfg = NsfConfig::paper_default(total);
    cfg.replacement = replacement;
    cfg.write_miss = write_miss;
    SimConfig::with_regfile(RegFileSpec::Nsf(cfg))
}

/// All five ablation studies as one sweep.
pub fn grid(scale: u32) -> Sweep {
    let mut s = Sweep::new();
    let suite = s.suite(nsf_workloads::parallel_suite(scale));

    // 1. Replacement policy over the parallel suite.
    for (_, policy) in POLICIES {
        for &w in &suite {
            s.point(w, nsf_with(policy, WriteMissPolicy::WriteAllocate, 128));
        }
    }
    // 2. Write-miss policy over the parallel suite.
    for (_, wm) in WRITE_MISS {
        for &w in &suite {
            s.point(w, nsf_with(ReplacementPolicy::Lru, wm, 128));
        }
    }
    // 3. Register pressure: synthetic threads with varying active sets.
    for active in ACTIVE_REGS {
        let w = s.workload(parallel(ParParams {
            threads: 16,
            iters: 24,
            work: 30,
            active_regs: active,
        }));
        s.point(w, nsf_config(128));
        s.point(w, segmented_config(4, PAR_CTX_REGS));
    }
    // 4. Block vs interleaved multithreading (one workload, four quanta).
    let w = s.workload(parallel(ParParams {
        threads: 8,
        iters: 6,
        work: 200,
        active_regs: 12,
    }));
    for quantum in QUANTA {
        let mut nsf_cfg = nsf_config(128);
        nsf_cfg.quantum = quantum;
        let mut seg_cfg = segmented_config(4, PAR_CTX_REGS);
        seg_cfg.quantum = quantum;
        s.point(w, nsf_cfg);
        s.point(w, seg_cfg);
    }
    // 5. Deallocation hints: both GateSim variants, three NSF sizes.
    let plain = s.workload(nsf_workloads::gatesim::build_with_hints(scale, false));
    let hinted = s.workload(nsf_workloads::gatesim::build_with_hints(scale, true));
    for regs in HINT_REGS {
        s.point(plain, nsf_config(regs));
        s.point(hinted, nsf_config(regs));
    }
    s
}

/// The five ablation tables.
pub fn render(_scale: u32, sweep: &Sweep, reports: &[RunReport], quiet: bool) -> String {
    let suite_len = sweep
        .workloads
        .iter()
        .filter(|w| !w.name.starts_with("Synth") && w.parallel)
        .count();
    let mut out = String::new();
    let mut c = Cursor::new(reports);

    writeln!(
        out,
        "Ablation 1: NSF replacement policy (parallel suite, 128 regs)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<12} {:>12} {:>14}",
        "Policy", "Reloads/instr", "Spill cycles"
    )
    .unwrap();
    rule(&mut out, 40);
    for (name, _) in POLICIES {
        let agg = aggregate(c.take(suite_len));
        writeln!(
            out,
            "{:<12} {:>12} {:>14}",
            name,
            pct(agg.reloads_per_instr()),
            agg.regfile.spill_reload_cycles,
        )
        .unwrap();
    }

    writeln!(
        out,
        "\nAblation 2: NSF write-miss policy (parallel suite, 128 regs)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<16} {:>12} {:>14}",
        "Policy", "Reloads/instr", "Regs reloaded"
    )
    .unwrap();
    rule(&mut out, 44);
    for (name, _) in WRITE_MISS {
        let agg = aggregate(c.take(suite_len));
        writeln!(
            out,
            "{:<16} {:>12} {:>14}",
            name,
            pct(agg.reloads_per_instr()),
            agg.regfile.regs_reloaded,
        )
        .unwrap();
    }

    writeln!(
        out,
        "\nAblation 3: active registers per thread (synthetic, 16 threads)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<14} {:>12} {:>16} {:>10}",
        "Active regs", "NSF rel/i", "Segment rel/i", "Advantage"
    )
    .unwrap();
    rule(&mut out, 56);
    for active in ACTIVE_REGS {
        let nsf = c.next();
        let seg = c.next();
        let adv = if nsf.reloads_per_instr() > 0.0 {
            format!("{:.1}x", seg.reloads_per_instr() / nsf.reloads_per_instr())
        } else {
            "inf".to_owned()
        };
        writeln!(
            out,
            "{:<14} {:>12} {:>16} {:>10}",
            active,
            pct(nsf.reloads_per_instr()),
            pct(seg.reloads_per_instr()),
            adv,
        )
        .unwrap();
    }
    rule(&mut out, 56);
    if !quiet {
        out.push_str("The segmented file always moves whole 32-register frames; the NSF\n");
        out.push_str("moves only what threads touch, so its advantage peaks when contexts\n");
        out.push_str("are sparse and shrinks as threads fill their frames.\n");
    }

    writeln!(out, "\nAblation 4: block vs interleaved multithreading").unwrap();
    writeln!(
        out,
        "(8 compute threads on a 4-frame file / 128-register NSF)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<14} {:>14} {:>16} {:>14}",
        "Quantum", "NSF overhead", "Segment overhead", "Switches"
    )
    .unwrap();
    rule(&mut out, 62);
    for quantum in QUANTA {
        let nsf = c.next();
        let seg = c.next();
        writeln!(
            out,
            "{:<14} {:>14} {:>16} {:>14}",
            quantum.map_or("block".to_owned(), |q| format!("{q} instr")),
            pct(nsf.spill_overhead()),
            pct(seg.spill_overhead()),
            seg.thread_switches,
        )
        .unwrap();
    }
    rule(&mut out, 62);
    if !quiet {
        out.push_str("Finer interleaving multiplies frame traffic on the segmented file;\n");
        out.push_str("the NSF's demand misses barely notice (paper \u{00a7}3: its techniques\n");
        out.push_str("apply to both forms of multithreading).\n");
    }

    writeln!(
        out,
        "\nAblation 5: explicit register deallocation hints (paper \u{00a7}4.2)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<14} {:>10} {:>12} {:>12} {:>12}",
        "NSF regs", "Hints", "Reloads", "Spills", "Cycles"
    )
    .unwrap();
    rule(&mut out, 64);
    for regs in HINT_REGS {
        for hints in [false, true] {
            let r = c.next();
            writeln!(
                out,
                "{:<14} {:>10} {:>12} {:>12} {:>12}",
                regs,
                if hints { "rfree" } else { "none" },
                r.regfile.regs_reloaded,
                r.regfile.regs_spilled,
                r.cycles,
            )
            .unwrap();
        }
    }
    c.finish();
    rule(&mut out, 64);
    if !quiet {
        out.push_str("Freeing a register at its last use lets a small NSF drop dead values\n");
        out.push_str("instead of spilling them — \"the NSF can explicitly deallocate a single\n");
        out.push_str("register after it is no longer needed\".\n");
    }
    out
}
