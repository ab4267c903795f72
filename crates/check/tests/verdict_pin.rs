//! Pins the differential checker's verdicts over the fuzz ranges CI
//! runs (`check_tool fuzz --family F --seed 0 --iters 100` for each of
//! the five families).
//!
//! Every verdict is folded into one FNV-1a-64 digest: for a clean run,
//! each lane's spec, its fifteen `RegFileStats` counters and the faults
//! it absorbed; for a divergence, its rendered text. The stream's
//! length and fault plan are folded in too. The digest does not depend
//! on how a stream is represented in memory, so it holds across a
//! change of the checker's op vocabulary and moves only when a verdict,
//! a counter or a generated stream does.

use nsf_check::{check_seed, Family, StreamConfig};
use nsf_trace::frame::Fnv64;

const SEEDS: std::ops::Range<u64> = 0..100;

fn str_word(h: &mut Fnv64, s: &str) {
    h.word(s.len() as u64);
    h.update(s.as_bytes());
}

fn verdict_digest() -> (u64, usize) {
    let cfg = StreamConfig::default();
    let mut h = Fnv64::new();
    let mut clean = 0;
    for family in Family::ALL {
        str_word(&mut h, &family.to_string());
        for seed in SEEDS {
            let (ops, plan, verdict) = check_seed(family, &cfg, seed);
            h.word(seed);
            h.word(ops.len() as u64);
            str_word(&mut h, &format!("{plan:?}"));
            match verdict {
                Ok(reports) => {
                    clean += 1;
                    h.word(reports.len() as u64);
                    for r in &reports {
                        str_word(&mut h, &r.spec);
                        for (_, v) in r.stats.fields() {
                            h.word(v);
                        }
                        h.word(r.faults_absorbed);
                    }
                }
                Err(d) => str_word(&mut h, &d.to_string()),
            }
        }
    }
    (h.finish(), clean)
}

#[test]
fn ci_fuzz_verdicts_are_pinned() {
    assert_eq!(verdict_digest(), (0x58a1_1664_53c6_c0be, 500));
}
