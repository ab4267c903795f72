//! Property tests of the data-cache timing model.

use nsf_mem::{Cache, CacheConfig};
use proptest::prelude::*;

fn small_cache() -> Cache {
    Cache::new(CacheConfig {
        capacity_words: 64,
        line_words: 4,
        ways: 2,
        hit_cycles: 1,
        miss_penalty: 10,
    })
}

fn arb_accesses() -> impl Strategy<Value = Vec<(u32, bool)>> {
    proptest::collection::vec((0u32..256, any::<bool>()), 1..300)
}

proptest! {
    /// hits + misses always equals accesses; writebacks never exceed
    /// misses (only an evicted fill can be dirty).
    #[test]
    fn stats_invariants(ops in arb_accesses()) {
        let mut c = small_cache();
        for (addr, write) in ops {
            c.access(addr, write);
        }
        let s = c.stats();
        prop_assert_eq!(s.hits + s.misses, s.accesses);
        prop_assert!(s.writebacks <= s.misses);
        prop_assert!((0.0..=1.0).contains(&s.miss_ratio()));
    }

    /// Immediately re-accessing the same address always hits at the hit
    /// latency (temporal locality is never punished).
    #[test]
    fn back_to_back_hits(ops in arb_accesses()) {
        let mut c = small_cache();
        for (addr, write) in ops {
            c.access(addr, write);
            prop_assert_eq!(c.access(addr, false), 1, "address {}", addr);
        }
    }

    /// Latencies only take the three architecturally possible values:
    /// hit, miss-fill, miss-fill + writeback.
    #[test]
    fn latency_values_are_structural(ops in arb_accesses()) {
        let mut c = small_cache();
        for (addr, write) in ops {
            let cycles = c.access(addr, write);
            prop_assert!(
                cycles == 1 || cycles == 11 || cycles == 21,
                "unexpected latency {cycles}"
            );
        }
    }

    /// A working set no larger than one set's associativity never
    /// conflicts: after the first touch, everything hits forever.
    #[test]
    fn within_associativity_no_thrash(rounds in 1usize..10) {
        let mut c = small_cache();
        // Two lines in the same set (set count = 8): line addrs 0 and 8.
        let a = 0u32;
        let b = 8 * 4;
        c.access(a, false);
        c.access(b, false);
        for _ in 0..rounds {
            prop_assert_eq!(c.access(a, false), 1);
            prop_assert_eq!(c.access(b, false), 1);
        }
    }

    /// The model is deterministic: same access string, same stats.
    #[test]
    fn deterministic(ops in arb_accesses()) {
        let run = |ops: &[(u32, bool)]| {
            let mut c = small_cache();
            let cycles: Vec<u32> = ops.iter().map(|&(a, w)| c.access(a, w)).collect();
            (cycles, c.stats())
        };
        prop_assert_eq!(run(&ops), run(&ops));
    }
}

/// One step of a mixed access stream: a single access, or a run of
/// `len` consecutive words from `offset`, each as a load or a store.
#[derive(Clone, Debug)]
enum Step {
    Single(u32, bool),
    Run(u32, u32, bool),
}

fn arb_geometry() -> impl Strategy<Value = CacheConfig> {
    (0u32..5, 0u32..4, 1u32..5, 1u32..4, 1u32..30).prop_map(
        |(line_log, sets_log, ways, hit_cycles, miss_penalty)| {
            let line_words = 1 << line_log;
            CacheConfig {
                capacity_words: line_words * (1 << sets_log) * ways,
                line_words,
                ways,
                hit_cycles,
                miss_penalty,
            }
        },
    )
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    let step = prop_oneof![
        (0u32..96, any::<bool>()).prop_map(|(o, w)| Step::Single(o, w)),
        (0u32..96, 0u32..40, any::<bool>()).prop_map(|(o, n, w)| Step::Run(o, n, w)),
    ];
    proptest::collection::vec(step, 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `access_run` is exactly a per-word `access` loop: the same
    /// latency for every word, the same statistics, and the same LRU and
    /// dirty state afterwards — checked by sweeping both caches with a
    /// conflict-heavy probe whose latencies expose the eviction order
    /// and pending writebacks. Runs start anywhere, so they cross line
    /// and set boundaries, and the bases put some across a
    /// memory page and across the top of the address space.
    #[test]
    fn access_run_matches_word_accesses(
        cfg in arb_geometry(),
        steps in arb_steps(),
        base in proptest::sample::select(vec![0u32, 0xFFD0, 0x4000_0000, u32::MAX - 40]),
    ) {
        let mut runs = Cache::new(cfg);
        let mut words = Cache::new(cfg);
        for step in &steps {
            match *step {
                Step::Single(o, w) => {
                    let a = base.wrapping_add(o);
                    prop_assert_eq!(runs.access(a, w), words.access(a, w));
                }
                Step::Run(o, n, w) => {
                    let a = base.wrapping_add(o);
                    let mut got = vec![0; n as usize];
                    runs.access_run(a, w, &mut got);
                    let want: Vec<u32> =
                        (0..n).map(|k| words.access(a.wrapping_add(k), w)).collect();
                    prop_assert_eq!(got, want, "run of {} at {:#x}", n, a);
                }
            }
            prop_assert_eq!(runs.stats(), words.stats());
        }
        let probe = 3 * cfg.capacity_words;
        for k in (0..probe).step_by(cfg.line_words as usize) {
            let a = base.wrapping_add(k);
            prop_assert_eq!(runs.access(a, false), words.access(a, false), "probe {:#x}", a);
        }
        prop_assert_eq!(runs.stats(), words.stats());
    }
}
