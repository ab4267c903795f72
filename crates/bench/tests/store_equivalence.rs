//! The persistent stream store's arm of the equivalence wall: for any
//! mix of engines over any thread budget, a sweep run store-cold,
//! store-warm, and with the store disabled must produce reports
//! **bit-identical** to the serial `Sweep::run(1)` reference — and a
//! damaged store entry must be rejected (typed, never a panic), fall
//! back to live capture, and heal the entry for the next run.

use nsf_bench::Sweep;
use nsf_sim::SimConfig;
use nsf_trace::{parse_engine, StreamStore};
use nsf_workloads::gatesim;
use proptest::prelude::*;
use std::path::PathBuf;

/// The five engine families the explorer sweeps, by spec-grammar name.
const FAMILIES: [&str; 5] = [
    "nsf:80",
    "segmented:4x20",
    "conventional:32",
    "windowed:20",
    "oracle",
];

fn config(family: usize, size_step: u32) -> SimConfig {
    // Distinct sizes per family keep repeated picks from collapsing to
    // trivially equal points.
    let spec = match family {
        0 => format!("nsf:{}", 64 + 8 * size_step),
        1 => format!("segmented:{}x20", 3 + size_step),
        2 => format!("conventional:{}", 24 + 8 * size_step),
        // A window must hold a full 20-register context.
        3 => format!("windowed:{}", 20 + 4 * size_step),
        _ => "oracle".to_string(),
    };
    SimConfig::with_regfile(parse_engine(&spec).unwrap())
}

fn sweep_of(picks: &[(usize, u32)]) -> Sweep {
    let mut s = Sweep::new();
    let w = s.workload(gatesim::build(0));
    for &(family, step) in picks {
        s.point(w, config(family % FAMILIES.len(), step % 3));
    }
    s
}

/// A proptest-case-unique scratch store directory.
fn scratch(tag: u64) -> PathBuf {
    std::env::temp_dir().join(format!("nsf-store-eq-{}-{tag:x}", std::process::id()))
}

proptest! {
    // Each case runs four full sweeps, so keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// cold ≡ warm ≡ disabled ≡ serial, over every engine family.
    #[test]
    fn store_cold_warm_and_disabled_agree(
        picks in proptest::collection::vec((0usize..5, 0u32..3), 1..8),
        threads in 1usize..3,
        tag in 0u64..u64::MAX,
    ) {
        let s = sweep_of(&picks);
        let serial = s.run(1);

        let disabled = s.run_stored(threads, None);
        prop_assert_eq!(&serial, &disabled, "store-disabled diverged");

        let dir = scratch(tag);
        let _ = std::fs::remove_dir_all(&dir);
        let store = StreamStore::open(dir.clone());
        let (cold, cold_stats) = s.run_stored_stats(threads, 0, Some(&store));
        prop_assert_eq!(&serial, &cold, "store-cold diverged");
        prop_assert_eq!(cold_stats.store_hits, 0);

        let (warm, warm_stats) = s.run_stored_stats(threads, 0, Some(&store));
        prop_assert_eq!(&serial, &warm, "store-warm diverged");
        prop_assert_eq!(
            warm_stats.store_misses, 0,
            "a freshly populated store must not miss"
        );
        prop_assert!(warm_stats.store_hits >= 1);
        prop_assert_eq!(warm_stats.store_served_points, picks.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A corrupted entry is detected by checksum, deleted, re-captured live
/// — and the reports never waver from the serial reference.
#[test]
fn corrupt_entry_falls_back_to_live_capture_and_heals() {
    let picks: Vec<(usize, u32)> = (0..5).map(|f| (f, 0)).collect();
    let s = sweep_of(&picks);
    let serial = s.run(1);

    let dir = scratch(0xc0_44_09);
    let _ = std::fs::remove_dir_all(&dir);
    let store = StreamStore::open(dir.clone());
    let (cold, _) = s.run_stored_stats(1, 0, Some(&store));
    assert_eq!(serial, cold);

    // Flip one byte in the middle of every saved entry.
    let mut entries = 0;
    for item in std::fs::read_dir(&dir).expect("store dir exists") {
        let path = item.unwrap().path();
        if path.extension().is_some_and(|e| e == "nsfs") {
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x10;
            std::fs::write(&path, &bytes).unwrap();
            entries += 1;
        }
    }
    assert!(entries >= 1, "the cold run saved nothing");

    // The wounded store rejects, recaptures, and still agrees ...
    let (healed, stats) = s.run_stored_stats(1, 0, Some(&store));
    assert_eq!(serial, healed, "corrupt store leaked into the reports");
    assert_eq!(
        stats.store_hits, 0,
        "a corrupt entry must not count as a hit"
    );
    assert!(stats.store_misses >= 1);

    // ... and the rewritten entries serve the next run.
    let (warm, warm_stats) = s.run_stored_stats(1, 0, Some(&store));
    assert_eq!(serial, warm);
    assert_eq!(warm_stats.store_misses, 0, "healed entries must hit");
    let _ = std::fs::remove_dir_all(&dir);
}
