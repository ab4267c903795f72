//! Boundary audit of `Sweep`'s two execution routes. A store-less
//! frontend group of width `n` must land on exactly the documented path:
//!
//! - `n < MIN_CAPTURE_GROUP` — every point runs live on its own machine;
//! - `n >= MIN_CAPTURE_GROUP` — capture the first point's frontend
//!   event stream, replay the remaining `n - 1`.
//!
//! With a persistent store every capturable group captures (cold) or
//! replays (warm), whatever its width. Every width is also held to the
//! equivalence wall: reports must be bit-identical to the serial
//! `Sweep::run(1)` reference, in submission order.

use nsf_bench::{nsf_config, Sweep, SEQ_FILE_REGS};
use nsf_trace::StreamStore;
use nsf_workloads::{gatesim, Workload};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One workload, `n` frontend-equal points over distinct file sizes
/// (distinct engine configs keep the points from being trivially equal).
fn sweep_of_width(n: usize) -> Sweep {
    let mut s = Sweep::new();
    let w = s.workload(gatesim::build(0));
    for i in 0..n as u32 {
        s.point(w, nsf_config(SEQ_FILE_REGS / 2 + 4 * i));
    }
    s
}

/// The capture break-even is pinned where the measurement put it
/// (EXPERIMENTS.md, "Capture break-even"), so a retune must be
/// deliberate.
#[test]
fn capture_break_even_is_pinned() {
    assert_eq!(Sweep::MIN_CAPTURE_GROUP, 3);
}

#[test]
fn group_widths_land_on_the_documented_path() {
    let m = Sweep::MIN_CAPTURE_GROUP;
    for n in [1usize, m - 1, m, m + 1, 4 * m] {
        let s = sweep_of_width(n);
        // All points share one frontend: exactly one frontend group,
        // spanning the whole sweep in submission order.
        let groups = s.frontend_groups();
        assert_eq!(groups.len(), 1, "width {n}: expected one frontend group");
        assert_eq!(
            groups[0],
            (0..n).collect::<Vec<_>>(),
            "width {n}: group must span the sweep in order"
        );
        let serial = s.run(1);
        for threads in [1, 8] {
            let (reports, stats) = s.run_stored_stats(threads, 0, None);
            assert_eq!(
                serial, reports,
                "width {n} threads {threads}: cached route must be bit-identical to serial"
            );
            assert_eq!(stats.points, n as u64);
            // The capture threshold is inclusive: one below it stays
            // live (nothing replays), at it the head captures and the
            // rest replay.
            let want_replays = if n >= m { n as u64 - 1 } else { 0 };
            assert_eq!(
                stats.replayed_points, want_replays,
                "width {n}: wrong route (replay count)"
            );
        }
    }
}

/// A process-unique scratch store (wiped on entry, removed on exit).
fn scratch_store(name: &str) -> (PathBuf, StreamStore) {
    let dir = std::env::temp_dir().join(format!("nsf-routing-store-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (dir.clone(), StreamStore::open(dir))
}

/// With a persistent store, *every* capturable width — including the
/// singletons and pairs that can never amortize a live capture — saves
/// its stream cold and replays it warm (the effective capture threshold
/// is 1 on warm runs), bit-identical to serial both ways.
#[test]
fn store_serves_narrow_groups_warm() {
    for n in [1usize, 2, 3] {
        let (dir, store) = scratch_store(&format!("narrow{n}"));
        let s = sweep_of_width(n);
        let serial = s.run(1);

        let (cold, cold_stats) = s.run_stored_stats(1, 0, Some(&store));
        assert_eq!(serial, cold, "width {n}: cold store diverged");
        assert_eq!(cold_stats.store_misses, 1, "width {n}: one group misses");
        assert_eq!(cold_stats.store_hits, 0);
        assert_eq!(
            cold_stats.replayed_points,
            n as u64 - 1,
            "width {n}: cold run replays everything behind the head"
        );

        let (warm, warm_stats) = s.run_stored_stats(1, 0, Some(&store));
        assert_eq!(serial, warm, "width {n}: warm store diverged");
        assert_eq!(warm_stats.store_hits, 1, "width {n}: the group hits");
        assert_eq!(warm_stats.store_misses, 0);
        assert_eq!(
            warm_stats.store_served_points, n as u64,
            "width {n}: every point serves from the store, head included"
        );
        assert_eq!(warm_stats.replayed_points, n as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `w` with an output check whose `n`-th call (counting from 1) fails
/// and every other call passes through to the real check.
fn check_fails_on_call(mut w: Workload, n: usize) -> Workload {
    let calls = AtomicUsize::new(0);
    let check = std::mem::replace(&mut w.check, Box::new(|_| Ok(())));
    w.check = Box::new(move |mem| {
        if calls.fetch_add(1, Ordering::Relaxed) + 1 == n {
            Err("injected check failure".into())
        } else {
            check(mem)
        }
    });
    w
}

/// A capture whose run fails runs the whole group live; a replay that
/// fails after a good capture runs the rest of the group live. Neither
/// panics, both are counted, the reports stay bit-identical to serial,
/// and neither leaves a stream in the store.
#[test]
fn failed_capture_or_replay_falls_back_to_live() {
    let m = Sweep::MIN_CAPTURE_GROUP;
    let serial = sweep_of_width(m).run(1);
    // The capture's check is the first call; the first replayed lane's
    // is the second.
    for (fail_on, live) in [(1, m), (2, m - 1)] {
        for with_store in [false, true] {
            let (dir, store) = scratch_store(&format!("fallback{fail_on}{with_store}"));
            let mut s = sweep_of_width(m);
            s.workloads[0] = check_fails_on_call(gatesim::build(0), fail_on);
            let (reports, stats) = s.run_stored_stats(1, 0, with_store.then_some(&store));
            let case = format!("check fails on call {fail_on}, store {with_store}");
            assert_eq!(serial, reports, "{case}: diverged from serial");
            assert_eq!(stats.live_fallback_points, live as u64, "{case}");
            assert_eq!(stats.replayed_points, 0, "{case}");
            assert_eq!(stats.store_misses, u64::from(with_store), "{case}");
            assert!(!dir.exists(), "{case}: a failed group saved its stream");
        }
    }
    // A healthy run falls back nowhere.
    let (_, stats) = sweep_of_width(m).run_stored_stats(1, 0, None);
    assert_eq!(stats.live_fallback_points, 0);
}
