//! Deterministic fault-injection tests: every organization must surface a
//! backing-store failure as `RegFileError::Store` — mid-spill and
//! mid-reload — without panicking, without corrupting resident state, and
//! without letting its statistics counters drift. After the (one-shot)
//! fault heals, the interrupted operation must be retryable and the file
//! must still hold every architecturally visible value.

use nsf_core::{
    segmented::FramePolicy, BackingStore, FaultPlan, FaultyStore, MapStore, NamedStateFile,
    NsfConfig, RegAddr, RegFileError, RegisterFile, SegmentedConfig, SegmentedFile, SpillEngine,
    WindowedConfig, WindowedFile,
};

type Store = FaultyStore<MapStore>;

fn store() -> Store {
    FaultyStore::with_plan(MapStore::new(), FaultPlan::Never)
}

fn assert_store_err<T: std::fmt::Debug>(r: Result<T, RegFileError>, what: &str) {
    match r {
        Err(RegFileError::Store(_)) => {}
        other => panic!("{what}: expected Err(Store), got {other:?}"),
    }
}

fn assert_consistent(file: &dyn RegisterFile) {
    if let Some(v) = file.stats().invariant_violation() {
        panic!("stats invariant violated on {}: {v}", file.describe());
    }
    assert!(
        file.occupancy().valid_regs <= file.capacity(),
        "occupancy exceeds capacity on {}",
        file.describe()
    );
}

#[test]
fn nsf_mid_spill_fault_leaves_victim_resident_and_retryable() {
    // 4 single-register lines, all dirty: the 5th write must evict.
    let mut f = NamedStateFile::new(NsfConfig::paper_default(4));
    let mut s = store();
    for cid in 1..=4u16 {
        f.write(RegAddr::new(cid, 0), 10 * u32::from(cid), &mut s)
            .unwrap();
    }
    assert_eq!(f.occupancy().valid_regs, 4);

    s.arm(FaultPlan::NthSpill(1));
    assert_store_err(f.write(RegAddr::new(5, 0), 50, &mut s), "evicting write");
    assert_consistent(&f);
    // The victim's registers must still be somewhere recoverable: the
    // fault aborted the spill before the line was unbound.
    assert_eq!(f.occupancy().valid_regs, 4, "no register was lost");
    assert_eq!(s.injected(), 1);

    // The plan is one-shot: the identical retry succeeds, and every value
    // ever written is still readable afterwards.
    f.write(RegAddr::new(5, 0), 50, &mut s).unwrap();
    for cid in 1..=4u16 {
        assert_eq!(
            f.read(RegAddr::new(cid, 0), &mut s).unwrap().value,
            10 * u32::from(cid)
        );
    }
    assert_eq!(f.read(RegAddr::new(5, 0), &mut s).unwrap().value, 50);
    assert_consistent(&f);

    // Drain: freeing every context empties file and backing store.
    for cid in 1..=5u16 {
        f.free_context(cid, &mut s);
        assert!(!s.any_present(cid));
    }
    assert_eq!(f.occupancy().valid_regs, 0);
    assert_eq!(f.occupancy().resident_contexts, 0);
}

#[test]
fn nsf_mid_reload_fault_surfaces_and_retry_restores_the_value() {
    // One line: every new name evicts the previous one.
    let mut f = NamedStateFile::new(NsfConfig::paper_default(1));
    let mut s = store();
    f.write(RegAddr::new(1, 0), 11, &mut s).unwrap();
    f.write(RegAddr::new(2, 0), 22, &mut s).unwrap(); // spills <1:0>

    s.arm(FaultPlan::NthReload(1));
    assert_store_err(f.read(RegAddr::new(1, 0), &mut s), "reloading read");
    assert_consistent(&f);

    assert_eq!(f.read(RegAddr::new(1, 0), &mut s).unwrap().value, 11);
    assert_eq!(f.read(RegAddr::new(2, 0), &mut s).unwrap().value, 22);
    assert_consistent(&f);
}

#[test]
fn segmented_mid_spill_fault_keeps_the_victim_frame_current() {
    let mut f = SegmentedFile::new(SegmentedConfig::paper_default(1, 4));
    let mut s = store();
    f.switch_to(1, &mut s).unwrap();
    for i in 0..4u8 {
        f.write(RegAddr::new(1, i), 100 + u32::from(i), &mut s)
            .unwrap();
    }

    // Fault in the middle of the frame writeback (2nd of 4 transfers).
    s.arm(FaultPlan::NthSpill(2));
    assert_store_err(f.switch_to(2, &mut s), "frame-spilling switch");
    assert_consistent(&f);
    // The victim was not evicted: context 1 is still current and intact.
    for i in 0..4u8 {
        assert_eq!(
            f.read(RegAddr::new(1, i), &mut s).unwrap().value,
            100 + u32::from(i),
            "victim frame must stay readable after an aborted spill"
        );
    }

    // Retry the switch, then come back: every register survived the trip.
    f.switch_to(2, &mut s).unwrap();
    f.switch_to(1, &mut s).unwrap();
    for i in 0..4u8 {
        assert_eq!(
            f.read(RegAddr::new(1, i), &mut s).unwrap().value,
            100 + u32::from(i)
        );
    }
    assert_consistent(&f);
}

#[test]
fn segmented_mid_reload_fault_unclaims_the_frame() {
    let mut f = SegmentedFile::new(SegmentedConfig::paper_default(1, 4));
    let mut s = store();
    f.switch_to(1, &mut s).unwrap();
    for i in 0..4u8 {
        f.write(RegAddr::new(1, i), 200 + u32::from(i), &mut s)
            .unwrap();
    }
    f.switch_to(2, &mut s).unwrap(); // spills ctx 1; ctx 2 never ran
    f.write(RegAddr::new(2, 0), 7, &mut s).unwrap();

    // Fault on the 2nd of ctx 1's four reloads (spills don't count).
    s.arm(FaultPlan::NthReload(2));
    assert_store_err(f.switch_to(1, &mut s), "frame-reloading switch");
    assert_consistent(&f);
    // The half-filled frame must not stay claimed: a later switch finding
    // it "resident" would see only the registers reloaded pre-fault.
    assert_eq!(
        f.occupancy().resident_contexts,
        0,
        "faulted reload must drop the claim"
    );
    assert!(
        matches!(
            f.read(RegAddr::new(1, 0), &mut s),
            Err(RegFileError::NotCurrent(1))
        ),
        "no context is current after the aborted switch"
    );

    // Retry from scratch: the full frame comes back.
    f.switch_to(1, &mut s).unwrap();
    for i in 0..4u8 {
        assert_eq!(
            f.read(RegAddr::new(1, i), &mut s).unwrap().value,
            200 + u32::from(i)
        );
    }
    f.switch_to(2, &mut s).unwrap();
    assert_eq!(f.read(RegAddr::new(2, 0), &mut s).unwrap().value, 7);
    assert_consistent(&f);
}

#[test]
fn segmented_software_engine_and_valid_only_policy_fault_identically() {
    let mut cfg = SegmentedConfig::paper_default(1, 4);
    cfg.engine = SpillEngine::software();
    cfg.policy = FramePolicy::ValidOnly;
    let mut f = SegmentedFile::new(cfg);
    let mut s = store();
    f.switch_to(1, &mut s).unwrap();
    f.write(RegAddr::new(1, 0), 1, &mut s).unwrap();
    f.write(RegAddr::new(1, 3), 4, &mut s).unwrap();

    s.arm(FaultPlan::NthSpill(2));
    assert_store_err(f.switch_to(2, &mut s), "ValidOnly frame spill");
    assert_consistent(&f);
    f.switch_to(2, &mut s).unwrap();

    s.arm(FaultPlan::NthReload(1));
    assert_store_err(f.switch_to(1, &mut s), "ValidOnly frame reload");
    assert_consistent(&f);
    f.switch_to(1, &mut s).unwrap();
    assert_eq!(f.read(RegAddr::new(1, 0), &mut s).unwrap().value, 1);
    assert_eq!(f.read(RegAddr::new(1, 3), &mut s).unwrap().value, 4);
    assert_consistent(&f);
}

#[test]
fn windowed_overflow_spill_fault_keeps_the_deep_window_resident() {
    let mut f = WindowedFile::new(WindowedConfig {
        windows: 2,
        window_regs: 4,
        engine: SpillEngine::software(),
    });
    let mut s = store();
    f.thread_switch(1, &mut s).unwrap();
    f.write(RegAddr::new(1, 0), 100, &mut s).unwrap();
    f.call_push(2, &mut s).unwrap();
    f.write(RegAddr::new(2, 0), 200, &mut s).unwrap();

    // The 3rd activation overflows; the spill of cid 1's window faults.
    s.arm(FaultPlan::NthSpill(1));
    assert_store_err(f.call_push(3, &mut s), "overflow spill");
    assert_consistent(&f);
    assert_eq!(
        f.occupancy().resident_contexts,
        2,
        "the deep window must survive the aborted spill"
    );

    f.call_push(3, &mut s).unwrap();
    f.write(RegAddr::new(3, 0), 300, &mut s).unwrap();
    assert_eq!(f.read(RegAddr::new(3, 0), &mut s).unwrap().value, 300);

    // Unwind the chain: every activation's registers are intact.
    f.free_context(3, &mut s);
    f.switch_to(2, &mut s).unwrap();
    assert_eq!(f.read(RegAddr::new(2, 0), &mut s).unwrap().value, 200);
    f.free_context(2, &mut s);
    f.switch_to(1, &mut s).unwrap(); // underflow reload
    assert_eq!(f.read(RegAddr::new(1, 0), &mut s).unwrap().value, 100);
    assert_consistent(&f);
}

#[test]
fn windowed_thread_switch_reload_fault_leaves_the_chain_parked() {
    let mut f = WindowedFile::new(WindowedConfig {
        windows: 2,
        window_regs: 4,
        engine: SpillEngine::software(),
    });
    let mut s = store();
    f.thread_switch(1, &mut s).unwrap();
    f.write(RegAddr::new(1, 2), 12, &mut s).unwrap();
    f.thread_switch(10, &mut s).unwrap(); // parks thread 1
    f.write(RegAddr::new(10, 2), 102, &mut s).unwrap();

    // Dispatching thread 1 again: its window reload faults.
    s.arm(FaultPlan::NthReload(1));
    assert_store_err(f.thread_switch(1, &mut s), "dispatch reload");
    assert_consistent(&f);

    // The chain stayed parked; the dispatch is retryable, and both
    // threads' registers are still reachable.
    f.thread_switch(1, &mut s).unwrap();
    assert_eq!(f.read(RegAddr::new(1, 2), &mut s).unwrap().value, 12);
    f.thread_switch(10, &mut s).unwrap();
    assert_eq!(f.read(RegAddr::new(10, 2), &mut s).unwrap().value, 102);
    assert_consistent(&f);
}

#[test]
fn windowed_underflow_reload_fault_is_retryable() {
    let mut f = WindowedFile::new(WindowedConfig {
        windows: 2,
        window_regs: 4,
        engine: SpillEngine::software(),
    });
    let mut s = store();
    f.thread_switch(1, &mut s).unwrap();
    f.write(RegAddr::new(1, 1), 11, &mut s).unwrap();
    f.call_push(2, &mut s).unwrap();
    f.call_push(3, &mut s).unwrap(); // spills window 1
    f.free_context(3, &mut s);
    f.free_context(2, &mut s);

    // Returning to cid 1 underflows; the reload faults.
    s.arm(FaultPlan::NthReload(1));
    assert_store_err(f.switch_to(1, &mut s), "underflow reload");
    assert_consistent(&f);
    assert!(f.switch_to(1, &mut s).unwrap() > 0, "retry reloads");
    assert_eq!(f.read(RegAddr::new(1, 1), &mut s).unwrap().value, 11);
    assert_consistent(&f);
}

#[test]
fn conventional_fault_paths_surface_errors_and_recover() {
    let mut f = SegmentedFile::new(SegmentedConfig::paper_default(1, 4));
    let mut s = store();
    f.switch_to(1, &mut s).unwrap();
    for i in 0..4u8 {
        f.write(RegAddr::new(1, i), 300 + u32::from(i), &mut s)
            .unwrap();
    }

    s.arm(FaultPlan::NthSpill(3));
    assert_store_err(f.switch_to(2, &mut s), "conventional switch-out");
    assert_consistent(&f);
    f.switch_to(2, &mut s).unwrap();

    s.arm(FaultPlan::NthReload(2));
    assert_store_err(f.switch_to(1, &mut s), "conventional switch-in");
    assert_consistent(&f);
    f.switch_to(1, &mut s).unwrap();
    for i in 0..4u8 {
        assert_eq!(
            f.read(RegAddr::new(1, i), &mut s).unwrap().value,
            300 + u32::from(i)
        );
    }
    assert_consistent(&f);
}

#[test]
fn per_context_plan_targets_one_context_across_engines() {
    // NthForContext only fires on the planned cid's traffic: context 2's
    // spill sails through while context 1's reload faults.
    let mut f = SegmentedFile::new(SegmentedConfig::paper_default(1, 2));
    let mut s = store();
    f.switch_to(1, &mut s).unwrap();
    f.write(RegAddr::new(1, 0), 1, &mut s).unwrap();
    f.switch_to(2, &mut s).unwrap();
    f.write(RegAddr::new(2, 0), 2, &mut s).unwrap();

    // Switch back to 1: ctx 2's frame spills (2 regs, ignored by the
    // plan), then ctx 1's reload is its first counted operation.
    s.arm(FaultPlan::NthForContext(1, 1));
    assert_store_err(f.switch_to(1, &mut s), "targeted reload");
    assert_consistent(&f);
    f.switch_to(1, &mut s).unwrap();
    assert_eq!(f.read(RegAddr::new(1, 0), &mut s).unwrap().value, 1);
    assert_consistent(&f);
}
