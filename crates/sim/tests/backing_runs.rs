//! Register runs through the Ctable backing store equal the per-register
//! loop they replace. [`CtableBacking`] overrides
//! `BackingStore::{spill_run, reload_run}` with one Ctable translation,
//! one cache-line-granular pass and one block copy per run; the
//! reference is the same store behind a wrapper that keeps the trait's
//! default per-register loop. Both must agree on every returned value
//! and per-word cycle count, on memory words, presence bits and
//! data-cache statistics — directly, and under the engines whose frame
//! and window transfers use runs (full frames with empty slots, a
//! dribble prepaid budget, valid-only frames, windows).

use nsf_core::segmented::DribbleConfig;
use nsf_core::{
    BackingStore, Cid, EngineDispatch, LaneOp, RegAddr, SegmentedConfig, SegmentedFile,
    SpillEngine, StoreFault, WindowedConfig, WindowedFile,
};
use nsf_mem::{Addr, CacheConfig, CacheStats, MemConfig, MemSystem, Word};
use nsf_sim::{BackingMap, CtableBacking};
use proptest::prelude::*;

/// Contexts `0..MAPPED` have save areas; `UNMAPPED` never does.
const MAPPED: Cid = 4;
const UNMAPPED: Cid = 6;

/// Context `cid`'s save area. Context 1's straddles a 64 Ki-word memory
/// page boundary.
fn save_area(cid: Cid) -> Addr {
    match cid {
        1 => 0x1_0000 - 24,
        _ => 0x4000_0000 + 64 * Addr::from(cid),
    }
}

fn mem_system(line_words: u32, ways: u32) -> MemSystem {
    let mut mem = MemSystem::new(MemConfig {
        dcache: CacheConfig {
            capacity_words: 64 * ways,
            line_words,
            ways,
            hit_cycles: 1,
            miss_penalty: 9,
        },
        ctable_slots: 8,
    });
    for cid in 0..MAPPED {
        mem.ctable_mut().map(cid, save_area(cid)).unwrap();
    }
    mem
}

/// A store's two halves, to be borrowed by a [`CtableBacking`] view.
fn halves(line_words: u32, ways: u32) -> (MemSystem, BackingMap) {
    (mem_system(line_words, ways), BackingMap::new())
}

fn view((mem, map): &mut (MemSystem, BackingMap)) -> CtableBacking<'_> {
    // Every test context is mapped up front, so the base is unused.
    CtableBacking { mem, map, base: 0 }
}

/// The reference: a store that forwards only the per-register methods,
/// so its run methods are the trait's default per-register loop.
struct PerWord<S>(S);

impl<S: BackingStore> BackingStore for PerWord<S> {
    fn spill(&mut self, cid: Cid, offset: u8, value: Word) -> Result<u32, StoreFault> {
        self.0.spill(cid, offset, value)
    }
    fn reload(&mut self, cid: Cid, offset: u8) -> Result<(Option<Word>, u32), StoreFault> {
        self.0.reload(cid, offset)
    }
    fn is_present(&self, cid: Cid, offset: u8) -> bool {
        self.0.is_present(cid, offset)
    }
    fn any_present(&self, cid: Cid) -> bool {
        self.0.any_present(cid)
    }
    fn discard_context(&mut self, cid: Cid) {
        self.0.discard_context(cid);
    }
    fn discard_reg(&mut self, cid: Cid, offset: u8) {
        self.0.discard_reg(cid, offset);
    }
}

/// Everything a transfer can change: each context's save-area words and
/// presence bits, and the data-cache statistics.
fn snapshot(store: &CtableBacking) -> (Vec<Vec<Word>>, Vec<Vec<bool>>, CacheStats) {
    let mem = &*store.mem;
    let cids = 0..=UNMAPPED;
    let words = cids
        .clone()
        .map(|c| (0..64).map(|o| mem.peek(save_area(c) + o)).collect())
        .collect();
    let present = cids
        .map(|c| (0..64).map(|o| store.is_present(c, o)).collect())
        .collect();
    (words, present, mem.dcache_stats())
}

#[derive(Clone, Debug)]
enum Op {
    SpillRun {
        cid: Cid,
        first: u8,
        values: Vec<Word>,
        valid: u64,
    },
    ReloadRun {
        cid: Cid,
        first: u8,
        len: u8,
    },
    Spill(Cid, u8, Word),
    Reload(Cid, u8),
    DiscardReg(Cid, u8),
    DiscardContext(Cid),
}

fn arb_cid() -> impl Strategy<Value = Cid> {
    // Mostly mapped contexts, sometimes the unmapped one.
    prop_oneof![6 => 0..MAPPED, 1 => Just(UNMAPPED)]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (arb_cid(), 0u8..64, proptest::collection::vec(any::<u32>(), 0..40), any::<u64>())
            .prop_map(|(cid, first, mut values, valid)| {
                values.truncate(64 - usize::from(first));
                Op::SpillRun { cid, first, values, valid }
            }),
        4 => (arb_cid(), 0u8..64, 0u8..40).prop_map(|(cid, first, len)| Op::ReloadRun {
            cid,
            first,
            len: len.min(64 - first),
        }),
        2 => (arb_cid(), 0u8..64, any::<u32>()).prop_map(|(c, o, v)| Op::Spill(c, o, v)),
        2 => (arb_cid(), 0u8..64).prop_map(|(c, o)| Op::Reload(c, o)),
        1 => (arb_cid(), 0u8..64).prop_map(|(c, o)| Op::DiscardReg(c, o)),
        1 => arb_cid().prop_map(Op::DiscardContext),
    ]
}

/// What one op returned: per-word cycles plus reloaded values and
/// presence, or the fault.
type Outcome = Result<(Vec<u32>, Vec<Word>, u64), StoreFault>;

fn apply(store: &mut dyn BackingStore, op: &Op) -> Outcome {
    match op {
        Op::SpillRun {
            cid,
            first,
            values,
            valid,
        } => {
            let mut cycles = vec![0; values.len()];
            store.spill_run(*cid, *first, values, *valid, &mut cycles)?;
            Ok((cycles, Vec::new(), 0))
        }
        Op::ReloadRun { cid, first, len } => {
            let mut cycles = vec![0; usize::from(*len)];
            // Pre-filled, so a slot written without data would show.
            let mut values = vec![0xDEAD_BEEF; usize::from(*len)];
            let present = store.reload_run(*cid, *first, &mut values, &mut cycles)?;
            Ok((cycles, values, present))
        }
        Op::Spill(cid, off, v) => Ok((vec![store.spill(*cid, *off, *v)?], Vec::new(), 0)),
        Op::Reload(cid, off) => {
            let (v, c) = store.reload(*cid, *off)?;
            Ok((vec![c], v.into_iter().collect(), 0))
        }
        Op::DiscardReg(cid, off) => {
            store.discard_reg(*cid, *off);
            Ok((Vec::new(), Vec::new(), 0))
        }
        Op::DiscardContext(cid) => {
            store.discard_context(*cid);
            Ok((Vec::new(), Vec::new(), 0))
        }
    }
}

/// An engine op stream over contexts `0..MAPPED`.
fn arb_engine_ops(regs: u8) -> impl Strategy<Value = Vec<LaneOp>> {
    let op = prop_oneof![
        3 => (0..MAPPED).prop_map(LaneOp::SwitchTo),
        2 => (0..MAPPED).prop_map(LaneOp::CallPush),
        2 => (0..MAPPED).prop_map(LaneOp::ThreadSwitch),
        8 => (0..MAPPED, 0..regs, any::<u32>())
            .prop_map(|(c, o, v)| LaneOp::Write(RegAddr::new(c, o), v)),
        4 => (0..MAPPED, 0..regs).prop_map(|(c, o)| LaneOp::Read(RegAddr::new(c, o))),
        1 => (0..MAPPED, 0..regs).prop_map(|(c, o)| LaneOp::FreeReg(RegAddr::new(c, o))),
        1 => (0..MAPPED).prop_map(LaneOp::FreeContext),
    ];
    proptest::collection::vec(op, 1..200)
}

/// The engines whose frame or window transfers go through runs.
fn engines(regs: u8) -> Vec<EngineDispatch> {
    let mut full_dribble = SegmentedConfig::paper_default(2, regs);
    full_dribble.dribble = Some(DribbleConfig { ops_per_reg: 3 });
    let mut valid_only = SegmentedConfig::paper_default(2, regs);
    valid_only.policy = nsf_core::segmented::FramePolicy::ValidOnly;
    valid_only.dribble = Some(DribbleConfig { ops_per_reg: 5 });
    vec![
        SegmentedFile::new(SegmentedConfig::paper_default(2, regs)).into(),
        SegmentedFile::new(full_dribble).into(),
        SegmentedFile::new(valid_only).into(),
        nsf_core::ConventionalFile::with_engine(regs, SpillEngine::software()).into(),
        WindowedFile::new(WindowedConfig {
            windows: 2,
            window_regs: regs,
            engine: SpillEngine::software(),
        })
        .into(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Direct store calls: the run overrides equal the per-register
    /// default, op by op and in the final state.
    #[test]
    fn runs_match_the_per_register_loop(
        ops in proptest::collection::vec(arb_op(), 1..40),
        line_log in 0u32..4,
        ways in 1u32..3,
    ) {
        let line_words = 1 << line_log;
        let (mut fast, mut slow) = (halves(line_words, ways), halves(line_words, ways));
        let mut store = view(&mut fast);
        let mut reference = PerWord(view(&mut slow));
        for op in &ops {
            let want = apply(&mut reference, op);
            prop_assert_eq!(&apply(&mut store, op), &want, "{:?}", op);
            prop_assert_eq!(snapshot(&store), snapshot(&reference.0), "after {:?}", op);
        }
    }

    /// Engines over the store: every step result, the final engine
    /// statistics (spill/reload cycles included) and the store state
    /// agree.
    #[test]
    fn engine_transfers_match_the_per_register_loop(
        regs in 4u8..=20,
        ops in arb_engine_ops(20),
    ) {
        for (mut fast, mut slow) in engines(regs).into_iter().zip(engines(regs)) {
            let (mut fast_halves, mut slow_halves) = (halves(4, 2), halves(4, 2));
            let mut store = view(&mut fast_halves);
            let mut reference = PerWord(view(&mut slow_halves));
            for op in &ops {
                // Offsets past this file's width are rejected the same
                // way by both; keep them in range to reach transfers.
                let op = match *op {
                    LaneOp::Write(a, v) => LaneOp::Write(RegAddr::new(a.cid, a.offset % regs), v),
                    LaneOp::Read(a) => LaneOp::Read(RegAddr::new(a.cid, a.offset % regs)),
                    other => other,
                };
                let got = fast.apply_op(op, &mut store).map_err(|e| e.to_string());
                let want = slow.apply_op(op, &mut reference).map_err(|e| e.to_string());
                prop_assert_eq!(got, want, "{} {:?}", nsf_core::RegisterFile::describe(&fast), op);
            }
            prop_assert_eq!(
                nsf_core::RegisterFile::stats(&fast),
                nsf_core::RegisterFile::stats(&slow)
            );
            prop_assert_eq!(snapshot(&store), snapshot(&reference.0));
        }
    }
}

/// A run on an unmapped context faults before touching anything, as the
/// per-register loop's first transfer would.
#[test]
fn unmapped_runs_fault_before_any_state_changes() {
    let mut used = halves(4, 2);
    let mut store = view(&mut used);
    store
        .spill_run(0, 0, &[1, 2, 3], 0b101, &mut [0; 3])
        .unwrap();
    let before = snapshot(&store);
    assert_eq!(
        store.spill_run(UNMAPPED, 2, &[7; 9], !0, &mut [0; 9]),
        Err(StoreFault::Unmapped(UNMAPPED))
    );
    let mut values = [0; 9];
    assert_eq!(
        store.reload_run(UNMAPPED, 0, &mut values, &mut [0; 9]),
        Err(StoreFault::Unmapped(UNMAPPED))
    );
    assert_eq!(values, [0; 9], "no value written");
    assert_eq!(snapshot(&store), before, "no state changed");

    // The same on a fresh store, with nothing to make present.
    let mut fresh = halves(4, 2);
    let mut store = view(&mut fresh);
    let before = snapshot(&store);
    assert_eq!(
        store.spill_run(UNMAPPED, 0, &[5; 4], 0, &mut [0; 4]),
        Err(StoreFault::Unmapped(UNMAPPED))
    );
    assert_eq!(snapshot(&store), before);
}

/// A full frame with empty slots moves every slot but leaves only the
/// live ones present; a reload hands back only those.
#[test]
fn full_frame_with_empty_slots_keeps_only_live_presence() {
    let mut halves = halves(4, 2);
    let mut store = view(&mut halves);
    let mut cycles = [0; 6];
    store
        .spill_run(2, 0, &[10, 11, 12, 13, 14, 15], 0b010_010, &mut cycles)
        .unwrap();
    assert!(cycles.iter().all(|&c| c > 0), "every slot costs a transfer");
    let present: Vec<bool> = (0..6).map(|o| store.is_present(2, o)).collect();
    assert_eq!(present, [false, true, false, false, true, false]);
    let mut values = [0; 6];
    let mask = store.reload_run(2, 0, &mut values, &mut cycles).unwrap();
    assert_eq!(mask, 0b010_010);
    assert_eq!(values, [0, 11, 0, 0, 14, 0]);
}
