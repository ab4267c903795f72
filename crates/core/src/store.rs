//! Self-contained backing stores for tests and standalone library use.
//!
//! In the full simulator the backing store is the data cache + Ctable
//! (`nsf-sim::backing`); here we provide [`MapStore`], a flat-latency map
//! that makes `nsf-core` usable and testable on its own, and
//! [`FaultyStore`], a failure-injection wrapper.

use crate::addr::Cid;
use crate::traits::{BackingStore, StoreFault};
use crate::Word;
use std::collections::HashMap;

/// One context's backing page: a dense 256-entry register array (offsets
/// are `u8`) plus a presence bitmap. Every per-register operation is O(1),
/// and `any_present` is a counter check rather than a map walk.
#[derive(Debug)]
struct Page {
    regs: Box<[Word]>,
    present: [u64; 4],
    count: u16,
}

impl Page {
    fn new() -> Self {
        Page {
            regs: vec![0; 256].into_boxed_slice(),
            present: [0; 4],
            count: 0,
        }
    }

    fn has(&self, offset: u8) -> bool {
        self.present[usize::from(offset) >> 6] & (1 << (offset & 63)) != 0
    }

    fn get(&self, offset: u8) -> Option<Word> {
        self.has(offset).then(|| self.regs[usize::from(offset)])
    }

    fn set(&mut self, offset: u8, value: Word) {
        if !self.has(offset) {
            self.present[usize::from(offset) >> 6] |= 1 << (offset & 63);
            self.count += 1;
        }
        self.regs[usize::from(offset)] = value;
    }

    fn clear(&mut self, offset: u8) {
        if self.has(offset) {
            self.present[usize::from(offset) >> 6] &= !(1 << (offset & 63));
            self.count -= 1;
        }
    }
}

/// An in-memory backing store with a fixed per-register latency.
///
/// Registers live in per-context pages, so context-granular queries
/// (`any_present`) and teardown (`discard_context`) touch one map entry
/// instead of walking every backed register in the machine — the seed's
/// flat `(Cid, offset)` map made both O(total backed registers), which
/// dominated workloads that create and retire many activations.
#[derive(Debug, Default)]
pub struct MapStore {
    pages: HashMap<Cid, Page>,
    /// Cycles charged per register moved (a cache-hit-like constant).
    latency: u32,
    spills: u64,
    reloads: u64,
}

impl MapStore {
    /// Creates a store with the default 2-cycle per-register latency
    /// (a first-level cache hit).
    pub fn new() -> Self {
        MapStore {
            latency: 2,
            ..Default::default()
        }
    }

    /// Creates a store with an explicit per-register latency.
    pub fn with_latency(latency: u32) -> Self {
        MapStore {
            latency,
            ..Default::default()
        }
    }

    /// Number of spill operations served.
    pub fn spills(&self) -> u64 {
        self.spills
    }

    /// Number of reload operations served.
    pub fn reloads(&self) -> u64 {
        self.reloads
    }

    /// Direct inspection of a backed register (tests).
    pub fn peek(&self, cid: Cid, offset: u8) -> Option<Word> {
        self.pages.get(&cid).and_then(|p| p.get(offset))
    }

    /// Pre-populates a backed register (tests).
    pub fn preload(&mut self, cid: Cid, offset: u8, value: Word) {
        self.pages
            .entry(cid)
            .or_insert_with(Page::new)
            .set(offset, value);
    }
}

impl BackingStore for MapStore {
    fn spill(&mut self, cid: Cid, offset: u8, value: Word) -> Result<u32, StoreFault> {
        self.spills += 1;
        self.pages
            .entry(cid)
            .or_insert_with(Page::new)
            .set(offset, value);
        Ok(self.latency)
    }

    fn reload(&mut self, cid: Cid, offset: u8) -> Result<(Option<Word>, u32), StoreFault> {
        self.reloads += 1;
        Ok((self.peek(cid, offset), self.latency))
    }

    fn is_present(&self, cid: Cid, offset: u8) -> bool {
        self.pages.get(&cid).is_some_and(|p| p.has(offset))
    }

    fn any_present(&self, cid: Cid) -> bool {
        self.pages.get(&cid).is_some_and(|p| p.count > 0)
    }

    fn discard_context(&mut self, cid: Cid) {
        self.pages.remove(&cid);
    }

    fn discard_reg(&mut self, cid: Cid, offset: u8) {
        if let Some(p) = self.pages.get_mut(&cid) {
            p.clear(offset);
        }
    }
}

/// When a [`FaultyStore`] injects its fault (all counts are 1-based and
/// measured from the most recent [`FaultyStore::arm`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPlan {
    /// Never faults (a transparent wrapper).
    Never,
    /// The first `N` spill/reload operations succeed; every later one
    /// faults (persistent — the historical countdown behavior).
    AfterOps(u64),
    /// The `n`th spill faults once; the store then heals.
    NthSpill(u64),
    /// The `n`th reload faults once; the store then heals.
    NthReload(u64),
    /// The `n`th spill-or-reload touching `cid` faults once; the store
    /// then heals.
    NthForContext(Cid, u64),
}

/// A wrapper that injects faults per a deterministic [`FaultPlan`] — used
/// to verify that register files surface backing failures as typed errors
/// instead of panicking, and by the differential checker to prove faults
/// leave resident state intact.
pub struct FaultyStore<S> {
    inner: S,
    plan: FaultPlan,
    /// Spill/reload operations observed since the last arm.
    ops: u64,
    spills: u64,
    reloads: u64,
    /// Ops touching the planned context since the last arm.
    ctx_ops: u64,
    /// Faults injected over the store's whole lifetime.
    injected: u64,
}

impl<S: BackingStore> FaultyStore<S> {
    /// Wraps `inner`; the first `ok_ops` spill/reload operations succeed,
    /// everything after faults (shorthand for [`FaultPlan::AfterOps`]).
    pub fn new(inner: S, ok_ops: u64) -> Self {
        Self::with_plan(inner, FaultPlan::AfterOps(ok_ops))
    }

    /// Wraps `inner` with an explicit fault plan.
    pub fn with_plan(inner: S, plan: FaultPlan) -> Self {
        FaultyStore {
            inner,
            plan,
            ops: 0,
            spills: 0,
            reloads: 0,
            ctx_ops: 0,
            injected: 0,
        }
    }

    /// Replaces the fault plan and restarts its counters (counts in the
    /// new plan are relative to this call).
    pub fn arm(&mut self, plan: FaultPlan) {
        self.plan = plan;
        self.ops = 0;
        self.spills = 0;
        self.reloads = 0;
        self.ctx_ops = 0;
    }

    /// Number of faults injected so far (lifetime total).
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn tick(&mut self, is_spill: bool, cid: Cid) -> Result<(), StoreFault> {
        self.ops += 1;
        if is_spill {
            self.spills += 1;
        } else {
            self.reloads += 1;
        }
        let fire = match self.plan {
            FaultPlan::Never => false,
            FaultPlan::AfterOps(ok_ops) => self.ops > ok_ops,
            FaultPlan::NthSpill(n) => is_spill && self.spills == n,
            FaultPlan::NthReload(n) => !is_spill && self.reloads == n,
            FaultPlan::NthForContext(planned, n) => {
                if cid == planned {
                    self.ctx_ops += 1;
                }
                cid == planned && self.ctx_ops == n
            }
        };
        if fire {
            // One-shot plans heal after firing; AfterOps keeps faulting.
            if !matches!(self.plan, FaultPlan::AfterOps(_)) {
                self.plan = FaultPlan::Never;
            }
            self.injected += 1;
            Err(StoreFault::Io("injected fault".into()))
        } else {
            Ok(())
        }
    }
}

impl<S: BackingStore> BackingStore for FaultyStore<S> {
    fn spill(&mut self, cid: Cid, offset: u8, value: Word) -> Result<u32, StoreFault> {
        self.tick(true, cid)?;
        self.inner.spill(cid, offset, value)
    }

    fn reload(&mut self, cid: Cid, offset: u8) -> Result<(Option<Word>, u32), StoreFault> {
        self.tick(false, cid)?;
        self.inner.reload(cid, offset)
    }

    fn is_present(&self, cid: Cid, offset: u8) -> bool {
        self.inner.is_present(cid, offset)
    }

    fn any_present(&self, cid: Cid) -> bool {
        self.inner.any_present(cid)
    }

    fn discard_context(&mut self, cid: Cid) {
        self.inner.discard_context(cid);
    }

    fn discard_reg(&mut self, cid: Cid, offset: u8) {
        self.inner.discard_reg(cid, offset);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spill_then_reload() {
        let mut s = MapStore::new();
        assert_eq!(s.spill(1, 2, 99).unwrap(), 2);
        assert_eq!(s.reload(1, 2).unwrap(), (Some(99), 2));
        assert_eq!(s.reload(1, 3).unwrap(), (None, 2));
        assert!(s.is_present(1, 2));
        assert!(!s.is_present(1, 3));
        assert!(s.any_present(1));
        assert!(!s.any_present(2));
    }

    #[test]
    fn discard_context_drops_only_that_cid() {
        let mut s = MapStore::new();
        s.spill(1, 0, 1).unwrap();
        s.spill(2, 0, 2).unwrap();
        s.discard_context(1);
        assert!(!s.any_present(1));
        assert!(s.any_present(2));
        assert_eq!(s.peek(1, 0), None, "peek sees the discard");
        assert_eq!(s.peek(2, 0), Some(2));
    }

    #[test]
    fn discard_reg_clears_presence() {
        let mut s = MapStore::new();
        s.spill(3, 0, 7).unwrap();
        s.spill(3, 63, 8).unwrap();
        s.spill(3, 64, 9).unwrap(); // second presence word
        s.spill(3, 255, 10).unwrap(); // last offset
        s.discard_reg(3, 63);
        assert!(!s.is_present(3, 63));
        assert!(s.is_present(3, 0));
        assert!(s.is_present(3, 64));
        assert!(s.is_present(3, 255));
        assert!(s.any_present(3));
        s.discard_reg(3, 0);
        s.discard_reg(3, 64);
        s.discard_reg(3, 255);
        assert!(!s.any_present(3), "count reaches zero");
        // Re-spilling after a full clear works and re-reports presence.
        s.spill(3, 64, 11).unwrap();
        assert_eq!(s.peek(3, 64), Some(11));
    }

    #[test]
    fn preload_and_peek_roundtrip() {
        let mut s = MapStore::new();
        s.preload(9, 200, 12345);
        assert_eq!(s.peek(9, 200), Some(12345));
        assert!(s.is_present(9, 200));
        assert_eq!(s.reload(9, 200).unwrap(), (Some(12345), 2));
    }

    #[test]
    fn faulty_store_counts_down() {
        let mut s = FaultyStore::new(MapStore::new(), 2);
        assert!(s.spill(1, 0, 1).is_ok());
        assert!(s.reload(1, 0).is_ok());
        assert!(matches!(s.spill(1, 1, 2), Err(StoreFault::Io(_))));
    }

    #[test]
    fn nth_spill_plan_fires_once_then_heals() {
        let mut s = FaultyStore::with_plan(MapStore::new(), FaultPlan::NthSpill(2));
        assert!(s.spill(1, 0, 1).is_ok());
        assert!(s.reload(1, 0).is_ok(), "reloads don't count toward spills");
        assert!(matches!(s.spill(1, 1, 2), Err(StoreFault::Io(_))));
        assert_eq!(s.injected(), 1);
        // Healed: the faulted write never reached the store, a retry does.
        assert!(s.spill(1, 1, 2).is_ok());
        assert_eq!(s.inner().peek(1, 1), Some(2));
        assert_eq!(s.injected(), 1);
    }

    #[test]
    fn nth_reload_plan_counts_only_reloads() {
        let mut s = FaultyStore::with_plan(MapStore::new(), FaultPlan::NthReload(1));
        assert!(s.spill(1, 0, 7).is_ok());
        assert!(matches!(s.reload(1, 0), Err(StoreFault::Io(_))));
        assert_eq!(s.reload(1, 0).unwrap().0, Some(7));
    }

    #[test]
    fn per_context_plan_ignores_other_contexts() {
        let mut s = FaultyStore::with_plan(MapStore::new(), FaultPlan::NthForContext(5, 2));
        assert!(s.spill(4, 0, 1).is_ok());
        assert!(s.spill(5, 0, 1).is_ok());
        assert!(s.spill(4, 1, 1).is_ok());
        assert!(matches!(s.reload(5, 0), Err(StoreFault::Io(_))));
        assert!(s.reload(5, 0).is_ok(), "one-shot plan heals");
    }

    #[test]
    fn arm_restarts_counters() {
        let mut s = FaultyStore::with_plan(MapStore::new(), FaultPlan::Never);
        for i in 0..10 {
            s.spill(1, i, 0).unwrap();
        }
        s.arm(FaultPlan::NthSpill(1));
        assert!(
            matches!(s.spill(1, 0, 0), Err(StoreFault::Io(_))),
            "counts are relative to arm, not store lifetime"
        );
    }

    #[test]
    fn faulty_store_forwards_queries() {
        let mut s = FaultyStore::new(MapStore::new(), 10);
        s.spill(4, 1, 42).unwrap();
        assert!(s.is_present(4, 1));
        assert!(s.any_present(4));
        s.discard_reg(4, 1);
        assert!(!s.any_present(4));
        s.spill(4, 2, 43).unwrap();
        s.discard_context(4);
        assert!(!s.is_present(4, 2));
    }
}
