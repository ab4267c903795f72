//! The associative address decoder.
//!
//! Paper §4.1: "Each line of the address decoder contains a content
//! addressable memory (CAM) wide enough to hold a register address. The
//! NSF binds a register name to a line in the register file by programming
//! that line of the address decoder. Subsequent register reads and writes
//! compare an operand address against the address programmed into each
//! line of the decoder."
//!
//! Hardware performs the comparison in every line simultaneously; the model
//! keeps a hash index alongside the tag array so simulation cost stays
//! O(1) per access while the tag array remains the source of truth. The
//! index is a [`TagIndex`] — an open-addressed table over packed
//! `<cid, line>` keys — rather than a `std::collections::HashMap`, because
//! the lookup runs once per simulated register access and SipHash alone
//! costs more than the rest of the hit path. A **per-context residency
//! index** (context → bound slots, with each slot's position stored
//! inline) likewise makes `has_context`, `resident_contexts` and context
//! teardown O(1) per line — `switch_to` consults it on every simulated
//! context switch, so a tag scan there would dominate large sweeps. That
//! index is a plain vector addressed by context ID (IDs are allocated
//! densely and recycled by the runtime), so the switch path is an array
//! load, not a hash.

use crate::addr::Cid;
use crate::tagindex::TagIndex;

/// Tag programmed into one decoder line: which context and which
/// architectural line of that context currently own the physical line.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LineTag {
    /// Owning context.
    pub cid: Cid,
    /// Architectural line index within the context
    /// (`offset / regs_per_line`).
    pub line: u8,
}

impl LineTag {
    /// Packs the tag into the `TagIndex` key space (`cid` in the high
    /// half, `line` low — at most `0x00FF_FFFF`, safely below the table's
    /// empty-slot marker).
    #[inline]
    fn key(cid: Cid, line: u8) -> u32 {
        (u32::from(cid) << 8) | u32::from(line)
    }
}

/// A fully associative decoder over `lines` physical lines.
#[derive(Debug)]
pub struct AssocDecoder {
    tags: Vec<Option<LineTag>>,
    index: TagIndex,
    free: Vec<usize>,
    /// Residency index, addressed by context ID: each context's bound
    /// slots (unordered). An empty list means the context is absent; the
    /// lists keep their capacity across binds, so steady-state churn
    /// never allocates.
    by_ctx: Vec<Vec<usize>>,
    /// Number of contexts with at least one bound line (the count of
    /// non-empty `by_ctx` lists).
    resident: u32,
    /// For each bound slot, its position within its context's slot list
    /// (so unbinding is a swap-remove, not a search).
    ctx_pos: Vec<usize>,
}

impl AssocDecoder {
    /// Creates a decoder with all lines unbound.
    pub fn new(lines: usize) -> Self {
        AssocDecoder {
            tags: vec![None; lines],
            index: TagIndex::with_capacity(lines),
            free: (0..lines).rev().collect(),
            by_ctx: Vec::new(),
            resident: 0,
            ctx_pos: vec![0; lines],
        }
    }

    /// Number of physical lines.
    pub fn lines(&self) -> usize {
        self.tags.len()
    }

    /// Number of currently bound lines.
    pub fn bound(&self) -> usize {
        self.tags.len() - self.free.len()
    }

    /// CAM match: the physical slot bound to `<cid, line>`, if any.
    #[inline]
    pub fn lookup(&self, cid: Cid, line: u8) -> Option<usize> {
        self.index.get(LineTag::key(cid, line)).map(|s| s as usize)
    }

    /// The tag bound to a physical slot.
    pub fn tag(&self, slot: usize) -> Option<LineTag> {
        self.tags[slot]
    }

    /// Pops an unbound physical slot, if one exists.
    pub fn take_free(&mut self) -> Option<usize> {
        self.free.pop()
    }

    /// Programs `slot` with a new tag.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already bound or the tag already mapped —
    /// the register file must invalidate first (an internal invariant).
    pub fn bind(&mut self, slot: usize, cid: Cid, line: u8) {
        let tag = LineTag { cid, line };
        assert!(self.tags[slot].is_none(), "slot {slot} already bound");
        let prev = self.index.insert(LineTag::key(cid, line), slot as u32);
        assert!(prev.is_none(), "tag {tag:?} bound twice");
        self.tags[slot] = Some(tag);
        if self.by_ctx.len() <= usize::from(cid) {
            self.by_ctx.resize_with(usize::from(cid) + 1, Vec::new);
        }
        let slots = &mut self.by_ctx[usize::from(cid)];
        if slots.is_empty() {
            self.resident += 1;
        }
        self.ctx_pos[slot] = slots.len();
        slots.push(slot);
    }

    /// Removes `slot` from its context's residency list (swap-remove,
    /// updating the displaced slot's stored position). The caller has
    /// already taken `slot`'s tag.
    fn drop_from_ctx(&mut self, cid: Cid, slot: usize) {
        let slots = &mut self.by_ctx[usize::from(cid)];
        let pos = self.ctx_pos[slot];
        debug_assert_eq!(slots[pos], slot);
        slots.swap_remove(pos);
        if let Some(&moved) = slots.get(pos) {
            self.ctx_pos[moved] = pos;
        }
        if slots.is_empty() {
            self.resident -= 1;
        }
    }

    /// Clears `slot`, returning its previous tag (if it was bound).
    pub fn unbind(&mut self, slot: usize) -> Option<LineTag> {
        let tag = self.tags[slot].take()?;
        self.index.remove(LineTag::key(tag.cid, tag.line));
        self.drop_from_ctx(tag.cid, slot);
        self.free.push(slot);
        Some(tag)
    }

    /// Unbinds every line of `cid`, invoking `f(slot)` per line in
    /// ascending slot order (the order the historical tag scan released
    /// slots in, which fixes the free-list pop order and therefore the
    /// exact slot-assignment sequence downstream).
    pub fn unbind_context(&mut self, cid: Cid, mut f: impl FnMut(usize)) {
        let Some(slots) = self.by_ctx.get_mut(usize::from(cid)) else {
            return;
        };
        if slots.is_empty() {
            return;
        }
        let mut slots = std::mem::take(slots);
        slots.sort_unstable();
        for &slot in &slots {
            let tag = self.tags[slot].take().expect("indexed slot is bound");
            debug_assert_eq!(tag.cid, cid);
            self.index.remove(LineTag::key(tag.cid, tag.line));
            self.free.push(slot);
            f(slot);
        }
        slots.clear();
        // Hand the (empty, capacity-bearing) list back to its cell so the
        // context's next bind doesn't reallocate.
        self.by_ctx[usize::from(cid)] = slots;
        self.resident -= 1;
    }

    /// Whether context `cid` has at least one bound line — the O(1) query
    /// behind every simulated context switch.
    #[inline]
    pub fn has_context(&self, cid: Cid) -> bool {
        self.by_ctx
            .get(usize::from(cid))
            .is_some_and(|v| !v.is_empty())
    }

    /// The physical slots currently bound to context `cid`, in no
    /// particular order.
    pub fn slots_of(&self, cid: Cid) -> &[usize] {
        self.by_ctx
            .get(usize::from(cid))
            .map_or(&[], |v| v.as_slice())
    }

    /// Number of distinct contexts with at least one bound line.
    pub fn resident_contexts(&self) -> u32 {
        self.resident
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_lookup_unbind() {
        let mut d = AssocDecoder::new(4);
        assert_eq!(d.lines(), 4);
        let s = d.take_free().unwrap();
        d.bind(s, 7, 3);
        assert_eq!(d.lookup(7, 3), Some(s));
        assert_eq!(d.lookup(7, 2), None);
        assert_eq!(d.bound(), 1);
        assert!(d.has_context(7));
        assert_eq!(d.unbind(s), Some(LineTag { cid: 7, line: 3 }));
        assert_eq!(d.lookup(7, 3), None);
        assert_eq!(d.bound(), 0);
        assert!(!d.has_context(7));
    }

    #[test]
    fn exhausts_free_slots() {
        let mut d = AssocDecoder::new(2);
        let a = d.take_free().unwrap();
        let b = d.take_free().unwrap();
        assert_ne!(a, b);
        assert_eq!(d.take_free(), None);
    }

    #[test]
    fn slots_of_and_residency() {
        let mut d = AssocDecoder::new(4);
        for (cid, line) in [(1u16, 0u8), (1, 1), (2, 0)] {
            let s = d.take_free().unwrap();
            d.bind(s, cid, line);
        }
        assert_eq!(d.slots_of(1).len(), 2);
        assert_eq!(d.slots_of(2).len(), 1);
        assert_eq!(d.slots_of(3).len(), 0);
        assert_eq!(d.resident_contexts(), 2);
    }

    #[test]
    fn unbind_context_releases_in_ascending_slot_order() {
        let mut d = AssocDecoder::new(8);
        // Free slots pop in ascending order, so cid 5 lands in 0, 1, 2
        // and cid 9 in 3. Unbind 2 and 0, rebind them to cid 5 in the
        // order 2, then 0, so the residency list is scrambled: [1, 2, 0].
        for line in 0..3u8 {
            let s = d.take_free().unwrap();
            d.bind(s, 5, line);
        }
        let other = d.take_free().unwrap();
        d.bind(other, 9, 0);
        d.unbind(2);
        d.unbind(0);
        let s = d.take_free().unwrap(); // 0 (last freed)
        d.bind(s, 5, 0);
        let s = d.take_free().unwrap(); // 2
        d.bind(s, 5, 2);
        let mut released = Vec::new();
        d.unbind_context(5, |s| released.push(s));
        assert_eq!(released, vec![0, 1, 2], "ascending slot order");
        assert!(!d.has_context(5));
        assert!(d.has_context(9));
        assert_eq!(d.resident_contexts(), 1);
        // The freed slots pop back LIFO: 2 first (the seed's order).
        assert_eq!(d.take_free(), Some(2));
    }

    #[test]
    fn unbind_context_of_absent_context_is_noop() {
        let mut d = AssocDecoder::new(2);
        let mut called = false;
        d.unbind_context(3, |_| called = true);
        assert!(!called);
    }

    #[test]
    fn residency_index_survives_swap_remove_churn() {
        let mut d = AssocDecoder::new(6);
        let slots: Vec<usize> = (0..6)
            .map(|i| {
                let s = d.take_free().unwrap();
                d.bind(s, 1, i as u8);
                s
            })
            .collect();
        // Unbind from the middle to force swap-remove position fixups.
        d.unbind(slots[2]);
        d.unbind(slots[0]);
        d.unbind(slots[4]);
        let mut left: Vec<usize> = d.slots_of(1).to_vec();
        left.sort_unstable();
        let mut want = vec![slots[1], slots[3], slots[5]];
        want.sort_unstable();
        assert_eq!(left, want);
        assert_eq!(d.resident_contexts(), 1);
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn double_bind_panics() {
        let mut d = AssocDecoder::new(2);
        let s = d.take_free().unwrap();
        d.bind(s, 1, 0);
        d.bind(s, 1, 1);
    }

    #[test]
    fn unbound_slot_returns_none() {
        let mut d = AssocDecoder::new(1);
        assert_eq!(d.unbind(0), None);
    }
}
