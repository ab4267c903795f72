//! The associative address decoder.
//!
//! Paper §4.1: "Each line of the address decoder contains a content
//! addressable memory (CAM) wide enough to hold a register address. The
//! NSF binds a register name to a line in the register file by programming
//! that line of the address decoder. Subsequent register reads and writes
//! compare an operand address against the address programmed into each
//! line of the decoder."
//!
//! Hardware performs the comparison in every line simultaneously. The
//! model keeps the tag array (slot → `<cid, line>`) and, beside it, one
//! index in the other direction: a **line table** with a row of
//! `ctx_lines` entries per context, so `<cid, line>` → slot is one array
//! load at `cid * ctx_lines + line`. The table can be dense because the
//! runtime hands out context IDs densely from 0 and recycles them: rows
//! exist only up to the highest context ever bound (a few hundred in the
//! paper's programs, at most the Ctable size in any run), and a row is
//! a few dozen `u32`s. A per-context count of bound lines answers
//! `has_context`, which `switch_to` asks on every simulated context
//! switch, and `resident_contexts` without a scan; context teardown walks
//! the context's row. Every query is O(1) per line, no access hashes, and
//! steady-state churn never allocates: the table grows only when a
//! context ID above every one bound before is bound.

use crate::addr::Cid;

/// Tag programmed into one decoder line: which context and which
/// architectural line of that context currently own the physical line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LineTag {
    /// Owning context.
    pub cid: Cid,
    /// Architectural line index within the context
    /// (`offset / regs_per_line`).
    pub line: u8,
}

/// A line-table entry with no slot bound.
const UNBOUND: u32 = u32::MAX;

/// A fully associative decoder over `lines` physical lines, for contexts
/// of `ctx_lines` architectural lines each.
#[derive(Debug)]
pub struct AssocDecoder {
    tags: Vec<Option<LineTag>>,
    /// Architectural lines per context: the line table's row length.
    ctx_lines: usize,
    /// The line table: `table[cid * ctx_lines + line]` is the slot bound
    /// to `<cid, line>`, or [`UNBOUND`]. Rows reach the highest context
    /// bound so far.
    table: Vec<u32>,
    /// Bound lines per context, addressed by context ID (as long as the
    /// table has rows).
    counts: Vec<u32>,
    /// Number of contexts with at least one bound line (the non-zero
    /// `counts`).
    resident: u32,
    free: Vec<usize>,
}

impl AssocDecoder {
    /// Creates a decoder with all `lines` physical lines unbound, for
    /// contexts of `ctx_lines` architectural lines.
    pub fn new(lines: usize, ctx_lines: usize) -> Self {
        AssocDecoder {
            tags: vec![None; lines],
            ctx_lines,
            table: Vec::new(),
            counts: Vec::new(),
            resident: 0,
            free: (0..lines).rev().collect(),
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

    /// CAM match: the physical slot bound to `<cid, line>`, if any. A line
    /// past the context's last matches nothing.
    #[inline]
    pub fn lookup(&self, cid: Cid, line: u8) -> Option<usize> {
        let line = usize::from(line);
        if line >= self.ctx_lines {
            return None;
        }
        match self.table.get(usize::from(cid) * self.ctx_lines + line) {
            Some(&slot) if slot != UNBOUND => Some(slot as usize),
            _ => None,
        }
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
    /// Panics if the slot is already bound, the tag already mapped or the
    /// line past the context's last — the register file must invalidate
    /// first and split offsets itself (internal invariants).
    pub fn bind(&mut self, slot: usize, cid: Cid, line: u8) {
        let tag = LineTag { cid, line };
        assert!(self.tags[slot].is_none(), "slot {slot} already bound");
        assert!(
            usize::from(line) < self.ctx_lines,
            "line {line} past a context"
        );
        let ctx = usize::from(cid);
        if self.counts.len() <= ctx {
            self.counts.resize(ctx + 1, 0);
            self.table.resize((ctx + 1) * self.ctx_lines, UNBOUND);
        }
        let entry = &mut self.table[ctx * self.ctx_lines + usize::from(line)];
        assert!(*entry == UNBOUND, "tag {tag:?} bound twice");
        *entry = slot as u32;
        self.tags[slot] = Some(tag);
        if self.counts[ctx] == 0 {
            self.resident += 1;
        }
        self.counts[ctx] += 1;
    }

    /// Clears `slot`, returning its previous tag (if it was bound).
    pub fn unbind(&mut self, slot: usize) -> Option<LineTag> {
        let tag = self.tags[slot].take()?;
        let ctx = usize::from(tag.cid);
        self.table[ctx * self.ctx_lines + usize::from(tag.line)] = UNBOUND;
        self.counts[ctx] -= 1;
        if self.counts[ctx] == 0 {
            self.resident -= 1;
        }
        self.free.push(slot);
        Some(tag)
    }

    /// Unbinds every line of `cid`, invoking `f(slot)` per line in
    /// ascending slot order. The slots join the free list in that order
    /// too (the order the historical tag scan released them in), which
    /// fixes the free-list pop order and therefore the exact
    /// slot-assignment sequence downstream.
    pub fn unbind_context(&mut self, cid: Cid, mut f: impl FnMut(usize)) {
        let ctx = usize::from(cid);
        if !self.has_context(cid) {
            return;
        }
        let start = self.free.len();
        let row = ctx * self.ctx_lines;
        for entry in &mut self.table[row..row + self.ctx_lines] {
            if *entry != UNBOUND {
                let slot = *entry as usize;
                self.tags[slot] = None;
                self.free.push(slot);
                *entry = UNBOUND;
            }
        }
        // Sorted in place: the free list has room for every slot.
        self.free[start..].sort_unstable();
        for &slot in &self.free[start..] {
            f(slot);
        }
        self.counts[ctx] = 0;
        self.resident -= 1;
    }

    /// Whether context `cid` has at least one bound line — the O(1) query
    /// behind every simulated context switch.
    #[inline]
    pub fn has_context(&self, cid: Cid) -> bool {
        self.counts.get(usize::from(cid)).is_some_and(|&n| n > 0)
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
        let mut d = AssocDecoder::new(4, 8);
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
        let mut d = AssocDecoder::new(2, 1);
        let a = d.take_free().unwrap();
        let b = d.take_free().unwrap();
        assert_ne!(a, b);
        assert_eq!(d.take_free(), None);
    }

    #[test]
    fn lookup_and_residency() {
        let mut d = AssocDecoder::new(4, 2);
        for (cid, line) in [(1u16, 0u8), (1, 1), (2, 0)] {
            let s = d.take_free().unwrap();
            d.bind(s, cid, line);
        }
        assert_eq!((d.lookup(1, 0), d.lookup(1, 1)), (Some(0), Some(1)));
        assert_eq!((d.lookup(2, 0), d.lookup(2, 1)), (Some(2), None));
        assert!(d.has_context(1) && d.has_context(2));
        assert!(!d.has_context(0) && !d.has_context(3));
        assert_eq!(d.lookup(3, 0), None);
        assert_eq!(d.resident_contexts(), 2);
    }

    #[test]
    fn a_line_past_the_context_matches_nothing() {
        // Two lines per context: <1, 2> would be <2, 0>'s table entry.
        let mut d = AssocDecoder::new(4, 2);
        let s = d.take_free().unwrap();
        d.bind(s, 2, 0);
        assert_eq!(d.lookup(2, 0), Some(s));
        assert_eq!(d.lookup(1, 2), None);
        assert_eq!(d.lookup(1, u8::MAX), None);
        assert_eq!(d.lookup(2, 2), None);
    }

    #[test]
    #[should_panic(expected = "past a context")]
    fn binding_a_line_past_the_context_panics() {
        let mut d = AssocDecoder::new(4, 2);
        d.bind(0, 1, 2);
    }

    #[test]
    fn unbind_context_releases_in_ascending_slot_order() {
        let mut d = AssocDecoder::new(8, 4);
        // Free slots pop in ascending order, so cid 5 lands in 0, 1, 2
        // and cid 9 in 3. Unbind 2 and 0, rebind them to cid 5 in the
        // order 2, then 0, so the context's row no longer lists its slots
        // in slot order: lines 0, 1, 2 hold slots 2, 1, 0.
        for line in 0..3u8 {
            let s = d.take_free().unwrap();
            d.bind(s, 5, line);
        }
        let other = d.take_free().unwrap();
        d.bind(other, 9, 0);
        d.unbind(2);
        d.unbind(0);
        let s = d.take_free().unwrap(); // 0 (last freed)
        d.bind(s, 5, 2);
        let s = d.take_free().unwrap(); // 2
        d.bind(s, 5, 0);
        let mut released = Vec::new();
        d.unbind_context(5, |s| released.push(s));
        assert_eq!(released, vec![0, 1, 2], "ascending slot order");
        assert!(!d.has_context(5));
        assert!(d.has_context(9));
        assert_eq!(d.resident_contexts(), 1);
        assert_eq!(
            (d.lookup(5, 0), d.lookup(5, 1), d.lookup(5, 2)),
            (None, None, None)
        );
        // The freed slots pop back LIFO: 2 first (the seed's order).
        assert_eq!(d.take_free(), Some(2));
    }

    #[test]
    fn unbind_context_of_absent_context_is_noop() {
        let mut d = AssocDecoder::new(2, 1);
        let mut called = false;
        d.unbind_context(3, |_| called = true);
        assert!(!called);
    }

    #[test]
    fn unbinding_from_the_middle_keeps_the_rest_bound() {
        let mut d = AssocDecoder::new(6, 6);
        let slots: Vec<usize> = (0..6)
            .map(|i| {
                let s = d.take_free().unwrap();
                d.bind(s, 1, i as u8);
                s
            })
            .collect();
        d.unbind(slots[2]);
        d.unbind(slots[0]);
        d.unbind(slots[4]);
        for (line, &slot) in slots.iter().enumerate() {
            let want = (line % 2 == 1).then_some(slot);
            assert_eq!(d.lookup(1, line as u8), want, "line {line}");
        }
        assert!(d.has_context(1));
        assert_eq!(d.resident_contexts(), 1);
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn double_bind_panics() {
        let mut d = AssocDecoder::new(2, 2);
        let s = d.take_free().unwrap();
        d.bind(s, 1, 0);
        d.bind(s, 1, 1);
    }

    #[test]
    fn unbound_slot_returns_none() {
        let mut d = AssocDecoder::new(1, 1);
        assert_eq!(d.unbind(0), None);
    }
}
