//! Differential churn test for [`nsf_core::cam::AssocDecoder`].
//!
//! The hardware decoder (paper §4.1) is a tag array: a lookup compares
//! `<cid, line>` against every line, and freeing a context clears every
//! line whose tag names it. The reference model here is exactly that, a
//! scan over `Option<LineTag>` per slot, with the free list the decoder
//! has always kept: a stack seeded with slot 0 on top, which an unbind
//! pushes onto and a context teardown pushes in ascending slot order.
//!
//! Random sequences of `take_free` + `bind`, `unbind` and
//! `unbind_context` run through both. After every step the test compares
//! the lookup of every `<cid, line>` in a small universe (lines past the
//! context's last and contexts never bound included), `has_context`,
//! `resident_contexts`, `bound`, and every slot `take_free` hands out.
//! Teardown's released slots are compared in order, and at the end both
//! free lists are drained and compared slot by slot.

use nsf_core::cam::{AssocDecoder, LineTag};
use proptest::prelude::*;

/// Context IDs drawn for binds; lookups also probe one more.
const CIDS: u16 = 6;

/// The tag-array model of the decoder.
struct Scan {
    tags: Vec<Option<LineTag>>,
    free: Vec<usize>,
}

impl Scan {
    fn new(lines: usize) -> Self {
        Scan {
            tags: vec![None; lines],
            free: (0..lines).rev().collect(),
        }
    }

    fn lookup(&self, cid: u16, line: u8) -> Option<usize> {
        self.tags
            .iter()
            .position(|&t| t == Some(LineTag { cid, line }))
    }

    fn has_context(&self, cid: u16) -> bool {
        self.tags.iter().flatten().any(|t| t.cid == cid)
    }

    fn resident_contexts(&self) -> u32 {
        (0..=CIDS).filter(|&c| self.has_context(c)).count() as u32
    }

    fn unbind(&mut self, slot: usize) -> Option<LineTag> {
        let tag = self.tags[slot].take()?;
        self.free.push(slot);
        Some(tag)
    }

    fn unbind_context(&mut self, cid: u16) -> Vec<usize> {
        let mut released = Vec::new();
        for (slot, tag) in self.tags.iter_mut().enumerate() {
            if tag.is_some_and(|t| t.cid == cid) {
                *tag = None;
                self.free.push(slot);
                released.push(slot);
            }
        }
        released
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decoder_matches_a_scanned_tag_array(
        lines in 1usize..=12,
        ctx_lines in 1usize..=4,
        ops in proptest::collection::vec(
            (0u8..4, 0u16..CIDS, 0u8..4, 0usize..12),
            1..200,
        ),
    ) {
        let mut d = AssocDecoder::new(lines, ctx_lines);
        let mut m = Scan::new(lines);
        for (step, (kind, cid, line, slot)) in ops.into_iter().enumerate() {
            let line = line % ctx_lines as u8;
            let slot = slot % lines;
            match kind {
                0 | 1 => {
                    // Bind only a name not already bound, as the register
                    // file does.
                    if m.lookup(cid, line).is_none() {
                        let taken = d.take_free();
                        prop_assert_eq!(taken, m.free.pop(), "step {}: take_free", step);
                        if let Some(s) = taken {
                            d.bind(s, cid, line);
                            m.tags[s] = Some(LineTag { cid, line });
                        }
                    }
                }
                2 => prop_assert_eq!(d.unbind(slot), m.unbind(slot), "step {}: unbind", step),
                _ => {
                    let mut released = Vec::new();
                    d.unbind_context(cid, |s| released.push(s));
                    prop_assert_eq!(released, m.unbind_context(cid), "step {}: teardown", step);
                }
            }
            for c in 0..=CIDS {
                for l in (0..ctx_lines as u8 + 2).chain([u8::MAX]) {
                    prop_assert_eq!(
                        d.lookup(c, l),
                        m.lookup(c, l),
                        "step {}: lookup <{}, {}>",
                        step,
                        c,
                        l
                    );
                }
                prop_assert_eq!(d.has_context(c), m.has_context(c), "step {}: cid {}", step, c);
            }
            for s in 0..lines {
                prop_assert_eq!(d.tag(s), m.tags[s], "step {}: tag of slot {}", step, s);
            }
            prop_assert_eq!(d.resident_contexts(), m.resident_contexts());
            prop_assert_eq!(d.bound(), lines - m.free.len());
        }
        let mut drained = Vec::new();
        while let Some(s) = d.take_free() {
            drained.push(s);
        }
        m.free.reverse();
        prop_assert_eq!(drained, m.free, "free-list order");
    }
}
