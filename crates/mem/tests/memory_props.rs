//! Differential property tests of [`MainMemory`]'s two-level page
//! table against the original hashed implementation.
//!
//! The production memory replaced a `HashMap<page, Box<[Word]>>` with a
//! page-table directory plus a last-page cache; this file keeps the
//! hashed form alive as a reference model and drives random operation
//! streams through both, demanding word-for-word equality and identical
//! `reads()` / `writes()` / `resident_pages()` accounting.

use nsf_mem::{Addr, MainMemory, Word};
use proptest::prelude::*;
use std::collections::HashMap;

/// Page geometry mirrored from `nsf_mem::memory` (private constants).
/// `resident_pages()` equality only holds if both models page the
/// address space identically, so a drift here fails the tests loudly.
const PAGE_WORDS: usize = 1 << PAGE_SHIFT;
const PAGE_SHIFT: u32 = 10;

/// Words spanned by one second-level table of the directory: the edges
/// where a walk moves from one table to the next.
const TABLE_WORDS: Addr = 1 << 20;

/// The pre-flattening `MainMemory`: a hashed page map with per-word
/// block transfers, preserved as the reference model.
#[derive(Default)]
struct HashedMemory {
    pages: HashMap<u32, Box<[Word]>>,
    reads: u64,
    writes: u64,
}

impl HashedMemory {
    fn read(&mut self, addr: Addr) -> Word {
        self.reads += 1;
        self.peek(addr)
    }

    fn peek(&self, addr: Addr) -> Word {
        let page = addr >> PAGE_SHIFT;
        let off = (addr as usize) & (PAGE_WORDS - 1);
        self.pages.get(&page).map_or(0, |p| p[off])
    }

    fn write(&mut self, addr: Addr, value: Word) {
        self.writes += 1;
        let page = addr >> PAGE_SHIFT;
        let off = (addr as usize) & (PAGE_WORDS - 1);
        self.pages
            .entry(page)
            .or_insert_with(|| vec![0; PAGE_WORDS].into_boxed_slice())[off] = value;
    }

    fn write_block(&mut self, addr: Addr, values: &[Word]) {
        for (i, &v) in values.iter().enumerate() {
            self.write(addr.wrapping_add(i as Addr), v);
        }
    }

    fn read_block(&mut self, addr: Addr, len: usize) -> Vec<Word> {
        (0..len)
            .map(|i| self.read(addr.wrapping_add(i as Addr)))
            .collect()
    }

    fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

/// One memory operation; block lengths stay small so streams exercise
/// page-boundary chunking without dominating the run time.
#[derive(Clone, Debug)]
enum Op {
    Read(Addr),
    Peek(Addr),
    Write(Addr, Word),
    WriteBlock(Addr, Vec<Word>),
    ReadBlock(Addr, usize),
    ReadInto(Addr, usize),
}

/// Addresses cluster around page and directory edges in a few regions
/// so streams revisit pages, straddle page edges, and still hit the
/// sparse far corners: words on both sides of a second-level table
/// boundary, the simulator's save-area arena at `0x4000_0000` (itself a
/// table boundary), and the last page of the address space, where block
/// transfers wrap to address 0 in both models alike.
fn arb_addr() -> impl Strategy<Value = Addr> {
    let near = |base: Addr| (0u32..2 * PAGE_WORDS as u32).prop_map(move |d| base + d);
    let around = |edge: Addr| near(edge - PAGE_WORDS as Addr);
    prop_oneof![
        near(0),
        near((PAGE_WORDS - 8) as Addr),
        around(TABLE_WORDS),
        around(7 * TABLE_WORDS),
        near(0x4000_0000),
        around(0x4000_0000),
        u32::MAX - 2 * PAGE_WORDS as u32..=u32::MAX,
        any::<Addr>(),
    ]
}

/// Block starts: any address above, or one a few words before a
/// second-level table boundary, so runs of up to 96 words straddle it.
fn arb_block_addr() -> impl Strategy<Value = Addr> {
    let straddle = |edge: Addr| (1u32..64).prop_map(move |d| edge.wrapping_sub(d));
    prop_oneof![
        arb_addr(),
        straddle(TABLE_WORDS),
        straddle(0x4000_0000),
        straddle(0),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_addr().prop_map(Op::Read),
        arb_addr().prop_map(Op::Peek),
        (arb_addr(), any::<Word>()).prop_map(|(a, v)| Op::Write(a, v)),
        (
            arb_block_addr(),
            proptest::collection::vec(any::<Word>(), 0..96)
        )
            .prop_map(|(a, v)| Op::WriteBlock(a, v)),
        (arb_block_addr(), 0usize..96).prop_map(|(a, n)| Op::ReadBlock(a, n)),
        (arb_block_addr(), 0usize..96).prop_map(|(a, n)| Op::ReadInto(a, n)),
    ]
}

proptest! {
    /// Every operation returns identical words from both models, and
    /// the access counters and resident-page counts never diverge.
    #[test]
    fn flat_matches_hashed(ops in proptest::collection::vec(arb_op(), 1..120)) {
        let mut flat = MainMemory::new();
        let mut hashed = HashedMemory::default();
        for op in &ops {
            match *op {
                Op::Read(a) => prop_assert_eq!(flat.read(a), hashed.read(a)),
                Op::Peek(a) => prop_assert_eq!(flat.peek(a), hashed.peek(a)),
                Op::Write(a, v) => {
                    flat.write(a, v);
                    hashed.write(a, v);
                }
                Op::WriteBlock(a, ref v) => {
                    flat.write_block(a, v);
                    hashed.write_block(a, v);
                }
                Op::ReadBlock(a, n) => {
                    prop_assert_eq!(flat.read_block(a, n), hashed.read_block(a, n));
                }
                Op::ReadInto(a, n) => {
                    let mut buf = vec![0xA5A5_A5A5; n];
                    flat.read_into(a, &mut buf);
                    prop_assert_eq!(buf, hashed.read_block(a, n));
                }
            }
            prop_assert_eq!(flat.reads(), hashed.reads);
            prop_assert_eq!(flat.writes(), hashed.writes);
            prop_assert_eq!(flat.resident_pages(), hashed.resident_pages());
        }
    }

    /// Reads of unmapped pages return zero and map nothing, however the
    /// directory around them was grown by earlier writes.
    #[test]
    fn reads_never_map(
        writes in proptest::collection::vec(arb_addr(), 0..8),
        reads in proptest::collection::vec((arb_block_addr(), 0usize..200), 1..16),
    ) {
        let mut m = MainMemory::new();
        let mut hashed = HashedMemory::default();
        for &a in &writes {
            m.write(a, 1);
            hashed.write(a, 1);
        }
        let resident = m.resident_pages();
        for &(a, n) in &reads {
            prop_assert_eq!(m.peek(a), hashed.peek(a));
            prop_assert_eq!(m.read_block(a, n), hashed.read_block(a, n));
            prop_assert_eq!(m.resident_pages(), resident, "reads must not map pages");
        }
    }

    /// `read_into` counts one read per word, like the loop it replaced.
    #[test]
    fn read_into_counts_per_word(addr in arb_block_addr(), len in 0usize..200) {
        let mut m = MainMemory::new();
        let mut buf = vec![0; len];
        m.read_into(addr, &mut buf);
        prop_assert_eq!(m.reads(), len as u64);
        prop_assert_eq!(m.resident_pages(), 0, "reads must not map pages");
    }
}
