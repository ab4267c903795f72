//! Sparse main memory.

use crate::{Addr, Word};
use std::cell::Cell;

/// Words per page: 1 Ki words, 4 KiB.
const PAGE_WORDS: usize = 1 << PAGE_SHIFT;
const PAGE_SHIFT: u32 = 10;

/// Pages per second-level table: 1 Ki page indices, 4 KiB. The top
/// level is indexed by `addr >> (PAGE_SHIFT + TABLE_SHIFT)`, so it holds
/// at most 4 Ki entries (16 KiB) for the full 32-bit space and 1 Ki
/// (4 KiB) for a simulator whose backing arena starts at `0x4000_0000`.
const TABLE_PAGES: usize = 1 << TABLE_SHIFT;
const TABLE_SHIFT: u32 = 10;

/// Index sentinel: no table or page here. Arena indices stay below
/// `2^(32 - PAGE_SHIFT)`, and so do page numbers, so `u32::MAX` is never
/// a real index and never a real page number (it marks the empty
/// last-page cache too).
const NONE: u32 = u32::MAX;

type Page = [Word; PAGE_WORDS];
type Table = [u32; TABLE_PAGES];

#[inline]
fn split(addr: Addr) -> (u32, usize) {
    (addr >> PAGE_SHIFT, (addr as usize) & (PAGE_WORDS - 1))
}

/// A sparse, word-addressed main memory.
///
/// Pages are allocated lazily on first write; unwritten words read as
/// zero, like freshly mapped pages. This is the *functional* home of all
/// data — the [`crate::Cache`] in front of it models timing only.
///
/// Storage is a two-level page table over two arenas, so the memory
/// held is the memory written: one 4 KiB page per page touched, one
/// 4 KiB second-level table per 4 MiB region touched, and a top level
/// of one `u32` per 4 MiB up to the highest region written. The top
/// level (indexed by `addr >> 20`, grown on demand by writes) holds
/// indices into the table arena; a table holds indices into the page
/// arena. Every access is a bounds check plus three dependent loads —
/// no hashing anywhere on the simulator's per-instruction path. A
/// single-entry last-page cache, shared by [`read`](Self::read) /
/// [`write`](Self::write) / [`peek`](Self::peek) and the bulk paths,
/// keeps the most recently touched resident page with its arena index,
/// so the common same-page access is one compare and one indexed load.
/// The cache only ever names a resident page and pages are never
/// unmapped, so the cached index stays valid for the life of the
/// memory. Reads never map anything and never grow the directory.
pub struct MainMemory {
    /// Table-arena index per 4 MiB region, or [`NONE`].
    top: Vec<u32>,
    /// Second-level tables: page-arena index per page, or [`NONE`].
    tables: Vec<Table>,
    /// Every resident page, in the order first written.
    pages: Vec<Page>,
    /// `(page number, page-arena index)` of the most recently touched
    /// resident page, or `(NONE, NONE)`.
    last: Cell<(u32, u32)>,
    reads: u64,
    writes: u64,
}

impl Default for MainMemory {
    fn default() -> Self {
        MainMemory {
            top: Vec::new(),
            tables: Vec::new(),
            pages: Vec::new(),
            last: Cell::new((NONE, NONE)),
            reads: 0,
            writes: 0,
        }
    }
}

impl MainMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// The page-arena index of `page` if it is resident, updating the
    /// last-page cache.
    #[inline]
    fn resident(&self, page: u32) -> Option<usize> {
        let (last, index) = self.last.get();
        if page == last {
            return Some(index as usize);
        }
        let table = *self.top.get((page >> TABLE_SHIFT) as usize)?;
        if table == NONE {
            return None;
        }
        let index = self.tables[table as usize][page as usize & (TABLE_PAGES - 1)];
        if index == NONE {
            return None;
        }
        self.last.set((page, index));
        Some(index as usize)
    }

    #[inline]
    fn lookup(&self, addr: Addr) -> Word {
        let (page, off) = split(addr);
        match self.resident(page) {
            Some(index) => self.pages[index][off],
            None => 0,
        }
    }

    /// Reads the word at `addr` (zero if never written).
    #[inline]
    pub fn read(&mut self, addr: Addr) -> Word {
        self.reads += 1;
        self.lookup(addr)
    }

    /// Reads without touching access statistics (for debugging/inspection).
    #[inline]
    pub fn peek(&self, addr: Addr) -> Word {
        self.lookup(addr)
    }

    /// Writes `value` at `addr`, allocating the page if needed.
    #[inline]
    pub fn write(&mut self, addr: Addr, value: Word) {
        self.writes += 1;
        let (page, off) = split(addr);
        self.page_mut(page)[off] = value;
    }

    /// The page's storage, mapping it as needed (writes only — reads of
    /// unmapped words must not map them).
    #[inline]
    fn page_mut(&mut self, page: u32) -> &mut Page {
        let index = match self.resident(page) {
            Some(index) => index,
            None => self.map(page),
        };
        &mut self.pages[index]
    }

    /// Maps a non-resident `page`: grows the top level and adds a
    /// second-level table as needed, then appends a zeroed page.
    fn map(&mut self, page: u32) -> usize {
        let region = (page >> TABLE_SHIFT) as usize;
        if region >= self.top.len() {
            self.top.resize(region + 1, NONE);
        }
        if self.top[region] == NONE {
            self.top[region] = self.tables.len() as u32;
            self.tables.push([NONE; TABLE_PAGES]);
        }
        let slot = &mut self.tables[self.top[region] as usize][page as usize & (TABLE_PAGES - 1)];
        debug_assert_eq!(*slot, NONE, "map is only called for a non-resident page");
        *slot = self.pages.len() as u32;
        self.pages.push([0; PAGE_WORDS]);
        self.last.set((page, *slot));
        *slot as usize
    }

    /// Writes a slice of words starting at `addr`, one directory probe
    /// and one `copy_from_slice` per page spanned.
    pub fn write_block(&mut self, addr: Addr, values: &[Word]) {
        self.writes += values.len() as u64;
        let mut addr = addr;
        let mut values = values;
        while !values.is_empty() {
            let (page, off) = split(addr);
            let n = (PAGE_WORDS - off).min(values.len());
            self.page_mut(page)[off..off + n].copy_from_slice(&values[..n]);
            addr = addr.wrapping_add(n as Addr);
            values = &values[n..];
        }
    }

    /// Reads `out.len()` words starting at `addr` into `out` without
    /// allocating, one directory probe and one `copy_from_slice` per
    /// page spanned. Unwritten ranges fill with zero.
    pub fn read_into(&mut self, addr: Addr, out: &mut [Word]) {
        self.reads += out.len() as u64;
        let mut addr = addr;
        let mut out = &mut out[..];
        while !out.is_empty() {
            let (page, off) = split(addr);
            let n = (PAGE_WORDS - off).min(out.len());
            let (head, rest) = out.split_at_mut(n);
            match self.resident(page) {
                Some(index) => head.copy_from_slice(&self.pages[index][off..off + n]),
                None => head.fill(0),
            }
            addr = addr.wrapping_add(n as Addr);
            out = rest;
        }
    }

    /// Reads `len` words starting at `addr`.
    pub fn read_block(&mut self, addr: Addr, len: usize) -> Vec<Word> {
        let mut out = vec![0; len];
        self.read_into(addr, &mut out);
        out
    }

    /// Total word reads performed.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Total word writes performed.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Number of resident (written) 4 KiB pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Words per second-level table's span.
    const TABLE_WORDS: Addr = 1 << (PAGE_SHIFT + TABLE_SHIFT);

    #[test]
    fn unwritten_reads_zero() {
        let mut m = MainMemory::new();
        assert_eq!(m.read(0), 0);
        assert_eq!(m.read(u32::MAX), 0);
        assert_eq!(m.resident_pages(), 0, "reads must not map pages");
        assert!(m.top.is_empty(), "reads must not grow the directory");
    }

    #[test]
    fn write_then_read() {
        let mut m = MainMemory::new();
        m.write(1234, 0xDEAD_BEEF);
        assert_eq!(m.read(1234), 0xDEAD_BEEF);
        assert_eq!(m.peek(1234), 0xDEAD_BEEF);
        assert_eq!(m.read(1235), 0);
    }

    #[test]
    fn blocks_roundtrip_across_page_boundary() {
        let mut m = MainMemory::new();
        let base = (PAGE_WORDS - 2) as Addr; // straddles pages 0 and 1
        m.write_block(base, &[1, 2, 3, 4]);
        assert_eq!(m.read_block(base, 4), vec![1, 2, 3, 4]);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn blocks_roundtrip_across_table_boundary() {
        let mut m = MainMemory::new();
        let base = TABLE_WORDS - 2; // straddles the first two tables
        m.write_block(base, &[1, 2, 3, 4]);
        assert_eq!(m.read_block(base, 4), vec![1, 2, 3, 4]);
        assert_eq!((m.resident_pages(), m.tables.len()), (2, 2));
    }

    #[test]
    fn read_into_matches_read_block() {
        let mut m = MainMemory::new();
        let base = (PAGE_WORDS - 3) as Addr;
        m.write_block(base, &[7, 8, 9, 10, 11]);
        let mut buf = [0; 8];
        m.read_into(base.wrapping_sub(1), &mut buf);
        assert_eq!(buf, [0, 7, 8, 9, 10, 11, 0, 0]);
    }

    #[test]
    fn stats_count() {
        let mut m = MainMemory::new();
        m.write(0, 1);
        m.read(0);
        m.read(1);
        assert_eq!(m.writes(), 1);
        assert_eq!(m.reads(), 2);
    }

    #[test]
    fn high_address_write_after_low() {
        let mut m = MainMemory::new();
        m.write(3, 30);
        m.write(0x4000_0000, 40); // backing arena: grows the directory
        m.write(5, 50); // page 0 again (last-page cache miss path)
        assert_eq!(m.peek(3), 30);
        assert_eq!(m.peek(0x4000_0000), 40);
        assert_eq!(m.peek(5), 50);
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(m.top.len(), (0x4000_0000 / TABLE_WORDS) as usize + 1);
    }

    #[test]
    fn last_word_of_the_address_space() {
        let mut m = MainMemory::new();
        m.write(u32::MAX, 9);
        assert_eq!(m.peek(u32::MAX), 9);
        assert_eq!(m.peek(u32::MAX - 1), 0);
        assert_eq!(m.top.len(), 1 << (32 - PAGE_SHIFT - TABLE_SHIFT));
        assert_eq!(m.resident_pages(), 1);
    }
}
