//! Sparse main memory.

use crate::{Addr, Word};
use std::cell::Cell;

/// Words per page. Large pages keep the directory small even for the
/// backing-store arena high in the address space (`0x4000_0000`): the
/// directory tops out at 64 Ki entries (512 KiB) for the full 32-bit
/// space and ~16 Ki entries for a simulator that spills.
const PAGE_WORDS: usize = 1 << PAGE_SHIFT;
const PAGE_SHIFT: u32 = 16;

/// Directory-cache sentinel: no page touched yet. Page numbers occupy
/// at most `32 - PAGE_SHIFT` bits, so `u32::MAX` can never collide.
const NO_PAGE: u32 = u32::MAX;

type Page = [Word; PAGE_WORDS];

/// Allocates a zeroed page on the heap without staging it on the stack.
fn new_page() -> Box<Page> {
    vec![0 as Word; PAGE_WORDS]
        .into_boxed_slice()
        .try_into()
        .expect("length matches PAGE_WORDS")
}

#[inline]
fn split(addr: Addr) -> (usize, usize) {
    (
        (addr >> PAGE_SHIFT) as usize,
        (addr as usize) & (PAGE_WORDS - 1),
    )
}

/// A sparse, word-addressed main memory.
///
/// Pages are allocated lazily on first write; unwritten words read as
/// zero, like freshly mapped pages. This is the *functional* home of all
/// data — the [`crate::Cache`] in front of it models timing only.
///
/// Storage is a flat two-level page table: a dense directory (`Vec`
/// indexed by `addr >> PAGE_SHIFT`, grown on demand by writes) of
/// optional boxed pages. Every access is a bounds check plus two
/// dependent loads — no hashing anywhere on the simulator's
/// per-instruction path. A single-entry last-page cache, shared by
/// [`read`](Self::read) / [`write`](Self::write) / [`peek`](Self::peek),
/// remembers the most recently touched resident page so the common
/// same-page access skips the directory probe. The cache only ever
/// names a resident page and the directory never shrinks, so the cached
/// index stays valid for the life of the memory.
pub struct MainMemory {
    dir: Vec<Option<Box<Page>>>,
    /// Most recently touched *resident* page, or [`NO_PAGE`].
    last_page: Cell<u32>,
    resident: usize,
    reads: u64,
    writes: u64,
}

impl Default for MainMemory {
    fn default() -> Self {
        MainMemory {
            dir: Vec::new(),
            last_page: Cell::new(NO_PAGE),
            resident: 0,
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

    #[inline]
    fn lookup(&self, addr: Addr) -> Word {
        let (page, off) = split(addr);
        if page as u32 == self.last_page.get() {
            // Cache invariant: a cached page is resident, so the
            // directory slot exists and is `Some`.
            return match self.dir[page].as_deref() {
                Some(p) => p[off],
                None => unreachable!("last-page cache names a resident page"),
            };
        }
        match self.dir.get(page).and_then(|slot| slot.as_deref()) {
            Some(p) => {
                self.last_page.set(page as u32);
                p[off]
            }
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
        if page as u32 == self.last_page.get() {
            match self.dir[page].as_deref_mut() {
                Some(p) => p[off] = value,
                None => unreachable!("last-page cache names a resident page"),
            }
            return;
        }
        self.page_mut(page)[off] = value;
    }

    /// The page's storage, growing the directory and allocating the page
    /// as needed (writes only — reads of unmapped words must not map them).
    fn page_mut(&mut self, page: usize) -> &mut Page {
        if page >= self.dir.len() {
            self.dir.resize_with(page + 1, || None);
        }
        let slot = &mut self.dir[page];
        if slot.is_none() {
            *slot = Some(new_page());
            self.resident += 1;
        }
        self.last_page.set(page as u32);
        slot.as_deref_mut().expect("just filled")
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
            match self.dir.get(page).and_then(|slot| slot.as_deref()) {
                Some(p) => head.copy_from_slice(&p[off..off + n]),
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

    /// Number of resident (touched) pages.
    pub fn resident_pages(&self) -> usize {
        self.resident
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_reads_zero() {
        let mut m = MainMemory::new();
        assert_eq!(m.read(0), 0);
        assert_eq!(m.read(u32::MAX), 0);
        assert_eq!(m.resident_pages(), 0, "reads must not map pages");
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
    }
}
