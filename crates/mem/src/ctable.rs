//! The Ctable: Context ID → virtual-address translation.
//!
//! Paper §4.3: "The block labelled Ctable is a short table indexed by
//! Context ID that returns the virtual address of a context. This allows
//! the NSF to spill registers directly into the data cache. A user program
//! or thread scheduler may use any strategy for mapping register contexts
//! to structures in memory, simply by writing the translation into the
//! Ctable."

use crate::Addr;
use std::fmt;

/// Error produced when the Ctable has no mapping for a Context ID.
///
/// Spilling a register of an unmapped context is a runtime-software bug
/// (the scheduler must install a mapping before the context runs), so the
/// simulator surfaces it as a typed error rather than a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtableError {
    /// The unmapped Context ID.
    pub cid: u16,
}

impl fmt::Display for CtableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Ctable has no backing-store mapping for context {}",
            self.cid
        )
    }
}

impl std::error::Error for CtableError {}

/// The translation table. Indexed by CID; each entry is the virtual base
/// address of the context's register save area.
///
/// The entries grow to the highest context mapped so far, so a memory
/// system that runs a few contexts holds a few entries, not `capacity`.
#[derive(Clone, Debug)]
pub struct Ctable {
    entries: Vec<Option<Addr>>,
    capacity: usize,
}

impl Ctable {
    /// Creates a table with room for `capacity` Context IDs.
    pub fn new(capacity: usize) -> Self {
        Ctable {
            entries: Vec::new(),
            capacity,
        }
    }

    /// Number of CID slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Installs (or replaces) the mapping for `cid`; a `cid` beyond the
    /// table's capacity has no entry to hold it and is an error.
    pub fn map(&mut self, cid: u16, base: Addr) -> Result<(), CtableError> {
        let index = cid as usize;
        if index >= self.capacity {
            return Err(CtableError { cid });
        }
        if index >= self.entries.len() {
            self.entries.resize(index + 1, None);
        }
        self.entries[index] = Some(base);
        Ok(())
    }

    /// Removes the mapping for `cid` (e.g. when a context is destroyed);
    /// a `cid` beyond the table has nothing to remove.
    #[inline]
    pub fn unmap(&mut self, cid: u16) {
        if let Some(entry) = self.entries.get_mut(cid as usize) {
            *entry = None;
        }
    }

    /// Translates `cid` to its backing-store base address.
    #[inline]
    pub fn lookup(&self, cid: u16) -> Result<Addr, CtableError> {
        self.entries
            .get(cid as usize)
            .copied()
            .flatten()
            .ok_or(CtableError { cid })
    }

    /// The backing address of register `offset` of context `cid`.
    #[inline]
    pub fn reg_addr(&self, cid: u16, offset: u8) -> Result<Addr, CtableError> {
        Ok(self.lookup(cid)? + Addr::from(offset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_lookup_unmap() {
        let mut t = Ctable::new(8);
        assert_eq!(t.lookup(3), Err(CtableError { cid: 3 }));
        t.map(3, 0x1000).unwrap();
        assert_eq!(t.lookup(3), Ok(0x1000));
        assert_eq!(t.reg_addr(3, 7), Ok(0x1007));
        t.unmap(3);
        assert!(t.lookup(3).is_err());
    }

    #[test]
    fn out_of_capacity_lookup_is_error() {
        let mut t = Ctable::new(2);
        assert_eq!(t.lookup(9), Err(CtableError { cid: 9 }));
        assert_eq!(t.map(9, 0x1000), Err(CtableError { cid: 9 }));
        t.unmap(9);
    }

    #[test]
    fn mapping_past_the_current_length_grows_within_capacity() {
        let mut t = Ctable::new(16);
        t.map(2, 0x100).unwrap();
        assert_eq!(t.entries.len(), 3);
        t.map(11, 0x200).unwrap();
        assert_eq!(t.entries.len(), 12);
        assert_eq!((t.lookup(2), t.lookup(11)), (Ok(0x100), Ok(0x200)));
        assert_eq!(t.lookup(7), Err(CtableError { cid: 7 }));
        assert_eq!(t.lookup(14), Err(CtableError { cid: 14 }));
        t.map(15, 0x300).unwrap();
        assert_eq!(t.map(16, 0x400), Err(CtableError { cid: 16 }));
        assert_eq!((t.capacity(), t.entries.len()), (16, 16));
    }

    #[test]
    fn error_displays_cid() {
        let e = CtableError { cid: 5 };
        assert!(e.to_string().contains('5'));
    }
}
