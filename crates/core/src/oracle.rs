//! An infinite, never-spilling register file used as a functional oracle.
//!
//! [`OracleFile`] holds every `<CID:offset>` register it has ever seen, with
//! zero-cost accesses and no backing traffic. Differential tests drive the
//! same operation sequence through an oracle and a real organization and
//! assert the visible values agree — the register file organizations must
//! be *transparent* to program semantics.

use crate::addr::{Cid, RegAddr};
use crate::stats::{Occupancy, RegFileStats};
use crate::traits::{Access, BackingStore, RegFileError, RegisterFile};
use crate::Word;

/// Every register one context has written: a dense 256-entry array
/// (offsets are `u8`) plus a presence bitmap and its population count.
struct Context {
    regs: [Word; 256],
    present: [u64; 4],
    count: u32,
}

impl Context {
    fn get(&self, offset: u8) -> Option<Word> {
        let o = usize::from(offset);
        (self.present[o >> 6] & (1 << (o & 63)) != 0).then_some(self.regs[o])
    }
}

/// The oracle. See module docs.
///
/// Storage is addressed by context ID, and the counts `occupancy`
/// reports are kept up to date as registers come and go, so sampling
/// occupancy and freeing a context cost O(1) however many registers the
/// oracle holds.
#[derive(Default)]
pub struct OracleFile {
    /// `contexts[cid]`: the context's registers, allocated on its first
    /// write and dropped when it is freed.
    contexts: Vec<Option<Box<Context>>>,
    /// Registers present across every context.
    valid_regs: u32,
    /// Contexts holding at least one register.
    resident: u32,
    stats: RegFileStats,
}

impl OracleFile {
    /// Creates an empty oracle.
    pub fn new() -> Self {
        Self::default()
    }

    fn context(&self, cid: Cid) -> Option<&Context> {
        self.contexts.get(usize::from(cid))?.as_deref()
    }

    /// Drops a context's registers, keeping the counts in step.
    fn drop_context(&mut self, cid: Cid) {
        if let Some(ctx) = self
            .contexts
            .get_mut(usize::from(cid))
            .and_then(Option::take)
        {
            self.valid_regs -= ctx.count;
            self.resident -= 1;
        }
    }
}

impl RegisterFile for OracleFile {
    fn read(
        &mut self,
        addr: RegAddr,
        _store: &mut dyn BackingStore,
    ) -> Result<Access, RegFileError> {
        self.stats.reads += 1;
        match self.context(addr.cid).and_then(|c| c.get(addr.offset)) {
            Some(v) => {
                self.stats.read_hits += 1;
                Ok(Access::hit(v))
            }
            None => {
                self.stats.read_misses += 1;
                Err(RegFileError::ReadUndefined(addr))
            }
        }
    }

    fn write(
        &mut self,
        addr: RegAddr,
        value: Word,
        _store: &mut dyn BackingStore,
    ) -> Result<Access, RegFileError> {
        self.stats.writes += 1;
        self.stats.write_hits += 1;
        let i = usize::from(addr.cid);
        if i >= self.contexts.len() {
            self.contexts.resize_with(i + 1, || None);
        }
        let ctx = self.contexts[i].get_or_insert_with(|| {
            self.resident += 1;
            Box::new(Context {
                regs: [0; 256],
                present: [0; 4],
                count: 0,
            })
        });
        let o = usize::from(addr.offset);
        let bit = 1 << (o & 63);
        if ctx.present[o >> 6] & bit == 0 {
            ctx.present[o >> 6] |= bit;
            ctx.count += 1;
            self.valid_regs += 1;
        }
        ctx.regs[o] = value;
        Ok(Access::hit(value))
    }

    fn switch_to(&mut self, _cid: Cid, _store: &mut dyn BackingStore) -> Result<u32, RegFileError> {
        self.stats.context_switches += 1;
        self.stats.switch_hits += 1;
        Ok(0)
    }

    fn free_context(&mut self, cid: Cid, _store: &mut dyn BackingStore) {
        self.drop_context(cid);
    }

    fn free_reg(&mut self, addr: RegAddr, _store: &mut dyn BackingStore) {
        let Some(ctx) = self
            .contexts
            .get_mut(usize::from(addr.cid))
            .and_then(Option::as_mut)
        else {
            return;
        };
        let o = usize::from(addr.offset);
        let bit = 1 << (o & 63);
        if ctx.present[o >> 6] & bit != 0 {
            ctx.present[o >> 6] &= !bit;
            ctx.count -= 1;
            self.valid_regs -= 1;
            if ctx.count == 0 {
                self.drop_context(addr.cid);
            }
        }
    }

    fn capacity(&self) -> u32 {
        u32::MAX
    }

    fn occupancy(&self) -> Occupancy {
        Occupancy {
            valid_regs: self.valid_regs,
            resident_contexts: self.resident,
        }
    }

    fn stats(&self) -> &RegFileStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = RegFileStats::default();
    }

    fn describe(&self) -> String {
        "Oracle (infinite)".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MapStore;

    #[test]
    fn remembers_everything() {
        let mut f = OracleFile::new();
        let mut s = MapStore::new();
        for cid in 0..100u16 {
            f.write(RegAddr::new(cid, 0), u32::from(cid), &mut s)
                .unwrap();
        }
        for cid in 0..100u16 {
            assert_eq!(
                f.read(RegAddr::new(cid, 0), &mut s).unwrap().value,
                u32::from(cid)
            );
        }
        assert_eq!(f.occupancy().resident_contexts, 100);
        assert_eq!(f.stats().read_misses, 0);
    }

    #[test]
    fn counts_follow_frees() {
        let mut f = OracleFile::new();
        let mut s = MapStore::new();
        for (cid, off) in [(1, 0), (1, 255), (2, 64), (2, 64), (3, 7)] {
            f.write(RegAddr::new(cid, off), 1, &mut s).unwrap();
        }
        let occ = |f: &OracleFile| {
            let o = f.occupancy();
            (o.valid_regs, o.resident_contexts)
        };
        assert_eq!(occ(&f), (4, 3), "rewriting a register adds nothing");
        f.free_reg(RegAddr::new(1, 255), &mut s);
        f.free_reg(RegAddr::new(1, 255), &mut s);
        assert_eq!(occ(&f), (3, 3));
        f.free_reg(RegAddr::new(3, 7), &mut s);
        assert_eq!(occ(&f), (2, 2), "a context's last register leaves it");
        f.free_context(2, &mut s);
        f.free_context(9, &mut s);
        assert_eq!(occ(&f), (1, 1));
        assert_eq!(f.read(RegAddr::new(1, 0), &mut s).unwrap().value, 1);
        assert!(f.read(RegAddr::new(2, 64), &mut s).is_err());
    }

    #[test]
    fn free_context_forgets() {
        let mut f = OracleFile::new();
        let mut s = MapStore::new();
        f.write(RegAddr::new(1, 0), 5, &mut s).unwrap();
        f.free_context(1, &mut s);
        assert!(f.read(RegAddr::new(1, 0), &mut s).is_err());
    }
}
