//! Steady-state NSF traffic makes no allocation request.
//!
//! The register file sizes its decoder, line state and victim lists when
//! it is built, and grows its per-context tables only when a context ID
//! is bound for the first time. A global allocator that counts requests
//! per thread checks that, once a pass of reads, writes, switches and
//! frees has run over a fixed set of contexts, an identical second pass
//! asks for no memory at all. The backing store is a fixed array written
//! here, since `MapStore` allocates a page per context.

use nsf_core::{
    BackingStore, Cid, NamedStateFile, NsfConfig, RegAddr, RegisterFile, ReloadPolicy, StoreFault,
    Word,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the requests each thread makes.
struct Counting;

thread_local! {
    static REQUESTS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = REQUESTS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocation requests this thread made while `f` ran.
fn requests(f: impl FnOnce()) -> u64 {
    let start = REQUESTS.with(Cell::get);
    f();
    REQUESTS.with(Cell::get) - start
}

const CONTEXTS: usize = 6;
const CTX_REGS: u8 = 20;
/// Backing frame width: a whole-line reload of a context's partial last
/// line transfers offsets past `CTX_REGS`.
const FRAME: usize = 32;

/// A backing store over a fixed array: one optional word per
/// `<cid, offset>` of the first [`CONTEXTS`] contexts.
struct FixedStore {
    words: [[Option<Word>; FRAME]; CONTEXTS],
}

impl FixedStore {
    fn slot(&mut self, cid: Cid, offset: u8) -> &mut Option<Word> {
        &mut self.words[usize::from(cid)][usize::from(offset)]
    }
}

impl BackingStore for FixedStore {
    fn spill(&mut self, cid: Cid, offset: u8, value: Word) -> Result<u32, StoreFault> {
        *self.slot(cid, offset) = Some(value);
        Ok(2)
    }

    fn reload(&mut self, cid: Cid, offset: u8) -> Result<(Option<Word>, u32), StoreFault> {
        Ok((*self.slot(cid, offset), 2))
    }

    fn is_present(&self, cid: Cid, offset: u8) -> bool {
        self.words[usize::from(cid)][usize::from(offset)].is_some()
    }

    fn any_present(&self, cid: Cid) -> bool {
        self.words[usize::from(cid)].iter().any(Option::is_some)
    }

    fn discard_context(&mut self, cid: Cid) {
        self.words[usize::from(cid)] = [None; FRAME];
    }

    fn discard_reg(&mut self, cid: Cid, offset: u8) {
        *self.slot(cid, offset) = None;
    }
}

/// One pass of traffic over contexts `0..CONTEXTS`, more registers than
/// the file holds, so lines are evicted, spilled and reloaded. It starts
/// and ends with every context freed, so each pass sees the same state.
fn pass(file: &mut NamedStateFile, store: &mut FixedStore) {
    let mut written = [[false; CTX_REGS as usize]; CONTEXTS];
    let mut x = 0x9e37_79b9u32;
    for round in 0..40u32 {
        let cid = (round as usize * 5) % CONTEXTS;
        file.switch_to(cid as Cid, store).unwrap();
        for _ in 0..12 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let offset = (x % u32::from(CTX_REGS)) as u8;
            let addr = RegAddr::new(cid as Cid, offset);
            match x >> 30 {
                0 | 1 => {
                    file.write(addr, x, store).unwrap();
                    written[cid][usize::from(offset)] = true;
                }
                2 if written[cid][usize::from(offset)] => {
                    file.read(addr, store).unwrap();
                }
                _ => {
                    file.free_reg(addr, store);
                    written[cid][usize::from(offset)] = false;
                }
            }
        }
        // An unchecked offset past the context, as `rfree` may carry.
        file.free_reg(RegAddr::new(cid as Cid, CTX_REGS + 3), store);
        if round % 7 == 6 {
            file.free_context(cid as Cid, store);
            written[cid] = [false; CTX_REGS as usize];
        }
    }
    for cid in 0..CONTEXTS {
        file.free_context(cid as Cid, store);
    }
}

#[test]
fn a_repeated_pass_makes_no_allocation_request() {
    for (regs_per_line, reload) in [
        (1, ReloadPolicy::SingleRegister),
        (2, ReloadPolicy::ValidOnly),
        (8, ReloadPolicy::WholeLine),
    ] {
        let mut cfg = NsfConfig::paper_default(24);
        cfg.ctx_regs = CTX_REGS;
        cfg.regs_per_line = regs_per_line;
        cfg.reload = reload;
        let mut file = NamedStateFile::new(cfg);
        let mut store = FixedStore {
            words: [[None; FRAME]; CONTEXTS],
        };
        pass(&mut file, &mut store);
        assert!(file.stats().regs_spilled > 0, "the pass must evict");
        let spilled = file.stats().regs_spilled;
        let made = requests(|| pass(&mut file, &mut store));
        assert_eq!(
            made, 0,
            "{regs_per_line}-register lines: the second pass made {made} allocation requests"
        );
        assert!(file.stats().regs_spilled > spilled);
    }
}
