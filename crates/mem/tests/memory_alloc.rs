//! The memory a `MainMemory` holds is the memory it was written. A
//! global allocator that tracks the bytes each thread holds checks that
//! three words far apart — a low word, the first result word and the
//! first word of the register save-area arena — cost a few 4 KiB pages
//! and directory tables, not a directory sized by the highest address.

use nsf_mem::{Addr, MainMemory};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, tracking the bytes each thread holds and the
/// most it has held at once.
struct Held;

thread_local! {
    static HELD: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grow(by: usize) {
    let _ = HELD.try_with(|h| {
        h.set(h.get() + by);
        let _ = PEAK.try_with(|p| p.set(p.get().max(h.get())));
    });
}

fn shrink(by: usize) {
    let _ = HELD.try_with(|h| h.set(h.get().saturating_sub(by)));
}

unsafe impl GlobalAlloc for Held {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as a fresh block beside the old one, as a moving
        // realloc holds both for a moment.
        grow(new_size);
        shrink(layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Held = Held;

/// The most bytes this thread held above its starting point while `f`
/// ran.
fn peak_held(f: impl FnOnce()) -> usize {
    let start = HELD.with(Cell::get);
    PEAK.with(|p| p.set(start));
    f();
    PEAK.with(Cell::get) - start
}

/// `nsf_workloads::harness::RESULT_BASE`, where programs store results.
const RESULT_BASE: Addr = 0x0020_0000;
/// The first context's register save area in the simulator's backing
/// arena (`SimConfig::backing_base`).
const SAVE_AREA: Addr = 0x4000_0000;

#[test]
fn three_scattered_words_hold_under_64_kib() {
    let peak = peak_held(|| {
        let mut m = MainMemory::new();
        m.write(3, 1);
        m.write(RESULT_BASE, 2);
        m.write(SAVE_AREA, 3);
        assert_eq!(
            (m.peek(3), m.peek(RESULT_BASE), m.peek(SAVE_AREA)),
            (1, 2, 3)
        );
        assert_eq!(m.resident_pages(), 3);
        drop(m);
    });
    assert!(peak < 64 << 10, "three words held {peak} bytes at peak");
}

#[test]
fn reads_of_unwritten_words_hold_nothing() {
    let peak = peak_held(|| {
        let mut m = MainMemory::new();
        let mut buf = [7; 16];
        m.read_into(SAVE_AREA, &mut buf);
        assert_eq!(
            (m.read(u32::MAX), m.peek(RESULT_BASE), buf),
            (0, 0, [0; 16])
        );
    });
    assert_eq!(peak, 0);
}
