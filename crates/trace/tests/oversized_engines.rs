//! Oversized register files fail before they allocate. Each engine spec
//! below parses, but sizes a file past `RegFileSpec::MAX_REGS`; building
//! it, and replaying a trace re-sealed to name it as its recording
//! engine, must return a typed error without any single allocation
//! request above [`MAX_REQUEST`]. Before the size bound, the first two
//! aborted the process asking for 25.8 GB and 103 GB.

use nsf_sim::{SimConfig, SimError};
use nsf_trace::{parse_engine, replay, Trace, TraceError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, recording the largest single request from any
/// thread. This file holds one test, so nothing else races it.
struct PeakRequest;

static PEAK_REQUEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for PeakRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        PEAK_REQUEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: PeakRequest = PeakRequest;

/// The largest single allocation request a refused spec may make. A
/// refused spec asks for about a hundred bytes; a file at the 2^16-slot
/// bound asks for 512 KiB at once, so any engine storage trips this.
const MAX_REQUEST: usize = 64 << 10;

const OVERSIZED: &[&str] = &[
    "nsf:4294967295",
    "segmented:4294967295x1",
    "segmented-sw:4294967295x64",
    // 2^26 frames x 64 registers: 2^32 slots, a product past `u32`.
    "segmented:67108864x64",
];

/// Runs `f` and returns its result with the largest request it made.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK_REQUEST.store(0, Ordering::Relaxed);
    let out = f();
    (out, PEAK_REQUEST.load(Ordering::Relaxed))
}

#[test]
fn oversized_engines_fail_typed_without_allocating() {
    let golden = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/gatesim_s0_nsf80.nsftrace"
    ))
    .expect("golden trace reads");
    // The counter sees engine storage: the largest buildable file
    // trips the bound, so a refused spec passing it allocated none.
    let largest = parse_engine("nsf:65536").expect("parses");
    let (built, peak) = peak_of(|| largest.build().map(|_| ()));
    assert!(
        built.is_ok() && peak > MAX_REQUEST,
        "nsf:65536 asked for {peak} bytes"
    );
    for &spec in OVERSIZED {
        let regfile = parse_engine(spec).unwrap_or_else(|e| panic!("{spec} parses: {e}"));
        let (built, peak) = peak_of(|| regfile.build().map(|_| ()));
        assert!(
            matches!(built, Err(SimError::BadConfig(_))),
            "{spec}: expected BadConfig, got {built:?}"
        );
        assert!(peak <= MAX_REQUEST, "{spec}: build asked for {peak} bytes");

        // The same engine, named by a re-sealed trace's metadata.
        let mut trace = Trace::from_bytes(&golden).expect("golden trace decodes");
        trace.meta.engine = spec.to_string();
        let forged = Trace::from_bytes(&trace.to_bytes()).expect("re-sealed trace decodes");
        assert_eq!(forged.meta.engine, spec);
        let cfg = SimConfig::with_regfile(parse_engine(&forged.meta.engine).expect("parses"));
        let (replayed, peak) = peak_of(|| replay(&forged, &cfg).map(|_| ()));
        assert!(
            matches!(replayed, Err(TraceError::Stream(SimError::BadConfig(_)))),
            "{spec}: expected a typed replay error, got {replayed:?}"
        );
        assert!(peak <= MAX_REQUEST, "{spec}: replay asked for {peak} bytes");
    }
}
