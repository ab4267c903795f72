//! No frontend stream lives in one allocation. A scale-1 ZipFile stream
//! runs to almost 6 MB; capturing it while feeding two lanes, saving,
//! loading and replaying it, and writing and reading it back as a
//! `.nsftrace`, must each make no single allocation request of
//! [`BOUND`] bytes or more. A stream-sized buffer, grown or read whole,
//! trips the bound at once: it asks for at least the stream's length.

use nsf_sim::{RegFileSpec, SimConfig};
use nsf_trace::{capture, capture_group, replay_frontend, stream_fingerprint, StreamStore, Trace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The largest single request any measured step may make.
const BOUND: usize = 1 << 20;

/// The system allocator, recording the largest single request each
/// thread makes.
struct PeakRequest;

thread_local! {
    static PEAK_REQUEST: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for PeakRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = PEAK_REQUEST.try_with(|p| p.set(p.get().max(layout.size())));
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = PEAK_REQUEST.try_with(|p| p.set(p.get().max(new_size)));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: PeakRequest = PeakRequest;

/// Runs `step`, failing if it asked for [`BOUND`] bytes or more at once.
fn bounded<T>(what: &str, step: impl FnOnce() -> T) -> T {
    PEAK_REQUEST.with(|p| p.set(0));
    let out = step();
    let peak = PEAK_REQUEST.with(Cell::get);
    assert!(peak < BOUND, "{what} asked for {peak} bytes at once");
    out
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("nsf-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn no_stream_path_asks_for_a_mebibyte_at_once() {
    let w = nsf_workloads::zipfile::build(1);
    let head = SimConfig::with_regfile(RegFileSpec::paper_nsf(80));
    let rest = [
        SimConfig::with_regfile(RegFileSpec::paper_segmented(4, 32)),
        SimConfig::with_regfile(RegFileSpec::paper_nsf(64)),
    ];
    let group = bounded("capture_group", || capture_group(&w, head, &rest).unwrap());
    let len = group.buf.encoded_len();
    assert!(len >= 5_000_000, "the stream is only {len} bytes");
    let fed = group.rest.unwrap();

    let dir = scratch_dir("alloc-bound");
    let store = StreamStore::open(dir.join("store"));
    let fp = stream_fingerprint(&w, &head).unwrap();
    bounded("save_stream", || store.save_stream(fp, &group.buf).unwrap());
    let loaded = bounded("load_stream", || store.load_stream(fp, &head).unwrap())
        .expect("the entry was just saved");
    assert_eq!(loaded.encoded_len(), len);
    let replayed = bounded("replay_frontend", || {
        replay_frontend(&loaded, &w, &rest).unwrap()
    });
    assert_eq!(
        replayed, fed,
        "the loaded stream replays as the fed lanes ran"
    );

    let (trace, _) = bounded("capture", || capture(&w, head, "nsf:80", 1).unwrap());
    assert_eq!(trace.events.encoded_len(), len);
    let path = dir.join("zipfile.nsftrace");
    bounded("write_file", || trace.write_file(&path).unwrap());
    let back = bounded("read_file", || Trace::read_file(&path).unwrap());
    assert!(back == trace, "the trace reads back as written");
    let _ = std::fs::remove_dir_all(&dir);
}
