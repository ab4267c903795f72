//! Saving a store entry and writing a trace file seal the stream where
//! it lies: the seal checksum runs over the head and the stream as
//! separate slices, and the file is written part by part. So neither
//! writer holds the stream twice. A global allocator that records the
//! largest single request checks that no allocation made while a
//! writer runs reaches the stream's length.

use nsf_core::{LaneOp, RegAddr};
use nsf_sim::{RegFileSpec, SimConfig};
use nsf_trace::frame::{seal, VarWriter, SEAL_LEN};
use nsf_trace::{
    capture_frontend, decode_stream, encode_stream, stream_fingerprint, StreamStore, Trace,
    TraceStream,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// The largest single allocation `f` asks for.
fn peak_request(f: impl FnOnce()) -> usize {
    PEAK_REQUEST.with(|p| p.set(0));
    f();
    PEAK_REQUEST.with(Cell::get)
}

/// At least 1 MB of stream: 150,000 register writes of full-width values.
fn big_stream() -> TraceStream {
    let stream = TraceStream::from_reg_ops((0..150_000u32).map(|i| {
        let reg = RegAddr::new((i % 7) as u16, (i % 32) as u8);
        (
            LaneOp::Write(reg, i.wrapping_mul(0x9E37_79B9) | 1 << 31),
            None,
        )
    }));
    assert!(stream.encoded_len() >= 1 << 20, "{}", stream.encoded_len());
    stream
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("nsf-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn writing_a_trace_file_allocates_nothing_stream_sized() {
    let trace = Trace {
        events: big_stream(),
        ..Trace::default()
    };
    let len = trace.events.encoded_len();
    let dir = scratch_dir("seal-trace");
    let path = dir.join("big.nsftrace");
    let peak = peak_request(|| trace.write_file(&path).unwrap());
    assert!(
        peak < len,
        "write_file asked for {peak} bytes at once; the stream is {len}"
    );
    assert_eq!(std::fs::read(&path).unwrap(), trace.to_bytes());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn saving_a_store_entry_allocates_nothing_stream_sized() {
    // A store buffer carrying the big stream: a small capture's entry
    // with its stream length and stream swapped for the big one's, sealed
    // afresh and decoded. Saving never replays, so the event count need
    // not match.
    let w = nsf_workloads::gatesim::build(0);
    let cfg = SimConfig::with_regfile(RegFileSpec::paper_nsf(80));
    let small = capture_frontend(&w, cfg).unwrap();
    let fp = stream_fingerprint(&w, &cfg).unwrap();
    let image = encode_stream(fp, &small);
    let mut small_len = VarWriter::new();
    small_len.put_varint(small.encoded_len() as u64);
    let head_end = image.len() - SEAL_LEN - small.encoded_len() - small_len.into_bytes().len();
    let trace = Trace {
        events: big_stream(),
        ..Trace::default()
    };
    let len = trace.events.encoded_len();
    let trace_image = trace.to_bytes();
    let stream = &trace_image[trace_image.len() - SEAL_LEN - len..trace_image.len() - SEAL_LEN];
    let mut body = VarWriter::new();
    body.put_bytes(&image[..head_end]);
    body.put_varint(len as u64);
    body.put_bytes(stream);
    let entry = seal(body.into_bytes());
    let buf = decode_stream(&entry, fp, &cfg).unwrap();
    assert_eq!(buf.encoded_len(), len);
    drop((trace_image, image));

    let dir = scratch_dir("seal-store");
    let store = StreamStore::open(&dir);
    let peak = peak_request(|| store.save_stream(fp, &buf).unwrap());
    assert!(
        peak < len,
        "save_stream asked for {peak} bytes at once; the stream is {len}"
    );
    assert_eq!(std::fs::read(store.stream_path(fp)).unwrap(), entry);
    let _ = std::fs::remove_dir_all(&dir);
}
