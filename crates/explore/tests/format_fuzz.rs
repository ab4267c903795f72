//! Seeded mutation fuzz over every on-disk format — `.nsftrace`,
//! `.nsfs`, `.nsfx` and `.nsfm` — through the one framing layer
//! (`nsf_trace::frame`) they share.
//!
//! Each format's image is cut at every length, bit-flipped and spliced
//! at random, and also mutated *behind* its checksums: a checksummed
//! body is damaged and its checksum recomputed, so the decoders past the
//! checksum see the damage too. Whatever the bytes, a decode must either
//! return a typed error or a value that re-encodes to exactly the bytes
//! it came from — for the ledger and the memo, the valid prefix
//! `bytes[..valid_len]`. It must never panic. A decoded `.nsftrace`
//! stream is also walked by the tile decoder and replayed, since its
//! events are decoded lazily.

use nsf_core::{LaneOp, RegAddr};
use nsf_explore::ledger::{encode_header, encode_record, parse, LedgerHeader, LedgerRecord};
use nsf_explore::memo::{encode_memo_header, encode_memo_record, memo_key, parse_memo, MemoRecord};
use nsf_explore::PointCost;
use nsf_sim::RunReport;
use nsf_sim::{RegFileSpec, SimConfig};
use nsf_trace::frame::{checked_record, fnv64, seal, FrameError, VarReader, VarWriter, SEAL_LEN};
use nsf_trace::{
    capture_frontend, decode_stream, encode_stream, replay_events, stream_fingerprint,
    validate_stream_bytes, Trace, TraceError, TraceMeta, TraceStream,
};
use nsf_workloads::synth::{self, SeqParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;

/// Where a format keeps its checksums, so a mutation can recompute them.
#[derive(Clone, Copy)]
enum Layout {
    /// One 8-byte trailer over everything before it.
    Sealed,
    /// A varint checksum after every record (header block included).
    RecordLog,
}

/// Decodes bytes: `None` for a typed error, or the length of the
/// accepted prefix and the decoded value's re-encoding.
type Decode = Box<dyn Fn(&[u8]) -> Option<(usize, Vec<u8>)>>;

/// One format under test: its image as checksummed bodies, and its
/// decoder.
struct Format {
    name: &'static str,
    layout: Layout,
    bodies: Vec<Vec<u8>>,
    decode: Decode,
}

/// Re-frames `bodies`, computing every checksum afresh.
fn assemble(layout: Layout, bodies: &[Vec<u8>]) -> Vec<u8> {
    match layout {
        Layout::Sealed => seal(bodies.concat()),
        Layout::RecordLog => bodies
            .iter()
            .flat_map(|b| {
                let mut w = VarWriter::new();
                w.put_bytes(b);
                checked_record(w)
            })
            .collect(),
    }
}

/// Splits a record log into record bodies, stripping each varint
/// checksum. `records` are the encoded records, in order.
fn record_bodies(records: &[Vec<u8>]) -> Vec<Vec<u8>> {
    records
        .iter()
        .map(|rec| {
            (1..=rec.len().min(10))
                .map(|k| rec.split_at(rec.len() - k))
                .find(|(body, sum)| {
                    let mut r = VarReader::new(sum);
                    r.get_varint() == Ok(fnv64(body)) && r.done()
                })
                .expect("record ends in its checksum")
                .0
                .to_vec()
        })
        .collect()
}

fn cost(i: u64) -> PointCost {
    PointCost {
        reloads_per_instr: 0.125 * i as f64,
        utilization: f64::from_bits(0x7ff8_0000_0000_0001 + i), // NaN payloads
        area_um2: 1.5e6 + i as f64,
        access_ns: -0.0,
    }
}

/// The system allocator, recording the largest single request each
/// thread makes, so a test can show a decoder allocated nothing sized
/// from a corrupt length.
struct PeakRequest;

thread_local! {
    static PEAK_REQUEST: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for PeakRequest {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        let _ = PEAK_REQUEST.try_with(|p| p.set(p.get().max(layout.size())));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: PeakRequest = PeakRequest;

/// A staged block whose address varint is easy to find in the image.
const STAGED_AT: u32 = 0x0BAD_F00D;

fn sample_trace() -> Trace {
    let ops = (0..40u32).map(|i| {
        let addr = RegAddr::new((i % 5) as u16, (i % 20) as u8);
        match i % 7 {
            0 => (LaneOp::Read(addr), Some(i.wrapping_mul(0x9E37_79B9))),
            1 => (LaneOp::Write(addr, i.wrapping_mul(0x9E37_79B9)), None),
            2 => (LaneOp::SwitchTo(i as u16), None),
            3 => (LaneOp::CallPush(300 + i as u16), None),
            4 => (LaneOp::ThreadSwitch(1), None),
            5 => (LaneOp::FreeContext(2), None),
            _ => (LaneOp::FreeReg(addr), None),
        }
    });
    let mut events = TraceStream::from_reg_ops(ops);
    events.mem_init = vec![(STAGED_AT, vec![7, u32::MAX, 0]), (0x100, vec![])];
    events.shared_cycles = 1 << 40;
    Trace {
        meta: TraceMeta {
            workload: "FuzzSim".into(),
            engine: "nsf:80".into(),
            scale: 3,
            instructions: 123_456,
            cycles: 1 << 40,
            context_switches: 7,
        },
        events,
        report: RunReport {
            regfile_desc: "NSF 80".into(),
            cycles: 1 << 40,
            thread_instructions: vec![1, 2, 3],
            ..RunReport::default()
        },
    }
}

fn trace_format() -> Format {
    let image = sample_trace().to_bytes();
    let cfg = SimConfig::with_regfile(RegFileSpec::paper_nsf(80));
    Format {
        name: "nsftrace",
        layout: Layout::Sealed,
        bodies: vec![image[..image.len() - SEAL_LEN].to_vec()],
        decode: Box::new(move |b| {
            let t = Trace::from_bytes(b).ok()?;
            // The events decode lazily: walking and replaying them must
            // give a typed error or a result, whatever the bytes.
            let _ = t.events.kind_counts();
            let _ = t.events.lane_ops();
            let _ = replay_events(&t.events, &cfg);
            Some((b.len(), t.to_bytes()))
        }),
    }
}

#[test]
fn corrupt_staged_block_length_is_typed_and_allocates_nothing_for_it() {
    let image = sample_trace().to_bytes();
    let mut body = image[..image.len() - SEAL_LEN].to_vec();
    // The block's address varint, then its one-byte word count (3).
    let mut addr = VarWriter::new();
    addr.put_varint(u64::from(STAGED_AT));
    let addr = addr.into_bytes();
    let at = body
        .windows(addr.len())
        .position(|w| w == addr.as_slice())
        .expect("staged block located")
        + addr.len();
    assert_eq!(body[at], 3, "word count located");
    let mut huge = VarWriter::new();
    huge.put_varint(u64::from(u32::MAX));
    body.splice(at..=at, huge.into_bytes());
    let forged = seal(body);
    PEAK_REQUEST.with(|p| p.set(0));
    let err = Trace::from_bytes(&forged).unwrap_err();
    let peak = PEAK_REQUEST.with(Cell::get);
    assert!(
        matches!(err, TraceError::Frame(FrameError::Truncated)),
        "{err}"
    );
    assert!(
        peak <= 2 * forged.len(),
        "decode asked for {peak} bytes at once from a {}-byte image",
        forged.len()
    );
}

fn store_format() -> Format {
    let w = synth::sequential(SeqParams {
        depth: 2,
        fanout: 2,
        locals: 4,
    });
    let cfg = SimConfig::with_regfile(RegFileSpec::paper_nsf(80));
    let buf = capture_frontend(&w, cfg).expect("capture");
    let fp = stream_fingerprint(&w, &cfg).expect("fingerprintable");
    let image = encode_stream(fp, &buf);
    Format {
        name: "nsfs",
        layout: Layout::Sealed,
        bodies: vec![image[..image.len() - SEAL_LEN].to_vec()],
        decode: Box::new(move |b| {
            let decoded = decode_stream(b, fp, &cfg).ok();
            // The store's census and its loader agree on every image.
            assert_eq!(validate_stream_bytes(b, fp).is_ok(), decoded.is_some());
            decoded.map(|buf| (b.len(), encode_stream(fp, &buf)))
        }),
    }
}

fn ledger_format() -> Format {
    let mut records = vec![encode_header(&LedgerHeader {
        fingerprint: 0xdead_beef_cafe_f00d,
        shard_index: 1,
        shard_count: 3,
        shard_points: 6,
    })];
    records.extend((0..6).map(|i| {
        encode_record(&LedgerRecord {
            point_idx: 1 + 3 * i,
            instructions: 1000 << (7 * i),
            cycles: 2000 + i,
            cost: cost(i),
        })
    }));
    Format {
        name: "nsfx",
        layout: Layout::RecordLog,
        bodies: record_bodies(&records),
        decode: Box::new(|b| {
            parse(b).ok().map(|p| {
                let mut out = encode_header(&p.header);
                for r in &p.records {
                    out.extend(encode_record(r));
                }
                (p.valid_len, out)
            })
        }),
    }
}

fn memo_format() -> Format {
    let mut records = vec![encode_memo_header()];
    records.extend((0..6).map(|i| {
        encode_memo_record(&MemoRecord {
            key: memo_key(i, "nsf:80x1", 1),
            instructions: 1000 + i,
            cycles: 2000 << (9 * i),
            cost: cost(i),
        })
    }));
    Format {
        name: "nsfm",
        layout: Layout::RecordLog,
        bodies: record_bodies(&records),
        decode: Box::new(|b| {
            parse_memo(b).ok().map(|p| {
                let mut out = encode_memo_header();
                for r in &p.records {
                    out.extend(encode_memo_record(r));
                }
                (p.valid_len, out)
            })
        }),
    }
}

/// Flips one to three random bits.
fn flip(rng: &mut StdRng, bytes: &mut [u8]) {
    if bytes.is_empty() {
        return;
    }
    for _ in 0..rng.gen_range(1..=3u32) {
        let at = rng.gen_range(0..bytes.len());
        bytes[at] ^= 1 << rng.gen_range(0..8u32);
    }
}

/// Replaces a random range with up to 10 random bytes, or with a copy of
/// another range of the same bytes.
fn splice(rng: &mut StdRng, bytes: &mut Vec<u8>) {
    let a = rng.gen_range(0..=bytes.len());
    let b = rng.gen_range(a..=bytes.len().min(a + 12));
    let fill: Vec<u8> = if rng.gen_range(0..2u32) == 0 || bytes.is_empty() {
        (0..rng.gen_range(0..=10u32))
            .map(|_| rng.gen_range(0..=255u8))
            .collect()
    } else {
        let c = rng.gen_range(0..bytes.len());
        let d = rng.gen_range(c..=bytes.len().min(c + 12));
        bytes[c..d].to_vec()
    };
    bytes.splice(a..b, fill);
}

/// Damages the bodies behind their checksums: a flip or splice inside
/// one body, or (record logs) a record dropped, repeated or moved.
fn mutate_bodies(rng: &mut StdRng, layout: Layout, bodies: &mut Vec<Vec<u8>>) {
    let pick = rng.gen_range(0..bodies.len());
    let n = bodies.len();
    match (layout, rng.gen_range(0..5u32)) {
        (Layout::RecordLog, 2) if n > 1 => {
            bodies.remove(rng.gen_range(1..n));
        }
        (Layout::RecordLog, 3) => {
            let copy = bodies[pick].clone();
            bodies.insert(rng.gen_range(1..=n), copy);
        }
        (Layout::RecordLog, 4) if n > 2 => {
            let (a, b) = (rng.gen_range(1..n), rng.gen_range(1..n));
            bodies.swap(a, b);
        }
        (_, 0) => flip(rng, &mut bodies[pick]),
        _ => splice(rng, &mut bodies[pick]),
    }
}

/// Decodes `bytes` and checks the contract.
fn check(f: &Format, bytes: &[u8], what: &str) {
    if let Some((valid_len, reencoded)) = (f.decode)(bytes) {
        assert!(valid_len <= bytes.len(), "{}: {what}: valid_len", f.name);
        assert!(
            reencoded == bytes[..valid_len],
            "{}: {what}: decoded value does not re-encode to its bytes",
            f.name
        );
    }
}

#[test]
fn every_format_decodes_mutations_to_typed_errors_or_exact_prefixes() {
    const ROUNDS: u64 = 5000;
    for (seed, f) in [
        trace_format(),
        store_format(),
        ledger_format(),
        memo_format(),
    ]
    .into_iter()
    .enumerate()
    {
        let image = assemble(f.layout, &f.bodies);
        let (valid_len, reencoded) = (f.decode)(&image).expect("intact image decodes");
        assert_eq!((valid_len, &reencoded), (image.len(), &image), "{}", f.name);
        for cut in 0..image.len() {
            check(&f, &image[..cut], &format!("cut at {cut}"));
        }
        let mut rng = StdRng::seed_from_u64(seed as u64);
        for round in 0..ROUNDS {
            let mut bytes = image.clone();
            if round % 2 == 0 {
                flip(&mut rng, &mut bytes);
            } else {
                splice(&mut rng, &mut bytes);
            }
            check(&f, &bytes, &format!("raw mutation {round}"));
            let mut bodies = f.bodies.clone();
            mutate_bodies(&mut rng, f.layout, &mut bodies);
            let resealed = assemble(f.layout, &bodies);
            check(&f, &resealed, &format!("resealed mutation {round}"));
        }
    }
}
