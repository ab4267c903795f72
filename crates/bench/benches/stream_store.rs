//! Criterion group `stream_store`: the persistent store's fixed costs
//! against the live capture they displace. `encode`/`decode` bound the
//! serialization tax a store hit pays on top of replay;
//! `fingerprint` is the per-group lookup key; `save_load_roundtrip`
//! is the full filesystem path (tmp write + atomic rename + checksummed
//! read-back). `capture_live` is the work a warm hit avoids.
//! `seal`/`unseal` time the sealed-blob checksum alone over a 4 MB
//! image (scale-1 entries run to a few megabytes); every load pays the
//! second. `seal_parts` takes the same checksum over a short head and
//! the body as two slices, the form every save pays: the stream is
//! sealed where it lies, never copied.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use nsf_bench::nsf_config;
use nsf_trace::frame::{seal, unseal, SealHasher, VarWriter, SEAL_LEN};
use nsf_trace::{capture_frontend, decode_stream, encode_stream, stream_fingerprint, StreamStore};
use nsf_workloads::gatesim;

fn bench_stream_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("stream_store");
    g.sample_size(10);
    let w = gatesim::build(0);
    let cfg = nsf_config(80);
    let buf = capture_frontend(&w, cfg).expect("captures");
    let fp = stream_fingerprint(&w, &cfg).expect("fingerprints");
    let bytes = encode_stream(fp, &buf);

    g.bench_function("capture_live", |b| {
        b.iter(|| capture_frontend(&w, cfg).expect("captures"))
    });
    g.bench_function("fingerprint", |b| {
        b.iter(|| stream_fingerprint(&w, &cfg).expect("fingerprints"))
    });
    g.bench_function("encode", |b| b.iter(|| encode_stream(fp, &buf)));
    g.bench_function("decode", |b| {
        b.iter(|| decode_stream(&bytes, fp, &cfg).expect("decodes"))
    });

    // A 4 MB image: header, then a deterministic pseudo-random body.
    let mut image = VarWriter::with_header(*b"NSFB", 1);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..(4 << 20) / 8 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        image.put_bytes(&x.to_le_bytes());
    }
    let image = image.into_bytes();
    let sealed = seal(image.clone());
    // Room for the trailer: `seal` then times the checksum, not a
    // reallocation.
    let unsealed = || {
        let mut blob = Vec::with_capacity(image.len() + SEAL_LEN);
        blob.extend_from_slice(&image);
        blob
    };
    g.bench_function("seal", |b| {
        b.iter_batched(unsealed, seal, BatchSize::LargeInput)
    });
    let (head, body) = image.split_at(64);
    g.bench_function("seal_parts", |b| {
        b.iter(|| {
            let mut h = SealHasher::default();
            h.update(head);
            h.update(body);
            h.finish()
        })
    });
    g.bench_function("unseal", |b| {
        b.iter(|| unseal(&sealed, *b"NSFB", 1).expect("intact").len())
    });

    let dir = std::env::temp_dir().join(format!("nsf-store-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = StreamStore::open(dir.clone());
    g.bench_function("save_load_roundtrip", |b| {
        b.iter(|| {
            store.save_stream(fp, &buf).expect("saves");
            store
                .load_stream(fp, &cfg)
                .expect("loads")
                .expect("present")
        })
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_stream_store);
criterion_main!(benches);
