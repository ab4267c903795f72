//! Criterion microbenchmark pitting `EngineDispatch`'s static match
//! dispatch against a `Box<dyn RegisterFile>` vtable holding the same
//! `NamedStateFile`, on identical traffic: the switch_storm workload (a
//! large NSF file with many resident contexts, round-robin context
//! switches). The pair bounds what de-virtualizing the simulator's
//! per-instruction path buys.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};
use nsf_core::{EngineDispatch, MapStore, NamedStateFile, NsfConfig, RegAddr, RegisterFile};
use std::hint::black_box;

/// Builds the switch_storm fixture behind either dispatch mechanism:
/// 2048 registers, 64 contexts each holding 32 written registers.
/// `F` is `EngineDispatch` (static dispatch) or `dyn RegisterFile`
/// (vtable).
fn storm_fixture<F: RegisterFile + ?Sized>(mut f: Box<F>) -> (Box<F>, MapStore) {
    let mut s = MapStore::new();
    for cid in 0..64u16 {
        for off in 0..32u8 {
            f.write(RegAddr::new(cid, off), 1, &mut s).unwrap();
        }
    }
    (f, s)
}

fn storm_file() -> NamedStateFile {
    NamedStateFile::new(NsfConfig::paper_default(2048))
}

fn enum_fixture() -> (Box<EngineDispatch>, MapStore) {
    storm_fixture(Box::new(EngineDispatch::from(storm_file())))
}

fn boxed_fixture() -> (Box<dyn RegisterFile>, MapStore) {
    storm_fixture(Box::new(storm_file()))
}

fn switch_storm<F: RegisterFile + ?Sized>(
    g: &mut BenchmarkGroup<'_>,
    name: &str,
    (mut f, mut s): (Box<F>, MapStore),
) {
    g.bench_function(name, |b| {
        let mut cid = 0u16;
        b.iter(|| {
            cid = (cid + 1) % 64;
            f.switch_to(black_box(cid), &mut s).unwrap()
        });
    });
}

fn read_hit<F: RegisterFile + ?Sized>(
    g: &mut BenchmarkGroup<'_>,
    name: &str,
    (mut f, mut s): (Box<F>, MapStore),
) {
    g.bench_function(name, |b| {
        b.iter(|| f.read(black_box(RegAddr::new(1, 5)), &mut s).unwrap().value);
    });
}

fn bench_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("dispatch_overhead");
    switch_storm(&mut g, "enum_switch_storm", enum_fixture());
    switch_storm(&mut g, "boxed_switch_storm", boxed_fixture());
    read_hit(&mut g, "enum_read_hit", enum_fixture());
    read_hit(&mut g, "boxed_read_hit", boxed_fixture());
    g.finish();
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
