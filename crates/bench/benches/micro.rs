//! Criterion micro-benchmarks of the hot simulation primitives
//! (real wall time, not virtual time): these bound how fast the
//! experiments themselves run.
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use dsnrep_core::{build_engine, EngineConfig, Machine, VersionTag};
use dsnrep_rio::{Arena, FreeListHeap, RawMem};
use dsnrep_simcore::{Addr, CostModel, DirectMappedCache, Region, TrafficClass};

fn bench_cache_touch(c: &mut Criterion) {
    let mut cache = DirectMappedCache::alpha_board_cache();
    let mut addr = 0u64;
    c.bench_function("cache_touch_64B", |b| {
        b.iter(|| {
            addr = (addr + 4096) & ((1 << 26) - 1);
            black_box(cache.touch(Addr::new(addr), 64))
        })
    });
}

fn bench_heap_cycle(c: &mut Criterion) {
    let mut arena = Arena::new(1 << 20);
    let region = Region::new(Addr::new(0), 1 << 20);
    let heap = {
        let mut mem = RawMem::new(&mut arena);
        FreeListHeap::format(&mut mem, region).expect("no fault armed")
    };
    c.bench_function("heap_alloc_free_64B", |b| {
        b.iter(|| {
            let mut mem = RawMem::new(&mut arena);
            let p = heap
                .alloc(&mut mem, 64)
                .expect("no fault armed")
                .expect("space available");
            heap.free(&mut mem, p).expect("no fault armed");
            black_box(p)
        })
    });
}

fn bench_engine_txn(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_txn_16B_range");
    for version in VersionTag::ALL {
        let config = EngineConfig::for_db(1 << 20);
        let arena = dsnrep_core::shared_arena(dsnrep_core::arena_len(version, &config));
        let mut m = Machine::standalone(CostModel::alpha_21164a(), arena);
        let mut engine = build_engine(version, &mut m, &config);
        let db = engine.db_region().start();
        group.bench_function(format!("{version}"), |b| {
            b.iter(|| {
                engine.begin(&mut m).expect("idle engine");
                engine.set_range(&mut m, db, 16).expect("in range");
                engine.write(&mut m, db, &[7u8; 16]).expect("covered");
                engine.commit(&mut m).expect("active txn");
            })
        });
    }
    group.finish();
}

fn bench_machine_write(c: &mut Criterion) {
    let arena = dsnrep_core::shared_arena(1 << 20);
    let mut m = Machine::standalone(CostModel::alpha_21164a(), arena);
    let mut addr = 0u64;
    c.bench_function("machine_write_32B", |b| {
        b.iter(|| {
            addr = (addr + 64) & ((1 << 20) - 1 - 63);
            m.write(Addr::new(addr), &[1u8; 32], TrafficClass::Modified)
                .expect("no fault armed");
        })
    });
}

criterion_group!(
    micro,
    bench_cache_touch,
    bench_heap_cycle,
    bench_engine_txn,
    bench_machine_write
);
criterion_main!(micro);
