//! Ranged vs per-word hot-path microbenchmarks (host wall time).
//!
//! Each pair times the same simulated work once per word and once as one
//! ranged call, so the amortization win (and any regression in it) is
//! visible in isolation from the full pipeline:
//!
//! * `cache::touch_range` — one ranged touch vs a touch per word.
//! * `Arena::write` — one contiguous span vs word-at-a-time writes.
//!
//! Non-gating: numbers vary with the host; nothing diffs them.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use dsnrep_rio::Arena;
use dsnrep_simcore::{Addr, DirectMappedCache};

fn bench_cache_touch_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_touch_256B");
    let mut cache = DirectMappedCache::alpha_board_cache();
    let mut addr = 0u64;
    group.bench_function("touch_per_word", |b| {
        b.iter(|| {
            addr = (addr + 4096) & ((1 << 26) - 1);
            let mut hits = 0u64;
            for i in 0..32 {
                hits += cache.touch(Addr::new(addr + i * 8), 8).hits;
            }
            black_box(hits)
        })
    });
    let mut cache = DirectMappedCache::alpha_board_cache();
    let mut addr = 0u64;
    group.bench_function("touch_range", |b| {
        b.iter(|| {
            addr = (addr + 4096) & ((1 << 26) - 1);
            black_box(cache.touch_range(Addr::new(addr), 256))
        })
    });
    group.finish();
}

fn bench_arena_write_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("arena_write_256B");
    let mut arena = Arena::new(1 << 20);
    let payload = [9u8; 256];
    let mut addr = 0u64;
    group.bench_function("write_per_word", |b| {
        b.iter(|| {
            addr = (addr + 4096) & ((1 << 20) - 1);
            for i in 0..32u64 {
                arena.write(
                    Addr::new(addr + i * 8),
                    &payload[i as usize * 8..(i as usize + 1) * 8],
                );
            }
        })
    });
    let mut arena = Arena::new(1 << 20);
    let mut addr = 0u64;
    group.bench_function("write_span", |b| {
        b.iter(|| {
            addr = (addr + 4096) & ((1 << 20) - 1);
            arena.write(Addr::new(addr), &payload)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cache_touch_paths, bench_arena_write_paths);
criterion_main!(benches);
