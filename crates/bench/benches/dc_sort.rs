//! Criterion wall-clock benches for the one-deep divide-and-conquer
//! applications on real threads (complements the virtual-time figure
//! binaries): sequential mergesort vs one-deep (sequential and rayon
//! modes) vs std sort, plus quicksort and skyline.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use archetype_core::ExecutionMode;
use archetype_dc::mergesort::{sequential_mergesort, OneDeepMergesort};
use archetype_dc::quicksort::OneDeepQuicksort;
use archetype_dc::skeleton::run_shared;
use archetype_dc::skyline::{sequential_skyline, OneDeepSkyline};
use archetype_dc::Building;

fn random_i64s(n: usize, seed: u64) -> Vec<i64> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 16) as i64 % 1_000_000
        })
        .collect()
}

fn blocks(n: usize, p: usize) -> Vec<Vec<i64>> {
    let data = random_i64s(n, 42);
    data.chunks(n.div_ceil(p)).map(<[i64]>::to_vec).collect()
}

fn bench_sorts(c: &mut Criterion) {
    const N: usize = 200_000;
    const P: usize = 8;
    let mut g = c.benchmark_group("sort_200k");

    g.bench_function("sequential_mergesort", |b| {
        b.iter_batched(
            || random_i64s(N, 42),
            sequential_mergesort,
            BatchSize::SmallInput,
        )
    });
    g.bench_function("std_sort_unstable", |b| {
        b.iter_batched(
            || random_i64s(N, 42),
            |mut v| {
                v.sort_unstable();
                v
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("one_deep_mergesort_seq_mode", |b| {
        let alg = OneDeepMergesort::<i64>::new();
        b.iter_batched(
            || blocks(N, P),
            |inp| run_shared(&alg, inp, ExecutionMode::Sequential),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("one_deep_mergesort_rayon", |b| {
        let alg = OneDeepMergesort::<i64>::new();
        b.iter_batched(
            || blocks(N, P),
            |inp| run_shared(&alg, inp, ExecutionMode::Parallel),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("one_deep_quicksort_rayon", |b| {
        let alg = OneDeepQuicksort::<i64>::new();
        b.iter_batched(
            || blocks(N, P),
            |inp| run_shared(&alg, inp, ExecutionMode::Parallel),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_skyline(c: &mut Criterion) {
    const N: usize = 20_000;
    let buildings: Vec<Building> = (0..N)
        .map(|i| {
            let seed = i as f64;
            let left = (seed * 7.31) % 1000.0;
            Building::new(
                left,
                1.0 + (seed * 3.7) % 80.0,
                left + 1.0 + (seed * 1.9) % 20.0,
            )
        })
        .collect();
    let mut g = c.benchmark_group("skyline_20k");
    g.bench_function("sequential", |b| {
        b.iter(|| sequential_skyline(std::hint::black_box(&buildings)))
    });
    g.bench_function("one_deep_rayon_8", |b| {
        let inputs: Vec<Vec<Building>> =
            buildings.chunks(N / 8).map(<[Building]>::to_vec).collect();
        b.iter_batched(
            || inputs.clone(),
            |inp| run_shared(&OneDeepSkyline, inp, ExecutionMode::Parallel),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_sorts, bench_skyline);
criterion_main!(benches);
