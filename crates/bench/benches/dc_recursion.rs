//! Criterion wall-clock benches for the recursive divide-and-conquer
//! skeleton (complementing the virtual-time `dc_scaling` snapshot):
//! the shared-memory recursion in sequential and fork/join modes against
//! the sequential solve, plus the SPMD recursion on nested groups.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use archetype_bench::random_i64s;
use archetype_core::ExecutionMode;
use archetype_dc::perfmodel::recursion_policy;
use archetype_dc::{run_shared_recursive, run_spmd_recursive, CutoffPolicy, RecursiveMergesort};
use archetype_mp::{run_spmd, MachineModel};

fn bench_recursion(c: &mut Criterion) {
    const N: usize = 200_000;
    let alg = RecursiveMergesort::<i64>::new();
    let mut g = c.benchmark_group("dc_recursion_200k");

    g.bench_function("sequential_solve_depth_0", |b| {
        b.iter_batched(
            || random_i64s(N, 42),
            |v| {
                run_shared_recursive(
                    &alg,
                    v,
                    &CutoffPolicy::exact_depth(0, 2),
                    ExecutionMode::Sequential,
                )
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("shared_recursion_depth_3_seq_mode", |b| {
        b.iter_batched(
            || random_i64s(N, 42),
            |v| {
                run_shared_recursive(
                    &alg,
                    v,
                    &CutoffPolicy::exact_depth(3, 2),
                    ExecutionMode::Sequential,
                )
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("shared_recursion_depth_3_forkjoin", |b| {
        b.iter_batched(
            || random_i64s(N, 42),
            |v| {
                run_shared_recursive(
                    &alg,
                    v,
                    &CutoffPolicy::exact_depth(3, 2),
                    ExecutionMode::Parallel,
                )
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("spmd_recursion_8_ranks_nested_groups", |b| {
        let model = MachineModel::cray_t3d();
        let policy = recursion_policy(&model, 2, 8);
        b.iter_batched(
            || random_i64s(N, 42),
            |v| {
                run_spmd(8, model, move |ctx| {
                    let local = (ctx.rank() == 0).then(|| v.clone());
                    run_spmd_recursive(&RecursiveMergesort::<i64>::new(), ctx, local, &policy, None)
                })
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_recursion);
criterion_main!(benches);
