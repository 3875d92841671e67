//! The recursive divide-and-conquer archetype on nested process groups:
//! one mergesort, four executions.
//!
//! 1. The sequential solve (recursion depth 0);
//! 2. the shared-memory recursion with rayon-style fork/join;
//! 3. the SPMD recursion — each level splits the current group into two
//!    disjoint subcommunicators (`Group::split_nested`), scatters the
//!    halves to the subgroup roots, recurses concurrently, and merges
//!    back up the combining tree — with the cutoff chosen by the machine
//!    performance model;
//! 4. the one-deep skeleton (the depth-one special case the paper
//!    flattens the recursion into), as the comparison oracle.
//!
//! All four produce the identical sorted vector; the scaling table shows
//! the virtual-time speedups and where the combining tree's root merge
//! caps them (the paper's §2.1.1 observation about decaying concurrency).
//!
//! Run with: `cargo run --example recursive_sort --release`

use parallel_archetypes::core::ExecutionMode;
use parallel_archetypes::dc::perfmodel::{recursion_policy, sort_recursion_cutoff};
use parallel_archetypes::dc::skeleton::run_spmd as one_deep_spmd;
use parallel_archetypes::dc::{
    run_shared_recursive, run_spmd_recursive, OneDeepMergesort, RecursiveMergesort,
};
use parallel_archetypes::mp::topology::block_range;
use parallel_archetypes::mp::{run_spmd, MachineModel};

fn scrambled(n: usize) -> Vec<i64> {
    let mut s = 0xabcdu64;
    (0..n)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 20) as i64 % 1_000_000
        })
        .collect()
}

fn main() {
    let n = 1 << 18;
    let model = MachineModel::cray_t3d();
    let data = scrambled(n);
    let mut expected = data.clone();
    expected.sort_unstable();
    let alg = RecursiveMergesort::<i64>::new();
    let policy = recursion_policy(&model, 2, 8);

    println!("recursive mergesort of {n} i64 on the {} model", model.name);
    println!(
        "perf-model cutoff: stop dividing below {} items\n",
        sort_recursion_cutoff(&model, 8)
    );

    // Shared-memory recursion.
    let shared = run_shared_recursive(&alg, data.clone(), &policy, ExecutionMode::Parallel);
    assert_eq!(shared, expected);
    println!("shared-memory fork/join recursion: sorted");

    // SPMD recursion on nested groups across process counts.
    println!("\n  p   recursive (virtual ms)   speedup   one-deep (ms)");
    let mut t1 = 0.0;
    for p in [1usize, 2, 4, 8, 16] {
        let d = data.clone();
        let pol = policy;
        let rec = run_spmd(p, model, move |ctx| {
            let local = (ctx.rank() == 0).then(|| d.clone());
            run_spmd_recursive(&RecursiveMergesort::<i64>::new(), ctx, local, &pol, None)
        });
        assert_eq!(rec.results[0].as_ref().unwrap(), &expected);

        let d = data.clone();
        let one_deep = run_spmd(p, model, move |ctx| {
            let (s, l) = block_range(d.len(), ctx.nprocs(), ctx.rank());
            one_deep_spmd(&OneDeepMergesort::<i64>::new(), ctx, d[s..s + l].to_vec())
        });
        let flat: Vec<i64> = one_deep.results.into_iter().flatten().collect();
        assert_eq!(flat, expected);

        if p == 1 {
            t1 = rec.elapsed_virtual;
        }
        println!(
            "  {p:>2}   {:>12.2}             {:>5.2}x   {:>10.2}",
            rec.elapsed_virtual * 1e3,
            t1 / rec.elapsed_virtual,
            one_deep.elapsed_virtual * 1e3,
        );
    }

    println!(
        "\nThe one-deep skeleton wins at scale: its merge repartitions by\n\
         splitters so every process merges a 1/p share, while the recursive\n\
         combining tree funnels all n elements through the root — exactly\n\
         the inefficiency the paper flattens the recursion to avoid."
    );
}
