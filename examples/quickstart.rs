//! Quickstart: the archetype method end to end on one-deep mergesort.
//!
//! Demonstrates the paper's three-stage development strategy:
//! 1. version 1, sequential — the debuggable initial program;
//! 2. version 1, parallel — same code on the rayon thread pool;
//! 3. version 2, SPMD — the distributed-memory program over the
//!    message-passing substrate, with virtual-time statistics.
//!
//! Run with: `cargo run --example quickstart --release`

use parallel_archetypes::core::ExecutionMode;
use parallel_archetypes::dc::skeleton::{run_shared, run_spmd};
use parallel_archetypes::dc::OneDeepMergesort;
use parallel_archetypes::mp::{self, MachineModel};

fn main() {
    // A workload: 8 blocks of pseudo-random integers, as if the data were
    // already distributed over 8 processes (the degenerate split).
    let nblocks = 8;
    let per_block = 50_000;
    let blocks: Vec<Vec<i64>> = (0..nblocks)
        .map(|b| {
            (0..per_block)
                .map(|i| (((b * per_block + i) as i64) * 48271) % 1_000_003 - 500_000)
                .collect()
        })
        .collect();

    let alg = OneDeepMergesort::<i64>::new();

    // --- Version 1, sequential: parfor loops run as for loops. ----------
    let v1_seq = run_shared(&alg, blocks.clone(), ExecutionMode::Sequential);
    println!(
        "version 1 (sequential): {} blocks, total {} items, first block [{}..={}]",
        v1_seq.len(),
        v1_seq.iter().map(Vec::len).sum::<usize>(),
        v1_seq[0].first().unwrap(),
        v1_seq[0].last().unwrap(),
    );

    // --- Version 1, parallel: same program on the rayon pool. ------------
    let v1_par = run_shared(&alg, blocks.clone(), ExecutionMode::Parallel);
    println!(
        "version 1 (parallel):   identical to sequential: {}",
        v1_seq == v1_par
    );

    // --- Version 2: SPMD over message passing with a machine model. ------
    let out = mp::run_spmd(nblocks, MachineModel::ibm_sp(), |ctx| {
        let alg = OneDeepMergesort::<i64>::new();
        run_spmd(&alg, ctx, blocks[ctx.rank()].clone())
    });
    println!(
        "version 2 (SPMD):       identical to version 1: {}",
        out.results == v1_seq
    );
    println!(
        "  simulated {} processes on {}: {:.1} ms virtual time, {} messages, {:.2} MB moved",
        nblocks,
        MachineModel::ibm_sp().name,
        out.elapsed_virtual * 1e3,
        out.stats.total_msgs(),
        out.stats.total_bytes() as f64 / 1e6,
    );

    // Verify global sortedness across block boundaries.
    let flat: Vec<i64> = out.results.iter().flatten().copied().collect();
    assert!(flat.windows(2).all(|w| w[0] <= w[1]));
    println!("global order verified across {} items", flat.len());
}
