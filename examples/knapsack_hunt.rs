//! Branch-and-bound knapsack — the *nondeterministic* archetype from the
//! paper's future-work list. The search order (and node counts) vary with
//! parallel execution; the optimum does not.
//!
//! Run with: `cargo run --example knapsack_hunt --release`

use parallel_archetypes::bnb::{knapsack_dp, solve_farm, solve_sequential, solve_shared, Knapsack};
use parallel_archetypes::farm::FarmConfig;
use parallel_archetypes::mp::{run_spmd, MachineModel};

fn main() {
    // A deterministic pseudo-random instance large enough to be
    // non-trivial for DP-free search.
    let mut s = 0xfeedu64;
    let items: Vec<(u64, u64)> = (0..26)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let w = (s >> 33) % 60 + 5;
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (s >> 33) % 120 + 1;
            (w, v)
        })
        .collect();
    let capacity = 400;
    let problem = Knapsack::new(&items, capacity);

    let oracle = knapsack_dp(&items, capacity);
    println!(
        "{} items, capacity {capacity}; DP oracle optimum = {oracle}",
        items.len()
    );

    let (best, stats) = solve_sequential(&problem);
    println!(
        "sequential best-first:   {best}  ({} expanded, {} pruned)",
        stats.expanded, stats.pruned
    );

    let best_shared = solve_shared(&problem);
    println!("rayon parallel search:   {best_shared}  (nondeterministic order, same optimum)");

    // The distributed search is a task-farm archetype instance: the
    // skeleton supplies best-first queueing, incumbent sharing, work
    // stealing, and wave-based termination.
    for p in [2usize, 4, 8] {
        let out = run_spmd(p, MachineModel::ibm_sp(), |ctx| {
            solve_farm(&Knapsack::new(&items, capacity), ctx, FarmConfig::default())
        });
        let (best_farm, stats, fstats) = out.results[0];
        println!(
            "farm on {p} processes:     {best_farm}  ({} expanded, {} pruned, {} stolen, {:.1} ms virtual)",
            stats.expanded,
            stats.pruned,
            fstats.stolen,
            out.elapsed_virtual * 1e3
        );
        assert!(out.results.iter().all(|&(v, _, _)| v == oracle as f64));
    }
    assert_eq!(best, oracle as f64);
    assert_eq!(best_shared, oracle as f64);
    println!("all solvers agree with the oracle");
}
