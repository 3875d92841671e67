//! Branch-and-bound on the task-farm archetype.
//!
//! This is the port the archetype library exists for: instead of
//! hand-rolled work distribution (round-robin seeding, batch expansion,
//! and all-reduce termination), the search runs on the general
//! task-farm skeleton. The sequential driver's `BinaryHeap` frontier
//! *becomes* the farm's priority queue (priority = node bound, so the
//! search stays best-first), the shared incumbent becomes the farm's
//! steering hint, bound-pruning of queued nodes becomes the farm's
//! `keep` test, and termination falls out of the skeleton's quiescence
//! wave instead of a bespoke reduction.
//!
//! The returned optimum is identical to every other driver's (the bound
//! is admissible, so pruning never loses the optimum), and — the farm
//! running in deterministic lockstep rounds — the node statistics are
//! bit-identical across repeated runs of the same configuration, a
//! stronger guarantee than `solve_shared`'s nondeterministic counts.

use archetype_farm::{run_farm, Farm, FarmConfig, FarmStats, WorkScope};
use archetype_mp::{impl_fixed_size, Ctx, Payload};

use crate::skeleton::{BnbStats, BranchAndBound};

impl_fixed_size!(BnbStats);

/// Modeled flop-equivalents for one bound evaluation on a popped node.
const BOUND_FLOPS: f64 = 50.0;
/// Modeled flop-equivalents for expanding a node into its children.
const EXPAND_FLOPS: f64 = 200.0;

/// Adapter presenting a [`BranchAndBound`] problem as a [`Farm`].
///
/// * task = search-tree node, with the node's admissible bound as its
///   queue priority (best-first);
/// * output = `(incumbent, stats)`, reduced by `(max, +)`;
/// * hint = the incumbent value, merged by `max` on every wave;
/// * `keep` = the bound test against the globally shared incumbent.
pub struct BnbFarm<'a, B>(pub &'a B);

/// A search node bundled with its admissible bound, computed exactly
/// once (at spawn time): the queue priority, the `keep` test, and the
/// in-`work` prune test all reuse the cached value instead of
/// re-evaluating an O(problem-size) bound on every queue operation.
pub struct BoundedNode<N> {
    /// Admissible upper bound on any completion of `node`.
    pub bound: f64,
    /// The underlying search-tree node.
    pub node: N,
}

impl<N: Payload> Payload for BoundedNode<N> {
    fn size_bytes(&self) -> usize {
        std::mem::size_of::<f64>() + self.node.size_bytes()
    }
}

impl<B> Farm for BnbFarm<'_, B>
where
    B: BranchAndBound,
    B::Node: Payload,
{
    type Task = BoundedNode<B::Node>;
    type Out = (f64, BnbStats);
    type Hint = f64;

    fn seed(&self) -> Vec<BoundedNode<B::Node>> {
        let root = self.0.root();
        vec![BoundedNode {
            bound: self.0.bound(&root),
            node: root,
        }]
    }

    fn work(&self, task: BoundedNode<B::Node>, scope: &mut WorkScope<'_, Self>) {
        let BoundedNode { bound, node } = task;
        // The effective incumbent: the last wave's global hint, possibly
        // improved by leaves this rank has found since.
        let incumbent = scope.hint().max(scope.acc().0);
        if bound <= incumbent {
            scope.emit((
                f64::NEG_INFINITY,
                BnbStats {
                    pruned: 1,
                    ..BnbStats::default()
                },
            ));
            return;
        }
        if let Some(v) = self.0.value(&node) {
            scope.emit((v, BnbStats::default()));
            return;
        }
        scope.charge_flops(EXPAND_FLOPS);
        let mut stats = BnbStats {
            expanded: 1,
            ..BnbStats::default()
        };
        for child in self.0.branch(&node) {
            let b = self.0.bound(&child);
            if b > incumbent {
                scope.spawn(BoundedNode {
                    bound: b,
                    node: child,
                });
            } else {
                stats.pruned += 1;
            }
        }
        scope.emit((f64::NEG_INFINITY, stats));
    }

    fn out_identity(&self) -> (f64, BnbStats) {
        (f64::NEG_INFINITY, BnbStats::default())
    }

    fn reduce(&self, a: (f64, BnbStats), b: (f64, BnbStats)) -> (f64, BnbStats) {
        (
            a.0.max(b.0),
            BnbStats {
                expanded: a.1.expanded + b.1.expanded,
                pruned: a.1.pruned + b.1.pruned,
            },
        )
    }

    fn task_flops(&self, _task: &BoundedNode<B::Node>) -> f64 {
        BOUND_FLOPS
    }

    fn priority(&self, task: &BoundedNode<B::Node>) -> f64 {
        task.bound
    }

    fn local_hint(&self, acc: &(f64, BnbStats)) -> f64 {
        acc.0
    }

    fn merge_hint(&self, a: f64, b: f64) -> f64 {
        a.max(b)
    }

    fn keep(&self, task: &BoundedNode<B::Node>, incumbent: &f64) -> bool {
        task.bound > *incumbent
    }
}

/// Distributed branch-and-bound on the task-farm skeleton. Must be
/// called collectively by every rank; every rank returns the same
/// optimum and the same (globally summed) statistics. Nodes dropped by
/// the farm's `keep` test count as pruned.
pub fn solve_farm<B>(problem: &B, ctx: &mut Ctx, config: FarmConfig) -> (f64, BnbStats, FarmStats)
where
    B: BranchAndBound,
    B::Node: Payload,
{
    let ((best, mut stats), farm_stats) = run_farm(&BnbFarm(problem), ctx, config);
    stats.pruned += farm_stats.dropped;
    (best, stats, farm_stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knapsack::{knapsack_dp, Knapsack};
    use crate::skeleton::solve_sequential;
    use archetype_mp::{run_spmd, MachineModel};

    fn pseudo_random_items(n: usize, seed: u64) -> Vec<(u64, u64)> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let w = (s >> 33) % 50 + 1;
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = (s >> 33) % 100 + 1;
                (w, v)
            })
            .collect()
    }

    #[test]
    fn farm_knapsack_matches_dp_for_many_process_counts() {
        let items = pseudo_random_items(16, 7);
        let cap = 100;
        let expected = knapsack_dp(&items, cap) as f64;
        for p in [1usize, 2, 4, 6, 8] {
            let items = items.clone();
            let out = run_spmd(p, MachineModel::ibm_sp(), move |ctx| {
                solve_farm(&Knapsack::new(&items, cap), ctx, FarmConfig::default()).0
            });
            assert!(out.results.iter().all(|&v| v == expected), "p={p}");
        }
    }

    #[test]
    fn farm_agrees_with_sequential_and_dp_oracles_on_seed_instances() {
        for seed in [3u64, 7, 42] {
            let items = pseudo_random_items(14, seed);
            let cap = 90;
            let (seq, _) = solve_sequential(&Knapsack::new(&items, cap));
            assert_eq!(seq, knapsack_dp(&items, cap) as f64, "seed={seed}");
            let out = run_spmd(4, MachineModel::ibm_sp(), move |ctx| {
                solve_farm(&Knapsack::new(&items, cap), ctx, FarmConfig::default()).0
            });
            assert!(out.results.iter().all(|&farm| farm == seq), "seed={seed}");
        }
    }

    #[test]
    fn farm_stats_are_bit_identical_across_runs() {
        let run = || {
            let items = pseudo_random_items(15, 11);
            run_spmd(6, MachineModel::intel_delta(), move |ctx| {
                solve_farm(&Knapsack::new(&items, 110), ctx, FarmConfig::default())
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.results, b.results);
        assert_eq!(a.rank_times, b.rank_times, "virtual clocks must agree");
        // Every rank reports the same global stats.
        let (best, stats, fstats) = a.results[0];
        assert!(a.results.iter().all(|&r| r == (best, stats, fstats)));
        assert!(stats.expanded > 0);
    }

    #[test]
    fn farm_search_stays_best_first_and_prunes() {
        // With an exact-at-leaf admissible bound, best-first order should
        // prune aggressively: far fewer expansions than the full tree.
        let items = pseudo_random_items(18, 9);
        let out = run_spmd(4, MachineModel::ibm_sp(), move |ctx| {
            solve_farm(&Knapsack::new(&items, 120), ctx, FarmConfig::default())
        });
        let (_, stats, _) = out.results[0];
        let exhaustive = (1u64 << 18) - 1;
        assert!(
            stats.expanded < exhaustive / 10,
            "expanded {}",
            stats.expanded
        );
    }

    #[test]
    fn empty_tree_yields_neg_infinity_on_the_farm() {
        struct Barren;
        impl BranchAndBound for Barren {
            type Node = u8;
            fn root(&self) -> u8 {
                0
            }
            fn branch(&self, _n: &u8) -> Vec<u8> {
                Vec::new()
            }
            fn bound(&self, _n: &u8) -> f64 {
                100.0
            }
            fn value(&self, _n: &u8) -> Option<f64> {
                None
            }
        }
        let out = run_spmd(2, MachineModel::ibm_sp(), |ctx| {
            solve_farm(&Barren, ctx, FarmConfig::default()).0
        });
        assert!(out.results.iter().all(|&v| v == f64::NEG_INFINITY));
    }
}
