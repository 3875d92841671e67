//! The branch-and-bound skeleton and its shared-memory drivers.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// A maximization problem in branch-and-bound form.
///
/// `Node` is a partial solution; [`BranchAndBound::bound`] must be an
/// **admissible upper bound** (no descendant of the node can score higher),
/// which is what makes pruning safe and the optimum deterministic even
/// under nondeterministic search orders.
pub trait BranchAndBound: Sync {
    /// A partial solution / search-tree node.
    type Node: Clone + Send;

    /// The root of the search tree (the empty partial solution).
    fn root(&self) -> Self::Node;

    /// Expand a node into its children.
    fn branch(&self, node: &Self::Node) -> Vec<Self::Node>;

    /// Admissible upper bound on any completion of `node`.
    fn bound(&self, node: &Self::Node) -> f64;

    /// The node's own objective value if it is a complete solution
    /// (a leaf), else `None`.
    fn value(&self, node: &Self::Node) -> Option<f64>;
}

/// Search statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BnbStats {
    /// Nodes expanded (calls to `branch`).
    pub expanded: u64,
    /// Nodes pruned by the bound test.
    pub pruned: u64,
}

struct Prioritized<N> {
    bound: f64,
    node: N,
}

impl<N> PartialEq for Prioritized<N> {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl<N> Eq for Prioritized<N> {}
impl<N> PartialOrd for Prioritized<N> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<N> Ord for Prioritized<N> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bound
            .partial_cmp(&other.bound)
            .unwrap_or(Ordering::Equal)
    }
}

/// Best-first sequential branch-and-bound. Returns the optimum value
/// (`f64::NEG_INFINITY` if the tree has no complete solution) and stats.
///
/// ```
/// use archetype_bnb::{solve_sequential, Knapsack};
/// let problem = Knapsack::new(&[(2, 3), (3, 4), (4, 5)], 5);
/// let (best, _stats) = solve_sequential(&problem);
/// assert_eq!(best, 7.0); // items (2,3) + (3,4)
/// ```
pub fn solve_sequential<B: BranchAndBound>(problem: &B) -> (f64, BnbStats) {
    let mut heap = BinaryHeap::new();
    let root = problem.root();
    heap.push(Prioritized {
        bound: problem.bound(&root),
        node: root,
    });
    let mut best = f64::NEG_INFINITY;
    let mut stats = BnbStats::default();

    while let Some(Prioritized { bound, node }) = heap.pop() {
        if bound <= best {
            stats.pruned += 1;
            continue;
        }
        if let Some(v) = problem.value(&node) {
            best = best.max(v);
            continue;
        }
        stats.expanded += 1;
        for child in problem.branch(&node) {
            let b = problem.bound(&child);
            if b > best {
                heap.push(Prioritized {
                    bound: b,
                    node: child,
                });
            } else {
                stats.pruned += 1;
            }
        }
    }
    (best, stats)
}

/// Shared-memory parallel branch-and-bound: depth-first exploration of
/// subtrees with `rayon::join`, sharing the incumbent through an atomic.
/// The exploration order — and therefore the node/prune counts — is
/// nondeterministic; the returned optimum is not.
pub fn solve_shared<B: BranchAndBound>(problem: &B) -> f64 {
    // f64 incumbent stored as ordered bits: works because all our scores
    // compare above NEG_INFINITY and we only move the value upward.
    let best = AtomicU64::new(f64::NEG_INFINITY.to_bits());

    fn load(best: &AtomicU64) -> f64 {
        f64::from_bits(best.load(AtomicOrdering::Relaxed))
    }
    fn raise(best: &AtomicU64, v: f64) {
        let mut cur = best.load(AtomicOrdering::Relaxed);
        while v > f64::from_bits(cur) {
            match best.compare_exchange_weak(
                cur,
                v.to_bits(),
                AtomicOrdering::Relaxed,
                AtomicOrdering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
    }

    fn explore<B: BranchAndBound>(problem: &B, node: B::Node, best: &AtomicU64, depth: usize) {
        if problem.bound(&node) <= load(best) {
            return;
        }
        if let Some(v) = problem.value(&node) {
            raise(best, v);
            return;
        }
        let children = problem.branch(&node);
        if depth < 6 {
            // Fork the subtree exploration; deeper levels go sequential to
            // bound task overhead.
            rayon::scope(|s| {
                for child in children {
                    s.spawn(move |_| explore(problem, child, best, depth + 1));
                }
            });
        } else {
            for child in children {
                explore(problem, child, best, depth + 1);
            }
        }
    }

    explore(problem, problem.root(), &best, 0);
    load(&best)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny explicit tree for exercising the skeleton: maximize the sum
    /// of digits chosen at each of `depth` levels from {0, 1, 2}, with the
    /// twist that the bound is exact-at-leaf and admissible above.
    struct DigitTree {
        depth: usize,
    }

    impl BranchAndBound for DigitTree {
        type Node = Vec<u8>;
        fn root(&self) -> Vec<u8> {
            Vec::new()
        }
        fn branch(&self, node: &Vec<u8>) -> Vec<Vec<u8>> {
            [0u8, 1, 2]
                .iter()
                .map(|&d| {
                    let mut c = node.clone();
                    c.push(d);
                    c
                })
                .collect()
        }
        fn bound(&self, node: &Vec<u8>) -> f64 {
            let sum: u64 = node.iter().map(|&d| d as u64).sum();
            (sum + 2 * (self.depth - node.len()) as u64) as f64
        }
        fn value(&self, node: &Vec<u8>) -> Option<f64> {
            (node.len() == self.depth).then(|| node.iter().map(|&d| d as f64).sum())
        }
    }

    #[test]
    fn sequential_finds_the_obvious_optimum() {
        let (best, stats) = solve_sequential(&DigitTree { depth: 5 });
        assert_eq!(best, 10.0); // all 2s
                                // Best-first with an exact bound walks straight to the optimum.
        assert!(stats.expanded <= 6, "expanded {}", stats.expanded);
    }

    #[test]
    fn shared_and_sequential_agree() {
        let p = DigitTree { depth: 7 };
        let (seq, _) = solve_sequential(&p);
        assert_eq!(solve_shared(&p), seq);
    }

    #[test]
    fn empty_tree_yields_neg_infinity() {
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
        let (best, _) = solve_sequential(&Barren);
        assert_eq!(best, f64::NEG_INFINITY);
    }
}
