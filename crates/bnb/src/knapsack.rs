//! 0/1 knapsack as a branch-and-bound application.
//!
//! Nodes fix a prefix of include/exclude decisions; the admissible bound
//! is the classic fractional (linear-relaxation) bound on the remaining
//! items, which requires items sorted by value density — enforced by the
//! constructor so the bound is valid by construction.

use crate::skeleton::BranchAndBound;
use archetype_mp::Payload;

/// A knapsack instance with items pre-sorted by value/weight density.
#[derive(Clone, Debug)]
pub struct Knapsack {
    /// Item weights (density-sorted).
    pub weights: Vec<u64>,
    /// Item values (density-sorted, parallel to `weights`).
    pub values: Vec<u64>,
    /// Capacity.
    pub capacity: u64,
}

impl Knapsack {
    /// Build an instance; items are sorted by decreasing value density
    /// internally (required by the fractional bound).
    pub fn new(items: &[(u64, u64)], capacity: u64) -> Self {
        let mut idx: Vec<usize> = (0..items.len()).collect();
        idx.sort_by(|&a, &b| {
            let da = items[a].1 as f64 / items[a].0.max(1) as f64;
            let db = items[b].1 as f64 / items[b].0.max(1) as f64;
            db.partial_cmp(&da).expect("densities are finite")
        });
        Knapsack {
            weights: idx.iter().map(|&i| items[i].0).collect(),
            values: idx.iter().map(|&i| items[i].1).collect(),
            capacity,
        }
    }

    fn n(&self) -> usize {
        self.weights.len()
    }
}

/// A search node: decisions fixed for items `0..level`.
#[derive(Clone, Copy, Debug, Default)]
pub struct KnapNode {
    /// Next undecided item.
    pub level: usize,
    /// Weight used by the fixed prefix.
    pub weight: u64,
    /// Value collected by the fixed prefix.
    pub value: u64,
}

impl Payload for KnapNode {
    fn size_bytes(&self) -> usize {
        std::mem::size_of::<KnapNode>()
    }
}

impl BranchAndBound for Knapsack {
    type Node = KnapNode;

    fn root(&self) -> KnapNode {
        KnapNode::default()
    }

    fn branch(&self, node: &KnapNode) -> Vec<KnapNode> {
        let mut out = Vec::with_capacity(2);
        // Exclude item `level`.
        out.push(KnapNode {
            level: node.level + 1,
            ..*node
        });
        // Include it, if it fits.
        if node.weight + self.weights[node.level] <= self.capacity {
            out.push(KnapNode {
                level: node.level + 1,
                weight: node.weight + self.weights[node.level],
                value: node.value + self.values[node.level],
            });
        }
        out
    }

    fn bound(&self, node: &KnapNode) -> f64 {
        // Fractional relaxation: greedily take remaining (density-sorted)
        // items, splitting the first that doesn't fit.
        let mut room = self.capacity - node.weight;
        let mut bound = node.value as f64;
        for i in node.level..self.n() {
            if self.weights[i] <= room {
                room -= self.weights[i];
                bound += self.values[i] as f64;
            } else {
                bound += self.values[i] as f64 * room as f64 / self.weights[i] as f64;
                break;
            }
        }
        bound
    }

    fn value(&self, node: &KnapNode) -> Option<f64> {
        (node.level == self.n()).then_some(node.value as f64)
    }
}

/// Dynamic-programming oracle for tests: exact optimum in
/// `O(n · capacity)`.
pub fn knapsack_dp(items: &[(u64, u64)], capacity: u64) -> u64 {
    let cap = capacity as usize;
    let mut best = vec![0u64; cap + 1];
    for &(w, v) in items {
        let w = w as usize;
        for c in (w..=cap).rev() {
            best[c] = best[c].max(best[c - w] + v);
        }
    }
    best[cap]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeleton::{solve_sequential, solve_shared};

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
    fn matches_dp_on_small_instances() {
        for seed in 1..8u64 {
            let items = pseudo_random_items(16, seed);
            let cap = 120;
            let expected = knapsack_dp(&items, cap) as f64;
            let (got, _) = solve_sequential(&Knapsack::new(&items, cap));
            assert_eq!(got, expected, "seed={seed}");
        }
    }

    #[test]
    fn trivial_instances() {
        // Nothing fits.
        let (v, _) = solve_sequential(&Knapsack::new(&[(10, 100)], 5));
        assert_eq!(v, 0.0);
        // Everything fits.
        let (v, _) = solve_sequential(&Knapsack::new(&[(1, 3), (2, 4)], 10));
        assert_eq!(v, 7.0);
        // Zero items.
        let (v, _) = solve_sequential(&Knapsack::new(&[], 10));
        assert_eq!(v, 0.0);
    }

    #[test]
    fn shared_solver_matches_dp() {
        let items = pseudo_random_items(18, 42);
        let cap = 150;
        let expected = knapsack_dp(&items, cap) as f64;
        assert_eq!(solve_shared(&Knapsack::new(&items, cap)), expected);
    }

    #[test]
    fn bound_is_admissible_along_optimal_path() {
        // The fractional bound at the root must be >= the optimum.
        let items = pseudo_random_items(20, 3);
        let cap = 130;
        let problem = Knapsack::new(&items, cap);
        let opt = knapsack_dp(&items, cap) as f64;
        assert!(problem.bound(&problem.root()) >= opt);
    }

    #[test]
    fn pruning_reduces_work_relative_to_exhaustive() {
        let items = pseudo_random_items(18, 9);
        let problem = Knapsack::new(&items, 120);
        let (_, stats) = solve_sequential(&problem);
        let exhaustive = (1u64 << 18) - 1; // internal nodes of the full tree
        assert!(
            stats.expanded < exhaustive / 10,
            "bound should prune most of the tree: expanded {}",
            stats.expanded
        );
    }
}
