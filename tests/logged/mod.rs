//! A logging [`Recursive`] adapter for the shared-memory recursion
//! driver, which records no trace of its own: each `divide`/`solve`/
//! `combine` call maps one-to-one onto the `Recurse`/`Solve`/`Merge`
//! phase it performs.

use std::sync::Mutex;

use parallel_archetypes::core::PhaseKind;
use parallel_archetypes::dc::Recursive;

/// `alg` with every divide, solve and combine call logged as its phase.
pub struct Logged<A> {
    alg: A,
    log: Mutex<Vec<PhaseKind>>,
}

impl<A> Logged<A> {
    pub fn new(alg: A) -> Self {
        Logged {
            alg,
            log: Mutex::new(Vec::new()),
        }
    }

    /// The logged phases, in call order (preorder in sequential mode).
    pub fn kinds(&self) -> Vec<PhaseKind> {
        self.log.lock().unwrap().clone()
    }

    fn note(&self, kind: PhaseKind) {
        self.log.lock().unwrap().push(kind);
    }
}

impl<A: Recursive> Recursive for Logged<A> {
    type Problem = A::Problem;
    type Solution = A::Solution;

    fn size(&self, p: &A::Problem) -> usize {
        self.alg.size(p)
    }
    fn divide(&self, p: A::Problem, k: usize) -> Vec<A::Problem> {
        self.note(PhaseKind::Recurse);
        self.alg.divide(p, k)
    }
    fn solve(&self, p: A::Problem) -> A::Solution {
        self.note(PhaseKind::Solve);
        self.alg.solve(p)
    }
    fn combine(&self, parts: Vec<A::Solution>) -> A::Solution {
        self.note(PhaseKind::Merge);
        self.alg.combine(parts)
    }
}
