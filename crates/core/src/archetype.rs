//! Archetype and phase metadata.
//!
//! The paper treats an archetype as a nameable design artifact: a
//! computational pattern plus a parallelization strategy, with a phase
//! structure (split/solve/merge; grid-op/row-op/reduction/…) from which the
//! dataflow and communication pattern is *derived*. These types give that
//! artifact a concrete representation used by documentation, tracing, and
//! tests that assert an application follows its archetype's pattern.

/// The kinds of phases/operations that appear in the two archetypes of the
/// paper (and compose into their dataflow patterns).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// Recursive D&C: divide the problem and descend into disjoint
    /// subcommunicators (one level of the recursion tree).
    Recurse,
    /// One-deep D&C: compute split parameters and partition the input.
    Split,
    /// One-deep D&C: solve each subproblem independently (sequentially).
    Solve,
    /// One-deep D&C: repartition subsolutions and merge locally.
    Merge,
    /// Mesh-spectral: the same operation applied at every grid point
    /// (optionally reading neighbours — which requires ghost exchange).
    GridOp,
    /// Mesh-spectral: independent operation on every row.
    RowOp,
    /// Mesh-spectral: independent operation on every column.
    ColOp,
    /// Mesh-spectral: associative combination of all grid values.
    Reduction,
    /// Mesh-spectral: file input/output.
    Io,
    /// Communication inserted by the archetype: redistribution,
    /// boundary exchange, broadcast of globals.
    Communication,
    /// Task-farm: generate the initial task pool and deal it to workers.
    Seed,
    /// Task-farm: workers drain batches of tasks from their local queues
    /// (possibly spawning new tasks).
    Work,
    /// Task-farm: load balancing — a steal-request/steal-reply exchange
    /// that moves surplus tasks between ranks.
    Steal,
    /// Task-farm: distributed termination detection (the wave that proves
    /// global quiescence) and the final reduction.
    Terminate,
    /// Pipeline: produce the input stream, one item at a time.
    Ingest,
    /// Pipeline: one stage (or fused segment of stages) of the transform
    /// chain, applied to every stream item in sequence order.
    Transform,
    /// Pipeline: end-of-stream propagation — the EOS markers that flush
    /// every stage and reclaim outstanding flow-control credits.
    Drain,
    /// Pipeline: the in-order fold of final items into the output.
    Emit,
    /// Fault tolerance: a rank failure is observed (channel disconnection
    /// or virtual-time heartbeat timeout) and charged its deterministic
    /// detection cost.
    Detect,
    /// Fault tolerance: the failed rank's outstanding work is re-executed
    /// or re-routed (farm batch reassignment, pipeline replica failover,
    /// composition atom replay).
    Recover,
}

impl PhaseKind {
    /// Stable lowercase name of the phase kind — the `kind` string
    /// stamped into substrate trace events (`Ctx::trace_phase`) and
    /// printed by `Display`.
    pub fn name(&self) -> &'static str {
        match self {
            PhaseKind::Recurse => "recurse",
            PhaseKind::Split => "split",
            PhaseKind::Solve => "solve",
            PhaseKind::Merge => "merge",
            PhaseKind::GridOp => "grid-op",
            PhaseKind::RowOp => "row-op",
            PhaseKind::ColOp => "col-op",
            PhaseKind::Reduction => "reduction",
            PhaseKind::Io => "io",
            PhaseKind::Communication => "communication",
            PhaseKind::Seed => "seed",
            PhaseKind::Work => "work",
            PhaseKind::Steal => "steal",
            PhaseKind::Terminate => "terminate",
            PhaseKind::Ingest => "ingest",
            PhaseKind::Transform => "transform",
            PhaseKind::Drain => "drain",
            PhaseKind::Emit => "emit",
            PhaseKind::Detect => "detect",
            PhaseKind::Recover => "recover",
        }
    }

    /// The phase kind whose [`PhaseKind::name`] is `name`: turns the
    /// `kind` string of a substrate phase event back into a kind.
    pub fn from_name(name: &str) -> Option<PhaseKind> {
        Some(match name {
            "recurse" => PhaseKind::Recurse,
            "split" => PhaseKind::Split,
            "solve" => PhaseKind::Solve,
            "merge" => PhaseKind::Merge,
            "grid-op" => PhaseKind::GridOp,
            "row-op" => PhaseKind::RowOp,
            "col-op" => PhaseKind::ColOp,
            "reduction" => PhaseKind::Reduction,
            "io" => PhaseKind::Io,
            "communication" => PhaseKind::Communication,
            "seed" => PhaseKind::Seed,
            "work" => PhaseKind::Work,
            "steal" => PhaseKind::Steal,
            "terminate" => PhaseKind::Terminate,
            "ingest" => PhaseKind::Ingest,
            "transform" => PhaseKind::Transform,
            "drain" => PhaseKind::Drain,
            "emit" => PhaseKind::Emit,
            "detect" => PhaseKind::Detect,
            "recover" => PhaseKind::Recover,
            _ => return None,
        })
    }
}

impl std::fmt::Display for PhaseKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A grammar over [`PhaseKind`] sequences: the machine-checkable shape of
/// an archetype's phase structure, as `const` data.
///
/// Every [`ArchetypeInfo`] declares one; `tests/conformance.rs` asserts
/// that the phases a skeleton stamps into a traced run
/// (`Ctx::trace_phase`) are *accepted* by its archetype's grammar —
/// turning the metadata into an enforced contract rather than
/// documentation. Patterns are ordinary regular operators plus
/// [`PhasePattern::Tree`], the Dyck-style balanced pattern that a
/// preorder recursion trace (recursive divide-and-conquer) requires and
/// regular operators cannot express. Matching goes through the owned
/// form, [`PatternExpr::from_static`].
///
/// ```
/// use archetype_core::archetype::{PatternExpr, PhaseKind, PhasePattern};
/// use PhaseKind::{Merge, Solve, Split};
///
/// const G: PhasePattern = PhasePattern::Seq(&[
///     PhasePattern::Kind(Split),
///     PhasePattern::Plus(&PhasePattern::Kind(Solve)),
///     PhasePattern::Kind(Merge),
/// ]);
/// let g = PatternExpr::from_static(&G);
/// assert!(g.matches(&[Split, Solve, Solve, Merge]));
/// assert!(!g.matches(&[Split, Merge]));
/// ```
#[derive(Clone, Copy, Debug)]
pub enum PhasePattern {
    /// Exactly one phase of this kind.
    Kind(PhaseKind),
    /// Exactly one phase, of any of these kinds.
    AnyOf(&'static [PhaseKind]),
    /// Each sub-pattern in order.
    Seq(&'static [PhasePattern]),
    /// Zero or more repetitions.
    Star(&'static PhasePattern),
    /// One or more repetitions.
    Plus(&'static PhasePattern),
    /// Zero or one occurrence.
    Opt(&'static PhasePattern),
    /// A preorder recursion-tree trace: `T := leaf | open T+ close`.
    Tree {
        /// Phase recorded on entering an internal node.
        open: PhaseKind,
        /// Phase recorded at a leaf (the sequential cutoff).
        leaf: PhaseKind,
        /// Phase recorded when an internal node combines its children.
        close: PhaseKind,
    },
}

/// An **owned, runtime-composable** phase grammar and the one matcher:
/// the dynamic counterpart of [`PhasePattern`], built from the static
/// archetype grammars ([`PatternExpr::from_static`]) or composed at run
/// time — most importantly by the composition subsystem
/// (`crates/compose`), which derives the grammar of a whole *plan* of
/// archetype instances from its members' static grammars by sequence
/// composition ([`PatternExpr::seq`]).
///
/// ```
/// use archetype_core::archetype::{PatternExpr, PhaseKind, ONE_DEEP_DC, TASK_FARM};
/// use PhaseKind::{Merge, Seed, Solve, Split, Terminate, Work};
///
/// // A farm followed by a one-deep D&C, as a derived composite grammar.
/// let g = PatternExpr::seq(vec![
///     PatternExpr::from_static(&TASK_FARM.grammar),
///     PatternExpr::from_static(&ONE_DEEP_DC.grammar),
/// ]);
/// assert!(g.matches(&[Seed, Work, Terminate, Split, Solve, Merge]));
/// assert!(!g.matches(&[Split, Solve, Merge, Seed, Work, Terminate]));
/// ```
#[derive(Clone, Debug)]
pub enum PatternExpr {
    /// Exactly one phase of this kind.
    Kind(PhaseKind),
    /// Exactly one phase, of any of these kinds.
    AnyOf(Vec<PhaseKind>),
    /// Each sub-pattern in order (members' traces concatenate).
    Seq(Vec<PatternExpr>),
    /// Zero or more repetitions.
    Star(Box<PatternExpr>),
    /// One or more repetitions.
    Plus(Box<PatternExpr>),
    /// Zero or one occurrence.
    Opt(Box<PatternExpr>),
    /// A preorder recursion-tree trace: `T := leaf | open T+ close`.
    Tree {
        /// Phase recorded on entering an internal node.
        open: PhaseKind,
        /// Phase recorded at a leaf (the sequential cutoff).
        leaf: PhaseKind,
        /// Phase recorded when an internal node combines its children.
        close: PhaseKind,
    },
}

impl PatternExpr {
    /// Sequential composition: members' traces concatenate in order.
    pub fn seq(parts: Vec<PatternExpr>) -> PatternExpr {
        PatternExpr::Seq(parts)
    }

    /// Zero-or-one occurrence of `inner`.
    pub fn opt(inner: PatternExpr) -> PatternExpr {
        PatternExpr::Opt(Box::new(inner))
    }

    /// Convert a static archetype grammar into an owned expression, so it
    /// can be matched or composed with others at run time.
    pub fn from_static(p: &PhasePattern) -> PatternExpr {
        match p {
            PhasePattern::Kind(k) => PatternExpr::Kind(*k),
            PhasePattern::AnyOf(ks) => PatternExpr::AnyOf(ks.to_vec()),
            PhasePattern::Seq(parts) => {
                PatternExpr::Seq(parts.iter().map(PatternExpr::from_static).collect())
            }
            PhasePattern::Star(inner) => {
                PatternExpr::Star(Box::new(PatternExpr::from_static(inner)))
            }
            PhasePattern::Plus(inner) => {
                PatternExpr::Plus(Box::new(PatternExpr::from_static(inner)))
            }
            PhasePattern::Opt(inner) => PatternExpr::Opt(Box::new(PatternExpr::from_static(inner))),
            PhasePattern::Tree { open, leaf, close } => PatternExpr::Tree {
                open: *open,
                leaf: *leaf,
                close: *close,
            },
        }
    }

    /// True if `kinds` as a whole is a sentence of this grammar.
    pub fn matches(&self, kinds: &[PhaseKind]) -> bool {
        self.ends(kinds, 0).contains(&kinds.len())
    }

    /// All positions a match starting at `pos` can end at (deduplicated,
    /// ascending). Traces are short, so plain backtracking is plenty.
    fn ends(&self, kinds: &[PhaseKind], pos: usize) -> Vec<usize> {
        let mut out = match self {
            PatternExpr::Kind(k) => {
                if kinds.get(pos) == Some(k) {
                    vec![pos + 1]
                } else {
                    vec![]
                }
            }
            PatternExpr::AnyOf(ks) => match kinds.get(pos) {
                Some(k) if ks.contains(k) => vec![pos + 1],
                _ => vec![],
            },
            PatternExpr::Seq(parts) => {
                let mut frontier = vec![pos];
                for part in parts {
                    let mut next = Vec::new();
                    for &p in &frontier {
                        next.extend(part.ends(kinds, p));
                    }
                    next.sort_unstable();
                    next.dedup();
                    frontier = next;
                    if frontier.is_empty() {
                        break;
                    }
                }
                frontier
            }
            PatternExpr::Star(inner) => inner.repeat_ends(kinds, pos),
            PatternExpr::Plus(inner) => {
                let mut out = Vec::new();
                for first in inner.ends(kinds, pos) {
                    out.extend(inner.repeat_ends(kinds, first));
                }
                out
            }
            PatternExpr::Opt(inner) => {
                let mut out = vec![pos];
                out.extend(inner.ends(kinds, pos));
                out
            }
            PatternExpr::Tree { open, leaf, close } => {
                Self::tree_end(kinds, pos, *open, *leaf, *close)
                    .into_iter()
                    .collect()
            }
        };
        out.sort_unstable();
        out.dedup();
        out
    }

    /// End positions of zero or more repetitions of `self` from `pos`.
    fn repeat_ends(&self, kinds: &[PhaseKind], pos: usize) -> Vec<usize> {
        let mut reach = vec![pos];
        let mut frontier = vec![pos];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &p in &frontier {
                for e in self.ends(kinds, p) {
                    // Only strictly advancing repetitions, so a nullable
                    // inner pattern cannot loop forever.
                    if e > p && !reach.contains(&e) {
                        reach.push(e);
                        next.push(e);
                    }
                }
            }
            frontier = next;
        }
        reach
    }

    /// Deterministic recursive-descent parse of one tree starting at
    /// `pos`; returns the position after it.
    fn tree_end(
        kinds: &[PhaseKind],
        pos: usize,
        open: PhaseKind,
        leaf: PhaseKind,
        close: PhaseKind,
    ) -> Option<usize> {
        match kinds.get(pos)? {
            k if *k == leaf => Some(pos + 1),
            k if *k == open => {
                let mut p = Self::tree_end(kinds, pos + 1, open, leaf, close)?;
                while let Some(next) = kinds.get(p) {
                    if *next == close {
                        return Some(p + 1);
                    }
                    p = Self::tree_end(kinds, p, open, leaf, close)?;
                }
                None
            }
            _ => None,
        }
    }
}

/// Static description of an archetype: its name, characteristic phase
/// vocabulary, and phase grammar. Used in documentation output, by
/// `describe()` helpers on the application types, and by the conformance
/// suite that grammar-checks emitted phase traces.
#[derive(Clone, Debug)]
pub struct ArchetypeInfo {
    /// Archetype name, e.g. `"one-deep divide-and-conquer"`.
    pub name: &'static str,
    /// The phase kinds this archetype composes.
    pub phases: &'static [PhaseKind],
    /// The communication operations its dataflow pattern requires.
    pub communication: &'static [&'static str],
    /// The grammar every emitted phase trace must satisfy.
    pub grammar: PhasePattern,
}

/// The one-deep divide-and-conquer archetype (paper §2).
pub const ONE_DEEP_DC: ArchetypeInfo = ArchetypeInfo {
    name: "one-deep divide-and-conquer",
    phases: &[PhaseKind::Split, PhaseKind::Solve, PhaseKind::Merge],
    communication: &[
        "all-to-all redistribution (split and merge phases)",
        "gather+broadcast or all-to-all before sequential parameter computation",
        "broadcast after parameter computation",
    ],
    grammar: PhasePattern::Seq(&[
        PhasePattern::Kind(PhaseKind::Split),
        PhasePattern::Kind(PhaseKind::Solve),
        PhasePattern::Kind(PhaseKind::Merge),
    ]),
};

/// The mesh-spectral archetype (paper §3).
pub const MESH_SPECTRAL: ArchetypeInfo = ArchetypeInfo {
    name: "mesh-spectral",
    phases: &[
        PhaseKind::GridOp,
        PhaseKind::RowOp,
        PhaseKind::ColOp,
        PhaseKind::Reduction,
        PhaseKind::Io,
    ],
    communication: &[
        "grid redistribution (rows <-> columns)",
        "boundary (ghost) exchange",
        "broadcast of global data",
        "reduction (recursive doubling / all-to-one / one-to-all)",
    ],
    // Distribute, then any number of archetype-inserted-communication /
    // grid-row-col op / reduction rounds, then collect.
    grammar: PhasePattern::Seq(&[
        PhasePattern::Kind(PhaseKind::Io),
        PhasePattern::Star(&PhasePattern::Seq(&[
            PhasePattern::Opt(&PhasePattern::Kind(PhaseKind::Communication)),
            PhasePattern::AnyOf(&[PhaseKind::GridOp, PhaseKind::RowOp, PhaseKind::ColOp]),
            PhasePattern::Opt(&PhasePattern::Kind(PhaseKind::Reduction)),
        ])),
        PhasePattern::Kind(PhaseKind::Io),
    ]),
};

/// The general recursive divide-and-conquer archetype: divide into `k`
/// subproblems, recurse on disjoint process subgroups until a
/// performance-model-chosen cutoff, solve sequentially at the leaves, and
/// merge subsolutions up a combining tree. The one-deep archetype
/// ([`ONE_DEEP_DC`]) is its depth-one special case; the paper (§2.1.1)
/// presents the recursive form as the "traditional" structure whose
/// communication the archetype derives from the recursion tree.
pub const RECURSIVE_DC: ArchetypeInfo = ArchetypeInfo {
    name: "recursive divide-and-conquer",
    phases: &[PhaseKind::Recurse, PhaseKind::Solve, PhaseKind::Merge],
    communication: &[
        "group broadcast of the subproblem size before each cutoff decision",
        "group scatter of subproblems to subgroup roots (recursion descent)",
        "group gather of subsolutions to the group root (combining tree)",
        "nested Group::split subcommunicators with disjoint tag namespaces",
    ],
    // A preorder recursion-tree trace; a rank's root-path trace (one
    // subtree per level) is the k=1 special case.
    grammar: PhasePattern::Tree {
        open: PhaseKind::Recurse,
        leaf: PhaseKind::Solve,
        close: PhaseKind::Merge,
    },
};

/// The task-farm (master–worker) archetype: an irregular pool of
/// independent tasks — possibly spawning further tasks — drained by
/// workers in batches, rebalanced by work stealing, and terminated by a
/// distributed quiescence wave. The paper's future-work list (§7) asks
/// for archetypes beyond the two deterministic ones; the farm covers the
/// irregular-workload family (branch-and-bound search, fractal tiles,
/// parameter sweeps).
pub const TASK_FARM: ArchetypeInfo = ArchetypeInfo {
    name: "task-farm",
    phases: &[
        PhaseKind::Seed,
        PhaseKind::Work,
        PhaseKind::Steal,
        PhaseKind::Detect,
        PhaseKind::Recover,
        PhaseKind::Terminate,
    ],
    communication: &[
        "steal-request / steal-reply exchange (pairwise, hypercube schedule)",
        "steering-hint ring wave (incumbent sharing)",
        "termination-detection wave (global quiescence proof)",
        "final reduction of per-worker partial results",
        "work-order / batch-result exchange with heartbeat timeout (FT farm)",
    ],
    // Seed, then one Work (optionally followed by a steal exchange — the
    // hypercube partner may be out of range on non-power-of-two runs,
    // and optionally followed by detect/recover pairs when the
    // fault-tolerant farm observes dead workers and reassigns their
    // batches) per round, then the termination wave's verdict.
    grammar: PhasePattern::Seq(&[
        PhasePattern::Kind(PhaseKind::Seed),
        PhasePattern::Plus(&PhasePattern::Seq(&[
            PhasePattern::Kind(PhaseKind::Work),
            PhasePattern::Opt(&PhasePattern::Kind(PhaseKind::Steal)),
            PhasePattern::Star(&PhasePattern::Seq(&[
                PhasePattern::Kind(PhaseKind::Detect),
                PhasePattern::Kind(PhaseKind::Recover),
            ])),
        ])),
        PhasePattern::Kind(PhaseKind::Terminate),
    ]),
};

/// The pipeline (stream) archetype: a linear chain of stages applied to
/// every item of an ordered stream, run with bounded credit-based flow
/// control and round-robin stage replication. The paper's future-work
/// list (§7) asks for archetypes beyond the two deterministic ones; the
/// pipeline covers the streaming family (filter chains, online
/// aggregation) while keeping the workspace's determinism guarantee via
/// in-order delivery at the emit stage.
pub const PIPELINE: ArchetypeInfo = ArchetypeInfo {
    name: "pipeline",
    phases: &[
        PhaseKind::Ingest,
        PhaseKind::Transform,
        PhaseKind::Detect,
        PhaseKind::Recover,
        PhaseKind::Drain,
        PhaseKind::Emit,
    ],
    communication: &[
        "item stream between consecutive stages (round-robin split/merge across replicas)",
        "credit-return messages bounding in-flight items to O(depth x window)",
        "end-of-stream markers flushing every stage (drain)",
        "broadcast of the folded output and reduction of statistics",
        "re-routing of a dead replica's share to its successor (replica failover)",
    ],
    // Between ingest and drain: transforms, interspersed with
    // detect/recover records when a dead replica's share of the stream is
    // failed over to a surviving one.
    grammar: PhasePattern::Seq(&[
        PhasePattern::Kind(PhaseKind::Ingest),
        PhasePattern::Star(&PhasePattern::AnyOf(&[
            PhaseKind::Transform,
            PhaseKind::Detect,
            PhaseKind::Recover,
        ])),
        PhasePattern::Kind(PhaseKind::Drain),
        PhasePattern::Kind(PhaseKind::Emit),
    ]),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn archetype_constants_are_consistent() {
        assert!(ONE_DEEP_DC.phases.contains(&PhaseKind::Split));
        assert!(ONE_DEEP_DC.phases.contains(&PhaseKind::Solve));
        assert!(ONE_DEEP_DC.phases.contains(&PhaseKind::Merge));
        assert!(MESH_SPECTRAL.phases.contains(&PhaseKind::GridOp));
        assert!(!MESH_SPECTRAL.phases.contains(&PhaseKind::Split));
        assert!(!ONE_DEEP_DC.communication.is_empty());
        assert!(TASK_FARM.phases.contains(&PhaseKind::Seed));
        assert!(TASK_FARM.phases.contains(&PhaseKind::Steal));
        assert!(!TASK_FARM.phases.contains(&PhaseKind::Merge));
        assert!(TASK_FARM.communication.iter().any(|c| c.contains("steal")));
        assert!(RECURSIVE_DC.phases.contains(&PhaseKind::Recurse));
        assert!(RECURSIVE_DC.phases.contains(&PhaseKind::Solve));
        assert!(RECURSIVE_DC.phases.contains(&PhaseKind::Merge));
        assert!(!ONE_DEEP_DC.phases.contains(&PhaseKind::Recurse));
        assert!(RECURSIVE_DC
            .communication
            .iter()
            .any(|c| c.contains("scatter")));
    }

    #[test]
    fn phase_kind_display_names() {
        assert_eq!(PhaseKind::Split.to_string(), "split");
        assert_eq!(PhaseKind::GridOp.to_string(), "grid-op");
        assert_eq!(PhaseKind::Communication.to_string(), "communication");
        assert_eq!(PhaseKind::Seed.to_string(), "seed");
        assert_eq!(PhaseKind::Terminate.to_string(), "terminate");
        assert_eq!(PhaseKind::Recurse.to_string(), "recurse");
    }

    #[test]
    fn from_name_inverts_name() {
        use PhaseKind::*;
        for k in [
            Recurse,
            Split,
            Solve,
            Merge,
            GridOp,
            RowOp,
            ColOp,
            Reduction,
            Io,
            Communication,
            Seed,
            Work,
            Steal,
            Terminate,
            Ingest,
            Transform,
            Drain,
            Emit,
            Detect,
            Recover,
        ] {
            assert_eq!(PhaseKind::from_name(k.name()), Some(k));
        }
        assert_eq!(PhaseKind::from_name("wave"), None);
    }

    #[test]
    fn pipeline_metadata_is_consistent() {
        assert_eq!(PIPELINE.name, "pipeline");
        assert!(PIPELINE.phases.contains(&PhaseKind::Ingest));
        assert!(PIPELINE.phases.contains(&PhaseKind::Drain));
        assert!(!PIPELINE.phases.contains(&PhaseKind::Work));
        assert!(PIPELINE.communication.iter().any(|c| c.contains("credit")));
        assert_eq!(PhaseKind::Ingest.to_string(), "ingest");
        assert_eq!(PhaseKind::Drain.to_string(), "drain");
    }

    #[test]
    fn one_deep_grammar_accepts_exactly_split_solve_merge() {
        use PhaseKind::{Merge, Solve, Split};
        let g = PatternExpr::from_static(&ONE_DEEP_DC.grammar);
        assert!(g.matches(&[Split, Solve, Merge]));
        assert!(!g.matches(&[Split, Merge]));
        assert!(!g.matches(&[Split, Solve, Merge, Merge]));
        assert!(!g.matches(&[]));
    }

    #[test]
    fn recursive_grammar_accepts_preorder_trees_only() {
        use PhaseKind::{Merge, Recurse, Solve};
        let g = PatternExpr::from_static(&RECURSIVE_DC.grammar);
        assert!(g.matches(&[Solve]));
        assert!(g.matches(&[Recurse, Solve, Solve, Merge]));
        // The depth-2 binary tree from the dc skeleton's own test.
        assert!(g.matches(&[
            Recurse, Recurse, Solve, Solve, Merge, Recurse, Solve, Solve, Merge, Merge
        ]));
        // A rank's root path: one subtree per level.
        assert!(g.matches(&[Recurse, Recurse, Solve, Merge, Merge]));
        // Unbalanced or empty nodes are rejected.
        assert!(!g.matches(&[Recurse, Solve, Solve]));
        assert!(!g.matches(&[Recurse, Merge]));
        assert!(!g.matches(&[Solve, Solve]));
    }

    #[test]
    fn farm_grammar_requires_seed_rounds_terminate() {
        use PhaseKind::{Seed, Steal, Terminate, Work};
        let g = PatternExpr::from_static(&TASK_FARM.grammar);
        assert!(g.matches(&[Seed, Work, Terminate]));
        assert!(g.matches(&[Seed, Work, Steal, Work, Steal, Terminate]));
        assert!(g.matches(&[Seed, Work, Work, Steal, Terminate]));
        assert!(!g.matches(&[Seed, Terminate]));
        assert!(!g.matches(&[Work, Steal, Terminate]));
        assert!(!g.matches(&[Seed, Steal, Work, Terminate]));
    }

    #[test]
    fn farm_grammar_accepts_detect_recover_rounds() {
        use PhaseKind::{Detect, Recover, Seed, Terminate, Work};
        let g = PatternExpr::from_static(&TASK_FARM.grammar);
        // A worker death observed after a round: detect, reassign, rework.
        assert!(g.matches(&[Seed, Work, Detect, Recover, Work, Terminate]));
        // Two deaths in one round.
        assert!(g.matches(&[Seed, Work, Detect, Recover, Detect, Recover, Terminate]));
        // Recovery without detection (or the reverse) is rejected.
        assert!(!g.matches(&[Seed, Work, Recover, Terminate]));
        assert!(!g.matches(&[Seed, Work, Detect, Terminate]));
        assert!(!g.matches(&[Seed, Detect, Recover, Terminate]));
    }

    #[test]
    fn mesh_grammar_brackets_op_rounds_with_io() {
        use PhaseKind::{ColOp, Communication, GridOp, Io, Reduction, RowOp};
        let g = PatternExpr::from_static(&MESH_SPECTRAL.grammar);
        assert!(g.matches(&[Io, Io]));
        assert!(g.matches(&[Io, Communication, GridOp, Reduction, GridOp, Io]));
        assert!(g.matches(&[Io, RowOp, ColOp, Reduction, Io]));
        assert!(!g.matches(&[GridOp, Io]));
        assert!(!g.matches(&[Io, Reduction, Io]));
    }

    #[test]
    fn pipeline_grammar_is_ingest_transforms_drain_emit() {
        use PhaseKind::{Drain, Emit, Ingest, Transform};
        let g = PatternExpr::from_static(&PIPELINE.grammar);
        assert!(g.matches(&[Ingest, Drain, Emit]));
        assert!(g.matches(&[Ingest, Transform, Transform, Transform, Drain, Emit]));
        assert!(!g.matches(&[Ingest, Transform, Emit]));
        assert!(!g.matches(&[Transform, Drain, Emit]));
        assert!(!g.matches(&[Ingest, Drain, Emit, Emit]));
    }

    #[test]
    fn pipeline_grammar_accepts_failover_records() {
        use PhaseKind::{Detect, Drain, Emit, Ingest, Recover, Transform};
        let g = PatternExpr::from_static(&PIPELINE.grammar);
        // A replica death mid-stream: its items re-route to a survivor.
        assert!(g.matches(&[Ingest, Transform, Detect, Recover, Transform, Drain, Emit]));
        assert!(g.matches(&[Ingest, Detect, Recover, Drain, Emit]));
        // Failover records cannot replace the drain/emit finale.
        assert!(!g.matches(&[Ingest, Transform, Detect, Recover]));
        assert!(!g.matches(&[Detect, Recover, Drain, Emit]));
    }

    #[test]
    fn pattern_expr_round_trips_every_static_grammar() {
        use PhaseKind::*;
        // from_static must accept exactly what the static grammar accepts,
        // spot-checked on each archetype's canonical traces.
        let cases: Vec<(&ArchetypeInfo, Vec<PhaseKind>, Vec<PhaseKind>)> = vec![
            (&ONE_DEEP_DC, vec![Split, Solve, Merge], vec![Split, Merge]),
            (
                &RECURSIVE_DC,
                vec![Recurse, Solve, Solve, Merge],
                vec![Recurse, Solve],
            ),
            (
                &TASK_FARM,
                vec![Seed, Work, Steal, Terminate],
                vec![Seed, Terminate],
            ),
            (
                &PIPELINE,
                vec![Ingest, Transform, Drain, Emit],
                vec![Ingest, Emit],
            ),
            (
                &MESH_SPECTRAL,
                vec![Io, Communication, GridOp, Reduction, Io],
                vec![Io, Reduction, Io],
            ),
        ];
        for (info, yes, no) in cases {
            let e = PatternExpr::from_static(&info.grammar);
            assert!(e.matches(&yes), "{}: {yes:?}", info.name);
            assert!(!e.matches(&no), "{}: {no:?}", info.name);
        }
    }

    #[test]
    fn seq_composition_concatenates_member_grammars() {
        use PhaseKind::*;
        let g = PatternExpr::seq(vec![
            PatternExpr::from_static(&TASK_FARM.grammar),
            PatternExpr::from_static(&MESH_SPECTRAL.grammar),
            PatternExpr::from_static(&ONE_DEEP_DC.grammar),
        ]);
        assert!(g.matches(&[Seed, Work, Terminate, Io, GridOp, Io, Split, Solve, Merge]));
        // Members out of order are rejected.
        assert!(!g.matches(&[Io, GridOp, Io, Seed, Work, Terminate, Split, Solve, Merge]));
        // A member missing entirely is rejected.
        assert!(!g.matches(&[Seed, Work, Terminate, Split, Solve, Merge]));
    }

    #[test]
    fn star_of_nullable_pattern_terminates() {
        use PhaseKind::{GridOp, Io};
        // Star over an Opt could loop forever without the strict-advance
        // guard; it must just accept.
        const G: PhasePattern = PhasePattern::Star(&PhasePattern::Opt(&PhasePattern::Kind(GridOp)));
        let g = PatternExpr::from_static(&G);
        assert!(g.matches(&[]));
        assert!(g.matches(&[GridOp, GridOp]));
        assert!(!g.matches(&[Io]));
    }
}
