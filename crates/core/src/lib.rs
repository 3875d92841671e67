//! # archetype-core — the archetype framework
//!
//! Shared machinery for the parallel program archetypes of Massingill &
//! Chandy (IPPS 1999). An *archetype* combines a computational pattern with
//! a parallelization strategy; its defining practical property (paper §1.2)
//! is that the **initial archetype-based version of a program can be
//! executed sequentially**, giving the same results as parallel execution
//! for deterministic programs, so debugging happens in the sequential
//! domain.
//!
//! This crate provides exactly that: the paper's CC++ parfor / HPF
//! `forall` constructs as [`fn@parfor`]/[`forall`] functions whose iterations
//! are executed either by a plain loop ([`ExecutionMode::Sequential`]) or by
//! rayon ([`ExecutionMode::Parallel`]) — the archetype contract is that the
//! iterations are independent, so the two modes agree. It also provides
//! associative reduction operators ([`ops`]) and archetype/phase metadata
//! ([`archetype`]): the phase kinds skeletons stamp into traced runs and
//! the grammars tests check those stamps against, to assert that
//! applications follow their archetype's dataflow pattern.
//!
//! ```
//! use archetype_core::{parfor_map, ExecutionMode};
//!
//! let seq = parfor_map(ExecutionMode::Sequential, 100, |i| i * i);
//! let par = parfor_map(ExecutionMode::Parallel, 100, |i| i * i);
//! assert_eq!(seq, par); // the archetype's semantics-preservation property
//! ```

#![deny(missing_docs)]

pub mod archetype;
pub mod mode;
pub mod ops;
pub mod parfor;

pub use archetype::{ArchetypeInfo, PatternExpr, PhaseKind, PhasePattern};
pub use mode::ExecutionMode;
pub use ops::{associative_fold, ReduceOp};
pub use parfor::{forall, parfor, parfor_chunks, parfor_map, parfor_map_vec, parfor_reduce};
