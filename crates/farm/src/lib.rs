//! # archetype-farm — the task-farm (master–worker) archetype
//!
//! The paper's central claim is that a parallel *archetype* — a
//! computational pattern plus a parallelization strategy, from which the
//! communication structure is derived — is a reusable, nameable artifact.
//! This crate adds the **task-farm** archetype to the library: an
//! irregular pool of independent tasks (which may spawn further tasks) is
//! drained by SPMD workers, rebalanced by work stealing, and shut down by
//! distributed termination detection.
//!
//! A farm is described once by implementing [`Farm`] — `seed` produces
//! the initial task pool, `work` processes one task (emitting partial
//! results and spawning new tasks through a [`WorkScope`]), and `reduce`
//! combines partial results — and executed by [`run_farm`] on the
//! substrate's pooled SPMD executor. The skeleton derives the archetype's
//! communication pattern from that description:
//!
//! * **Adaptive batching.** Each rank drains its local priority queue in
//!   batches sized from the [`MachineModel`](archetype_mp::MachineModel):
//!   a [`CostMeter`](archetype_mp::CostMeter) tracks the modeled cost of
//!   executed tasks, and the batch grows until per-round communication is
//!   a configured fraction of per-round compute
//!   ([`Batching::Adaptive`]).
//! * **Work stealing.** After each batch, ranks pair up along a hypercube
//!   schedule and exchange tagged steal-request / steal-reply messages
//!   ([`archetype_mp::tags`]); the richer partner ships half its surplus
//!   — coldest (lowest-priority, newest) tasks first — to the poorer one.
//! * **Termination + steering wave.** A token circulates the rank ring
//!   accumulating every rank's pending-task count and locally merged
//!   steering hint (e.g. a branch-and-bound incumbent); the last rank
//!   fans the verdict back out. The farm terminates exactly when a wave
//!   proves global quiescence — a deterministic, virtual-time-friendly
//!   variant of wave-based distributed termination detection.
//!
//! Everything above runs in lockstep rounds, so — like the rest of the
//! workspace — a farm is **deterministic under virtual time**: the same
//! program yields the same results, clocks, and statistics on every run.
//!
//! ```
//! use archetype_farm::{run_farm, Farm, FarmConfig, WorkScope};
//! use archetype_mp::{run_spmd, MachineModel};
//!
//! /// Sum the squares of 0..100 as a farm of one task per integer.
//! struct Squares;
//! impl Farm for Squares {
//!     type Task = u64;
//!     type Out = u64;
//!     type Hint = ();
//!     fn seed(&self) -> Vec<u64> {
//!         (0..100).collect()
//!     }
//!     fn work(&self, task: u64, scope: &mut WorkScope<'_, Self>) {
//!         scope.emit(task * task);
//!     }
//!     fn out_identity(&self) -> u64 {
//!         0
//!     }
//!     fn reduce(&self, a: u64, b: u64) -> u64 {
//!         a + b
//!     }
//! }
//!
//! let out = run_spmd(4, MachineModel::ibm_sp(), |ctx| {
//!     run_farm(&Squares, ctx, FarmConfig::default()).0
//! });
//! assert!(out.results.iter().all(|&s| s == (0..100u64).map(|i| i * i).sum()));
//! ```

#![deny(missing_docs)]

pub mod apps;
pub mod ft;
pub mod skeleton;

pub use ft::{run_farm_ft, FtFarmConfig, FtFarmStats};
pub use skeleton::{run_farm, Batching, Farm, FarmConfig, FarmStats, WorkScope};
