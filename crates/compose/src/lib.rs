//! # archetype-compose — the composition archetype
//!
//! The paper's future-work list (§7) asks for "a theory and strategy for
//! archetype composition … for example task-parallel compositions of
//! data-parallel computations". This crate is that layer for the
//! workspace: a **plan algebra** whose atoms are whole archetype runs —
//! task farms, pipelines, recursive divide-and-conquer, mesh solvers —
//! and whose combinators place them **sequentially** (outputs feeding
//! inputs) or **concurrently on disjoint process subgroups**, with rank
//! shares chosen by a model-driven allocator from the jobs' work
//! estimates.
//!
//! Three layers make that composable without touching the archetype
//! skeletons:
//!
//! 1. **Scoped contexts** ([`archetype_mp::Ctx::scoped`]): a subgroup's
//!    view of the substrate in which *all* traffic — collectives, farm
//!    steal protocols, pipeline credit streams — matches only within the
//!    scope. Sibling branches therefore run unmodified skeletons
//!    concurrently without any tag discipline between them.
//! 2. **Uniform jobs** ([`ArchetypeJob`]): one archetype run behind typed
//!    input/output, an [`archetype_core::ArchetypeInfo`] whose grammar
//!    the composite trace check reuses, and a flop estimate the
//!    allocator prices.
//! 3. **The executor** ([`run_plan`]): keeps each edge's value at its
//!    group's rank 0, replicates it into atoms, ships branch inputs and
//!    outputs root-to-root in the bit-59 compose tag namespace, and
//!    assembles results, statistics ([`ComposeStats`]), and the
//!    composite phase trace deterministically — bit-identical results
//!    across runs, process counts, machine models, and schedules.
//!
//! ```
//! use archetype_compose::{forecast_input, forecast_plan, run_plan, ForecastConfig, Value};
//! use archetype_mp::{run_spmd, MachineModel};
//!
//! // The flagship composite: (farm sweep ∥ mesh solve) → DC sort → top-k.
//! let cfg = ForecastConfig { sweep_points: 16, mesh_n: 10, mesh_iters: 25 };
//! let out = run_spmd(4, MachineModel::ibm_sp(), move |ctx| {
//!     run_plan(ctx, &forecast_plan(cfg), forecast_input())
//! });
//! let (value, stats) = &out.results[0];
//! assert!(matches!(value, Value::F64s(v) if v.len() >= 4));
//! assert_eq!(stats.atoms, 4);
//! assert_eq!(stats.branches, 2);
//! // Every rank returns the identical value and statistics.
//! assert!(out.results.iter().all(|r| r == &out.results[0]));
//! ```

#![deny(missing_docs)]

mod alloc;
mod exec;
mod forecast;
mod job;
mod metrics;
mod plan;
mod serve;
mod value;

pub use alloc::allocate;
pub use exec::{
    run_plan, run_plan_with, try_run_plan, try_run_plan_with, ComposeConfig, ComposeStats, ParMode,
    PlanError, PlanResult, RetryPolicy,
};
pub use forecast::{
    forecast_input, forecast_plan, ForecastConfig, PoissonJob, SortJob, SweepJob, TopKJob,
};
pub use job::ArchetypeJob;
pub use metrics::{MetricKind, Metrics};
pub use plan::Plan;
pub use serve::{
    pack_waves, AdmitError, CacheStats, PlanService, ServeConfig, ServeOutcome, ServeReport,
    TenantId, TenantStats, Wave,
};
pub use value::{ComposeData, Value};
