//! Cross-archetype conformance suite: the phases every archetype
//! skeleton stamps into a traced run (`Ctx::trace_phase`, read back from
//! `SpmdResult::trace`) must be *accepted by the archetype's declared
//! phase grammar* (`ArchetypeInfo::grammar` in
//! `crates/core/src/archetype.rs`), over random inputs and process
//! counts.
//!
//! This turns the archetype metadata into an enforced contract — the
//! paper's claim that "the initial archetype-based program is correct by
//! construction" checked mechanically for all four archetypes of the
//! taxonomy: divide-and-conquer (one-deep and recursive forms),
//! mesh-spectral, task-farm, and pipeline — plus composed plans, whose
//! world rank 0 must follow the grammar derived from their members'.

use proptest::prelude::*;

use parallel_archetypes::compose::{
    forecast_input, forecast_plan, run_plan, ForecastConfig, Plan, SweepJob, Value,
};
use parallel_archetypes::core::archetype::{
    ArchetypeInfo, PatternExpr, MESH_SPECTRAL, ONE_DEEP_DC, PIPELINE, RECURSIVE_DC, TASK_FARM,
};
use parallel_archetypes::core::{ExecutionMode, PhaseKind};
use parallel_archetypes::dc::skeleton::run_spmd as dc_spmd;
use parallel_archetypes::dc::{
    run_shared_recursive, run_spmd_recursive, CutoffPolicy, OneDeepMergesort, RecursiveMergesort,
};
use parallel_archetypes::farm::apps::GridSweepFarm;
use parallel_archetypes::farm::{run_farm, Farm, FarmConfig, WorkScope};
use parallel_archetypes::mesh::apps::poisson::{poisson_spmd, sine_problem};
use parallel_archetypes::mp::{run_spmd_with, Ctx, MachineModel, ProcessGrid2, RunConfig};
use parallel_archetypes::pipeline::{run_pipeline, Pipeline, PipelineConfig, Stage as PipeStage};

mod logged;
use logged::Logged;

/// Run `body` traced on `p` ranks and return each rank's phase kinds.
fn phases<R: Send>(
    p: usize,
    model: MachineModel,
    body: impl Fn(&mut Ctx) -> R + Sync,
) -> Vec<Vec<PhaseKind>> {
    let out = run_spmd_with(p, model, RunConfig::traced(), body);
    let trace = out.trace.expect("traced run");
    assert_eq!(trace.total_dropped(), 0, "the ring must hold the whole run");
    trace
        .ranks
        .iter()
        .map(|r| r.phases().filter_map(PhaseKind::from_name).collect())
        .collect()
}

/// Assert a trace is a sentence of the archetype's grammar, with a
/// diagnostic naming the archetype and showing the offending trace.
fn assert_conforms(info: &ArchetypeInfo, kinds: &[PhaseKind], context: &str) {
    assert!(
        PatternExpr::from_static(&info.grammar).matches(kinds),
        "{context}: trace {kinds:?} rejected by the {} grammar",
        info.name
    );
}

/// A minimal farm whose spawning depth is randomized.
struct SpawnFarm {
    roots: u64,
    spawn: u64,
}
impl Farm for SpawnFarm {
    type Task = (u64, bool);
    type Out = u64;
    type Hint = ();
    fn seed(&self) -> Vec<(u64, bool)> {
        (0..self.roots).map(|k| (k, true)).collect()
    }
    fn work(&self, (k, root): (u64, bool), scope: &mut WorkScope<'_, Self>) {
        if root {
            for i in 0..self.spawn {
                scope.spawn((k * 100 + i, false));
            }
        } else {
            scope.emit(k);
        }
    }
    fn out_identity(&self) -> u64 {
        0
    }
    fn reduce(&self, a: u64, b: u64) -> u64 {
        a + b
    }
}

/// A minimal pipeline whose stage count is randomized.
struct NStage {
    items: u64,
    stages: Vec<AddStage>,
}
#[derive(Clone, Copy)]
struct AddStage(u64);
impl PipeStage<u64> for AddStage {
    fn transform(&self, _seq: u64, item: u64) -> u64 {
        item.wrapping_add(self.0)
    }
}
impl Pipeline for NStage {
    type Item = u64;
    type Out = u64;
    fn ingest(&self, seq: u64) -> Option<u64> {
        (seq < self.items).then_some(seq)
    }
    fn stages(&self) -> Vec<&dyn PipeStage<u64>> {
        self.stages
            .iter()
            .map(|s| s as &dyn PipeStage<u64>)
            .collect()
    }
    fn out_identity(&self) -> u64 {
        0
    }
    fn emit(&self, acc: u64, _seq: u64, item: u64) -> u64 {
        acc.wrapping_add(item)
    }
}

/// A process grid for `p` ranks (used by the mesh conformance property).
fn grid_for(p: usize) -> ProcessGrid2 {
    match p {
        4 => ProcessGrid2::new(2, 2),
        6 => ProcessGrid2::new(2, 3),
        8 => ProcessGrid2::new(2, 4),
        _ => ProcessGrid2::new(1, p),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn one_deep_dc_traces_conform(
        nblocks in 1usize..9,
        per in 1usize..60,
        seed in any::<u32>(),
    ) {
        let blocks: Vec<Vec<i64>> = (0..nblocks)
            .map(|b| {
                (0..per)
                    .map(|i| i64::from(seed) + (b * per + i) as i64 * 7919 % 1000)
                    .collect()
            })
            .collect();
        // One block per rank; every rank runs split, solve and merge.
        let ranks = phases(nblocks, MachineModel::ibm_sp(), |ctx| {
            dc_spmd(&OneDeepMergesort::<i64>::new(), ctx, blocks[ctx.rank()].clone())
        });
        for (rank, kinds) in ranks.iter().enumerate() {
            assert_conforms(&ONE_DEEP_DC, kinds, &format!("dc run_spmd rank {rank}"));
            prop_assert!(kinds.iter().all(|k| ONE_DEEP_DC.phases.contains(k)));
        }
    }

    #[test]
    fn recursive_dc_shared_traces_conform(
        n in 1usize..400,
        branching in 2usize..5,
        cutoff in 1usize..64,
        depth in 0usize..4,
    ) {
        let input: Vec<i64> = (0..n as i64).map(|i| i * 48271 % 9973).collect();
        let alg = Logged::new(RecursiveMergesort::<i64>::new());
        run_shared_recursive(
            &alg,
            input,
            &CutoffPolicy::new(branching, cutoff, depth),
            ExecutionMode::Sequential,
        );
        assert_conforms(&RECURSIVE_DC, &alg.kinds(), "run_shared_recursive mergesort");
        prop_assert!(alg.kinds().iter().all(|k| RECURSIVE_DC.phases.contains(k)));
    }

    #[test]
    fn recursive_dc_spmd_rank0_traces_conform(
        p in 1usize..9,
        n in 1usize..500,
        depth in 0usize..4,
    ) {
        let input: Vec<i64> = (0..n as i64).map(|i| (n as i64 - i) * 31 % 257).collect();
        let policy = CutoffPolicy::new(2, 32, depth);
        let ranks = phases(p, MachineModel::ibm_sp(), |ctx| {
            let local = (ctx.rank() == 0).then(|| input.clone());
            run_spmd_recursive(&RecursiveMergesort::<i64>::new(), ctx, local, &policy, None);
        });
        // Rank 0 walks its root path of the recursion tree — the k=1
        // degenerate tree the grammar also accepts.
        assert_conforms(&RECURSIVE_DC, &ranks[0], "run_spmd_recursive rank 0");
    }

    #[test]
    fn mesh_spectral_traces_conform(
        p in 1usize..9,
        n in 8usize..24,
        iter_cap in 1usize..40,
    ) {
        let spec = sine_problem(n, 1e-7, iter_cap);
        let pg = grid_for(p);
        let ranks = phases(p, MachineModel::ibm_sp(), |ctx| poisson_spmd(ctx, &spec, pg).iters);
        assert_conforms(&MESH_SPECTRAL, &ranks[0], "poisson_spmd rank 0");
    }

    #[test]
    fn task_farm_traces_conform(
        p in 1usize..9,
        roots in 0u64..40,
        spawn in 0u64..6,
        steal in any::<bool>(),
    ) {
        let farm = SpawnFarm { roots, spawn };
        let ranks = phases(p, MachineModel::ibm_sp(), |ctx| {
            let config = FarmConfig { steal, ..FarmConfig::default() };
            run_farm(&farm, ctx, config).0
        });
        assert_conforms(&TASK_FARM, &ranks[0], "run_farm rank 0");
        prop_assert!(ranks[0].iter().all(|k| TASK_FARM.phases.contains(k)));
    }

    #[test]
    fn composed_plan_traces_conform_to_the_derived_grammar(
        p in 1usize..9,
        sweep_points in 8u32..32,
        mesh_n in 8usize..16,
        mesh_iters in 5usize..40,
    ) {
        // The flagship composite — (farm ∥ mesh) → recursive DC → pipeline
        // — must leave on world rank 0 a stream accepted by the grammar
        // *derived* from its members' archetype grammars, at every process
        // count.
        let cfg = ForecastConfig { sweep_points, mesh_n, mesh_iters };
        let plan = forecast_plan(cfg);
        let ranks = phases(p, MachineModel::ibm_sp(), |ctx| {
            run_plan(ctx, &plan, forecast_input()).1
        });
        prop_assert!(
            plan.grammar().matches(&ranks[0]),
            "p={p}: rank 0 stream {:?} rejected by the derived grammar",
            ranks[0]
        );
    }

    #[test]
    fn replicated_plan_traces_conform(
        p in 1usize..9,
        copies in 1usize..4,
        points in 4u32..16,
    ) {
        // A Replicate of farm sweeps: rank 0 runs copy 0 between the
        // fan-out and gather phases, or every copy when they serialize.
        let plan = Plan::replicate(
            copies,
            Plan::atom(SweepJob {
                farm: GridSweepFarm { lo: 0.0, hi: 1.0, points },
            }),
        );
        let input = Value::Tuple(vec![Value::Unit; copies]);
        let ranks = phases(p, MachineModel::cray_t3d(), |ctx| {
            run_plan(ctx, &plan, input.clone()).0
        });
        prop_assert!(
            plan.grammar().matches(&ranks[0]),
            "p={p} copies={copies}: {:?} rejected by the derived grammar",
            ranks[0]
        );
        // The grammar makes copies 1.. optional (they run off rank 0 when
        // allocated), so pin the count: a serialized Replicate leaves one
        // farm sentence per copy on rank 0, an allocated one just copy 0's.
        let sentences = if p < copies { copies } else { 1 };
        for kind in [PhaseKind::Seed, PhaseKind::Terminate] {
            let n = ranks[0].iter().filter(|&&k| k == kind).count();
            prop_assert_eq!(
                n, sentences,
                "p={} copies={}: {} {:?} phases on rank 0", p, copies, n, kind
            );
        }
    }

    #[test]
    fn pipeline_traces_conform(
        p in 1usize..9,
        items in 0u64..80,
        n_stages in 0usize..5,
        window in 1usize..6,
    ) {
        let pipe = NStage {
            items,
            stages: (0..n_stages as u64).map(AddStage).collect(),
        };
        let ranks = phases(p, MachineModel::ibm_sp(), |ctx| {
            let config = PipelineConfig { window, ..PipelineConfig::default() };
            run_pipeline(&pipe, ctx, config).0
        });
        assert_conforms(&PIPELINE, &ranks[0], "run_pipeline rank 0");
        prop_assert!(ranks[0].iter().all(|k| PIPELINE.phases.contains(k)));
    }

    // ------------------------------------------------------------------
    // Free-running ranks: phase streams are logical structure, so the
    // grammars accept them no matter how the threads interleaved the
    // deliveries.
    // ------------------------------------------------------------------

    #[test]
    fn task_farm_traces_conform_on_real_backend(
        p in 1usize..9,
        roots in 0u64..30,
        spawn in 0u64..5,
        steal in any::<bool>(),
    ) {
        let farm = SpawnFarm { roots, spawn };
        let ranks = phases(p, MachineModel::ibm_sp(), |ctx| {
            let config = FarmConfig { steal, ..FarmConfig::default() };
            run_farm(&farm, ctx, config).0
        });
        assert_conforms(&TASK_FARM, &ranks[0], "run_farm rank 0 (spawning farm)");
    }

    #[test]
    fn pipeline_traces_conform_on_real_backend(
        p in 1usize..9,
        items in 0u64..60,
        n_stages in 0usize..5,
    ) {
        let pipe = NStage {
            items,
            stages: (0..n_stages as u64).map(AddStage).collect(),
        };
        let ranks = phases(p, MachineModel::ibm_sp(), |ctx| {
            run_pipeline(&pipe, ctx, PipelineConfig::default()).0
        });
        assert_conforms(&PIPELINE, &ranks[0], "run_pipeline rank 0 (concurrent ranks)");
    }

    #[test]
    fn recursive_dc_and_mesh_traces_conform_on_real_backend(
        p in 1usize..9,
        n in 8usize..300,
        depth in 0usize..3,
        iter_cap in 1usize..30,
    ) {
        let input: Vec<i64> = (0..n as i64).map(|i| (n as i64 - i) * 31 % 257).collect();
        let policy = CutoffPolicy::new(2, 32, depth);
        let ranks = phases(p, MachineModel::ibm_sp(), |ctx| {
            let local = (ctx.rank() == 0).then(|| input.clone());
            run_spmd_recursive(&RecursiveMergesort::<i64>::new(), ctx, local, &policy, None);
        });
        assert_conforms(&RECURSIVE_DC, &ranks[0], "run_spmd_recursive rank 0 (concurrent ranks)");

        let spec = sine_problem(12, 1e-7, iter_cap);
        let pg = grid_for(p);
        let ranks = phases(p, MachineModel::ibm_sp(), |ctx| poisson_spmd(ctx, &spec, pg).iters);
        assert_conforms(&MESH_SPECTRAL, &ranks[0], "poisson_spmd rank 0 (concurrent ranks)");
    }

    #[test]
    fn composed_plan_traces_conform_on_real_backend(
        p in 1usize..9,
        sweep_points in 8u32..24,
        mesh_n in 8usize..14,
    ) {
        let cfg = ForecastConfig { sweep_points, mesh_n, mesh_iters: 20 };
        let plan = forecast_plan(cfg);
        let ranks = phases(p, MachineModel::ibm_sp(), |ctx| {
            run_plan(ctx, &plan, forecast_input()).1
        });
        prop_assert!(
            plan.grammar().matches(&ranks[0]),
            "p={p}: rank 0 stream {:?} rejected by the derived grammar",
            ranks[0]
        );
    }
}

/// The grammars are not vacuous: each rejects a plausible-but-wrong
/// trace (phase missing, out of order, or unbalanced).
#[test]
fn grammars_reject_malformed_traces() {
    use PhaseKind::*;
    let accepts = |info: &ArchetypeInfo, kinds: &[PhaseKind]| {
        PatternExpr::from_static(&info.grammar).matches(kinds)
    };
    assert!(!accepts(&ONE_DEEP_DC, &[Solve, Split, Merge]));
    assert!(!accepts(&RECURSIVE_DC, &[Recurse, Solve])); // missing Merge
    assert!(!accepts(&MESH_SPECTRAL, &[Io, GridOp])); // missing final Io
    assert!(!accepts(&TASK_FARM, &[Seed, Steal, Terminate])); // Steal without Work
    assert!(!accepts(&PIPELINE, &[Ingest, Transform, Emit])); // missing Drain
}
