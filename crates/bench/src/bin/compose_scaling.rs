//! Composition scaling snapshot: runs the flagship forecast composite —
//! (farm sweep ∥ mesh Poisson) → recursive-DC sort → pipeline top-k —
//! across process counts under the virtual-time model and writes
//! `BENCH_compose.json` at the workspace root.
//!
//! All numbers are *virtual-time* measurements — deterministic by
//! construction, so this snapshot is stable across hosts and runs and a
//! regression in it means the composition schedule changed, not that the
//! machine was busy. Two fatal bars gate CI:
//!
//! 1. the composite's results must be bit-identical across process
//!    counts, machine models, and `Par` schedules;
//! 2. cost-proportional `Par` allocation must beat serializing the same
//!    branches on the full world by ≥ 1.5× at 8 ranks.
//!
//! Run with `cargo run --release -p archetype-bench --bin compose_scaling`.

use archetype_compose::{
    forecast_input, forecast_plan, run_plan_with, ComposeConfig, ForecastConfig, ParMode,
};
use archetype_mp::{run_spmd, MachineModel};

fn main() {
    let model = MachineModel::ibm_sp();
    let cfg = ForecastConfig::default();

    let run = |p: usize, model: MachineModel, mode: ParMode| {
        run_spmd(p, model, move |ctx| {
            run_plan_with(
                ctx,
                &forecast_plan(cfg),
                forecast_input(),
                ComposeConfig {
                    par: mode,
                    ..ComposeConfig::default()
                },
            )
        })
    };

    // --- Allocated schedule across process counts. ------------------------
    let mut times = Vec::new();
    let reference = run(1, model, ParMode::Allocate);
    let (ref_value, ref_stats) = &reference.results[0];
    times.push((1usize, reference.elapsed_virtual));
    for p in [2usize, 4, 8] {
        let out = run(p, model, ParMode::Allocate);
        assert_eq!(
            &out.results[0].0, ref_value,
            "composite result must be process-count invariant (p={p})"
        );
        assert_eq!(
            &out.results[0].1, ref_stats,
            "composite statistics must be process-count invariant (p={p})"
        );
        times.push((p, out.elapsed_virtual));
    }

    // --- Machine-model invariance of results and statistics. --------------
    let t3d = run(8, MachineModel::cray_t3d(), ParMode::Allocate);
    assert_eq!(
        &t3d.results[0].0, ref_value,
        "composite result must be machine-model invariant"
    );
    assert_eq!(&t3d.results[0].1, ref_stats, "statistics too");

    // --- The CI bar: allocation vs serializing the branches. --------------
    let alloc_8 = times.iter().find(|(p, _)| *p == 8).expect("ran at 8").1;
    let serial = run(8, model, ParMode::Serialize);
    assert_eq!(
        &serial.results[0].0, ref_value,
        "composite result must be schedule invariant"
    );
    let speedup_vs_serial = serial.elapsed_virtual / alloc_8;
    let speedup_vs_1 = times[0].1 / alloc_8;
    assert!(
        speedup_vs_serial >= 1.5,
        "cost-proportional Par allocation must be >= 1.5x faster than \
         serializing the branches on the full world at 8 ranks (got {speedup_vs_serial:.2}x)"
    );

    let fmt_times = |v: &[(usize, f64)]| {
        v.iter()
            .map(|(p, t)| format!("\"{p}\": {:.2}", t * 1e3))
            .collect::<Vec<_>>()
            .join(", ")
    };

    let json = format!(
        r#"{{
  "bench": "compose_scaling",
  "model": "{}",
  "forecast_composite": {{
    "config": "(sweep {} pts || poisson {}x{} @{} iters) -> sort -> top-k",
    "plan_atoms": {},
    "par_branches": {},
    "handoff_bytes": {},
    "virtual_ms_by_ranks": {{ {} }},
    "virtual_ms_serialized_8_ranks": {:.2},
    "speedup_8_ranks_vs_1": {speedup_vs_1:.2},
    "speedup_allocated_vs_serialized_8_ranks": {speedup_vs_serial:.2}
  }}
}}
"#,
        model.name,
        cfg.sweep_points,
        cfg.mesh_n,
        cfg.mesh_n,
        cfg.mesh_iters,
        ref_stats.atoms,
        ref_stats.branches,
        ref_stats.handoff_bytes,
        fmt_times(&times),
        serial.elapsed_virtual * 1e3,
    );
    std::fs::write("BENCH_compose.json", &json).expect("write BENCH_compose.json");
    print!("{json}");
    println!("wrote BENCH_compose.json");
}
