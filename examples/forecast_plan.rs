//! The forecast composite on the plan algebra — the paper's archetype-
//! composition future-work item, end to end: a task farm and a mesh
//! solver run **concurrently on disjoint process subgroups** sized by
//! the model-driven allocator, their merged outputs sorted by the
//! recursive divide-and-conquer archetype and digested by a bounded
//! streaming pipeline. One plan, four archetypes, deterministic to the
//! bit across process counts, machine models, and schedules.
//!
//! ```text
//! par ┬ atom sweep   [task-farm]      6000-point irregular sweep
//!     └ atom poisson [mesh-spectral]  24×24 Jacobi, 600 iterations
//! seq → atom sort    [recursive D&C]  merge + sort both result sets
//! seq → atom top-k   [pipeline]       streaming digest (top-k, p50, p99)
//! ```
//!
//! Run with: `cargo run --example forecast_plan --release`

use parallel_archetypes::compose::{
    forecast_input, forecast_plan, run_plan_with, ComposeConfig, ForecastConfig, ParMode, Value,
};
use parallel_archetypes::mp::{run_spmd, MachineModel};

fn main() {
    let cfg = ForecastConfig::default();
    let plan = forecast_plan(cfg);
    println!("plan:\n{}", plan.describe());

    let run = |p: usize, mode: ParMode| {
        run_spmd(p, MachineModel::ibm_sp(), move |ctx| {
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

    println!("ranks  schedule    virtual time   result");
    let mut reference: Option<Value> = None;
    let mut alloc_8 = 0.0;
    for p in [1usize, 2, 4, 8] {
        let out = run(p, ParMode::Allocate);
        let (value, stats) = &out.results[0];
        let summary = match value {
            Value::F64s(v) => format!(
                "count={} mean={:.3} p50={:.3} p99={:.3} top={:.3}",
                v[0] as u64, v[1], v[2], v[3], v[4]
            ),
            other => other.shape(),
        };
        match &reference {
            None => {
                println!(
                    "plan ran {} atoms, {} branches, {} handoff bytes",
                    stats.atoms, stats.branches, stats.handoff_bytes
                );
                reference = Some(value.clone());
            }
            Some(r) => assert_eq!(value, r, "results must be process-count invariant"),
        }
        if p == 8 {
            alloc_8 = out.elapsed_virtual;
        }
        println!(
            "{p:>5}  allocated   {:>9.1} ms   {summary}",
            out.elapsed_virtual * 1e3
        );
    }

    // The baseline the composition subsystem exists to beat: the same
    // branches serialized on the full world.
    let serial = run(8, ParMode::Serialize);
    assert_eq!(
        &serial.results[0].0,
        reference.as_ref().expect("ran"),
        "results must be schedule invariant"
    );
    println!(
        "{:>5}  serialized  {:>9.1} ms   (same result)",
        8,
        serial.elapsed_virtual * 1e3
    );
    println!(
        "\ncost-proportional allocation beats serialized branches {:.2}x at 8 ranks",
        serial.elapsed_virtual / alloc_8
    );
}
