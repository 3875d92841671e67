//! `mesh_poisson`: 400 Jacobi iterations of the sine-source Poisson
//! problem on a 258² grid, block-distributed over
//! `ProcessGrid2::near_square(p)` — the mesh-spectral archetype. Each
//! iteration is one ghost exchange and one `diffmax` all-reduce around a
//! cache-resident stencil sweep, so the solve is latency-bound.
//!
//! The problem has no random input: the seed changes nothing here.

use std::time::Instant;

use archetype_core::ExecutionMode;
use archetype_mesh::apps::poisson::{poisson_shared, poisson_spmd, sine_problem, PoissonSpec};
use archetype_mp::{try_run_spmd_with, Ctx, ProcessGrid2};

use crate::host::timed;
use crate::layers::{BodySpan, Span};
use crate::workload::{hash_of, model, Fingerprint, Probe, Solve, Workload};

/// Grid extent, boundary included.
pub const GRID: usize = 258;
/// Jacobi iterations per solve (tolerance 0 makes every solve run all).
pub const ITERS: usize = 400;
/// Trace events per rank. Each iteration records three phase stamps, one
/// ghost exchange and one all-reduce (a few sends and receives each).
const TRACE_CAPACITY: usize = 32 * ITERS + 1024;

/// Bytes one point update streams if nothing stays in cache, computed
/// from the kernel rather than measured: the per-iteration copy of the
/// grid reads and writes 8 B each, and the sweep reads `u` and `f` and
/// writes `u'` (8 B each).
const BYTES_PER_POINT: f64 = 16.0 + 24.0;

pub struct MeshPoisson {
    spec: PoissonSpec,
    /// Hash of `poisson_shared`'s grid, bit for bit.
    expected: u64,
}

/// Hash of a grid's bit patterns, so equal hashes mean bit-identical
/// grids (up to a 64-bit collision).
fn grid_hash(grid: &[f64]) -> u64 {
    hash_of(&grid.iter().map(|x| x.to_bits()).collect::<Vec<u64>>())
}

impl MeshPoisson {
    /// The fixed problem and its sequential reference (untimed).
    pub fn generate() -> MeshPoisson {
        let spec = sine_problem(GRID, 0.0, ITERS);
        let reference = poisson_shared(&spec, ExecutionMode::Sequential);
        assert_eq!(reference.iters, ITERS, "tolerance 0 runs every iteration");
        MeshPoisson {
            spec,
            expected: grid_hash(&reference.grid.expect("the shared solver returns its grid")),
        }
    }
}

impl Workload for MeshPoisson {
    fn solve(&mut self, p: usize, probe: Probe, id: u64) -> Solve {
        let spec = self.spec;
        let pgrid = ProcessGrid2::near_square(p);
        let body = |ctx: &mut Ctx| {
            let entry = Instant::now();
            let out = poisson_spmd(ctx, &spec, pgrid);
            (
                out,
                BodySpan {
                    entry,
                    exit: Instant::now(),
                },
            )
        };
        let ((run, called), wall_ns, cpu_ns) = timed(|| {
            let called = Instant::now();
            let run = try_run_spmd_with(p, model(), probe.config(TRACE_CAPACITY), body);
            (run, called)
        });
        let mut solve = Solve {
            wall_ns,
            cpu_ns,
            called: Some(called),
            ..Solve::default()
        };
        let mut run = match run {
            Ok(run) => run,
            Err(e) => {
                solve.error = Some(format!("mesh_poisson p={p}: {e:?}"));
                return solve;
            }
        };
        for (rank, (_, body)) in run.results.iter().enumerate() {
            solve.bodies.push(*body);
            if probe.layers {
                solve
                    .spans
                    .push(Span::new("body", id, Some(rank), body.entry, body.exit));
            }
        }
        let root = &mut run.results[0].0;
        let iters = root.iters;
        let got = Fingerprint {
            output: root.grid.take().map_or(0, |g| grid_hash(&g)),
            virtual_bits: run.elapsed_virtual.to_bits(),
            msgs: run.stats.total_msgs(),
            bytes: run.stats.total_bytes(),
        };
        solve.fingerprint = Some(got);
        if iters != ITERS || got.output != self.expected {
            solve.error = Some(format!(
                "mesh_poisson p={p}: {iters} iterations, grid {} poisson_shared",
                if got.output == self.expected {
                    "equals"
                } else {
                    "differs from"
                }
            ));
        }
        if probe.layers {
            solve.layers.push(("mp.msgs_p2", got.msgs as f64));
            solve.layers.push(("mp.bytes_p2", got.bytes as f64));
            solve
                .layers
                .push(("mp.virtual_ms_p2", run.elapsed_virtual * 1e3));
            solve
                .layers
                .push(("mesh.bytes_per_pt_computed", BYTES_PER_POINT));
        }
        solve.trace = run.trace.take();
        solve
    }

    fn serial(&mut self) -> Option<Result<u64, String>> {
        let (out, wall_ns, _) = timed(|| poisson_shared(&self.spec, ExecutionMode::Sequential));
        let ok = out.iters == ITERS && out.grid.is_some_and(|g| grid_hash(&g) == self.expected);
        Some(if ok {
            Ok(wall_ns)
        } else {
            Err("serial poisson_shared differs from the reference".into())
        })
    }

    fn grid_point_updates(&self) -> f64 {
        ((GRID - 2) * (GRID - 2) * ITERS) as f64
    }

    fn describe(&self) -> String {
        format!(
            "sine_problem({GRID}, 0.0, {ITERS}) on ProcessGrid2::near_square(p); no random input, the seed is unused"
        )
    }
}
