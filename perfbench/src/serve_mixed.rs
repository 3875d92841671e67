//! `serve_mixed`: a closed loop of one client against one `PlanService`
//! per rank count. The client submits a 200-plan batch, serves it on the
//! real backend, waits for the report, then sends the next batch.
//! Batches rotate through three seed-derived mixes, so the structure
//! caches stay warm while wave shapes vary. The mixes hold the same
//! plans in different orders. Tiny `farm`/`mesh`/`dc`/`pipeline` atoms
//! make it bookkeeping-bound: admission, caches, wave packing and scoped
//! sub-runs.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use archetype_compose::{
    forecast_plan, CacheStats, ForecastConfig, Plan, PlanService, PoissonJob, ServeConfig,
    ServeReport, SortJob, SweepJob, TopKJob, Value,
};
use archetype_farm::apps::GridSweepFarm;
use archetype_mesh::apps::poisson::sine_problem;
use archetype_mp::RunConfig;

use crate::host::timed;
use crate::layers::Span;
use crate::workload::{model, splitmix, Probe, Solve, Workload};

/// Plans per batch.
pub const PLANS: usize = 200;
/// Tenants each batch rotates across.
const TENANTS: u32 = 5;
/// Distinct seed-derived batches the client cycles through.
const MIXES: usize = 3;
/// Trace events per rank: about 11k per batch were seen, so 6x headroom.
const TRACE_CAPACITY: usize = 1 << 16;

fn sweep_plan(points: u32) -> Plan {
    Plan::atom(SweepJob {
        farm: GridSweepFarm {
            lo: 0.0,
            hi: 2.0,
            points,
        },
    })
}

/// The plans of a batch that are not forecasts, in a fixed order: farm
/// sweeps, tiny Poisson solves and sort→top-k composites in turn, each
/// cycling through its sizes. Every batch holds this same multiset, so
/// a batch costs about the same whatever the seed; the seed sets the
/// order, and with it the waves the plans are packed into.
fn plan_kind(j: usize) -> Plan {
    let v = j / 3;
    match j % 3 {
        0 => sweep_plan(16 + (v % 5) as u32 * 8),
        1 => Plan::atom(PoissonJob {
            spec: sine_problem(8 + (v % 4) * 2, 1e-14, 20 + (v / 4 % 3) * 20),
        }),
        _ => sweep_plan(12 + (v % 3) as u32 * 12)
            .alongside(sweep_plan(20))
            .then(Plan::atom(SortJob::default()))
            .then(Plan::atom(TopKJob::default())),
    }
}

/// One batch: the mini forecast composite every eighth plan, and the
/// other plans in a seeded (Fisher–Yates) order.
fn mixed_batch(rng: &mut u64) -> Vec<(u32, Plan)> {
    let forecast = |i: usize| i % 8 == 7;
    let mut order: Vec<usize> = (0..(0..PLANS).filter(|&i| !forecast(i)).count()).collect();
    for k in (1..order.len()).rev() {
        order.swap(k, (splitmix(rng) % (k as u64 + 1)) as usize);
    }
    let mut order = order.into_iter();
    (0..PLANS)
        .map(|i| {
            let plan = if forecast(i) {
                forecast_plan(ForecastConfig {
                    sweep_points: 24,
                    mesh_n: 12,
                    mesh_iters: 40,
                })
            } else {
                plan_kind(order.next().expect("one kind per non-forecast slot"))
            };
            (i as u32 % TENANTS, plan)
        })
        .collect()
}

fn config(p: usize) -> ServeConfig {
    ServeConfig {
        max_concurrent: p,
        ..ServeConfig::default()
    }
}

/// Submit a whole batch, timing each `submit` call when `times` is given.
fn submit_all(
    svc: &mut PlanService,
    batch: Vec<(u32, Plan)>,
    mut times: Option<&mut Vec<f64>>,
) -> Result<(), String> {
    for (tenant, plan) in batch {
        let t0 = Instant::now();
        let admitted = svc.submit(tenant, plan, Value::Unit);
        if let Some(times) = times.as_deref_mut() {
            times.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
        admitted.map_err(|e| format!("submit rejected: {e}"))?;
    }
    Ok(())
}

/// Fraction `hits / (hits + misses)` and its base `hits + misses`.
pub fn hit_ratio(hits: u64, misses: u64) -> (f64, u64) {
    let base = hits + misses;
    (
        if base == 0 {
            0.0
        } else {
            hits as f64 / base as f64
        },
        base,
    )
}

/// Cache lookups between two snapshots of one service's counters.
pub fn cache_delta(before: CacheStats, after: CacheStats) -> CacheStats {
    CacheStats {
        shape_hits: after.shape_hits - before.shape_hits,
        shape_misses: after.shape_misses - before.shape_misses,
        cost_hits: after.cost_hits - before.cost_hits,
        cost_misses: after.cost_misses - before.cost_misses,
        alloc_hits: after.alloc_hits - before.alloc_hits,
        alloc_misses: after.alloc_misses - before.alloc_misses,
    }
}

pub struct ServeMixed {
    mixes: Vec<Vec<(u32, Plan)>>,
    /// The virtual backend's report per (mix, ranks), computed once.
    references: BTreeMap<(usize, usize), ServeReport>,
    services: BTreeMap<usize, PlanService>,
    /// Batches served per rank count, which picks the next mix.
    batches: BTreeMap<usize, usize>,
    /// Cache counters per rank count when timing started.
    timed_from: BTreeMap<usize, CacheStats>,
}

impl ServeMixed {
    /// Three seeded orders of the batch and their virtual-backend
    /// reports (untimed).
    pub fn generate(seed: u64, ranks: &[usize]) -> ServeMixed {
        let mut rng = seed;
        let mixes: Vec<Vec<(u32, Plan)>> = (0..MIXES).map(|_| mixed_batch(&mut rng)).collect();
        let mut references = BTreeMap::new();
        for &p in ranks {
            for (m, mix) in mixes.iter().enumerate() {
                let mut svc = PlanService::new(p, config(p));
                submit_all(&mut svc, mix.clone(), None).expect("the mix fits the default queue");
                // Unpooled, so the references leave the worker pool and
                // the network cache cold for the set-up that follows.
                let unpooled = RunConfig {
                    pooled: false,
                    ..RunConfig::virtual_time()
                };
                let out = svc.serve_with(model(), unpooled);
                references.insert((m, p), out.report);
            }
        }
        ServeMixed {
            mixes,
            references,
            services: BTreeMap::new(),
            batches: BTreeMap::new(),
            timed_from: BTreeMap::new(),
        }
    }
}

impl Workload for ServeMixed {
    fn start_timing(&mut self) {
        self.timed_from = self
            .services
            .iter()
            .map(|(&p, svc)| (p, svc.cache_stats()))
            .collect();
    }

    fn solve(&mut self, p: usize, probe: Probe, id: u64) -> Solve {
        let served = self.batches.entry(p).or_default();
        let m = *served % MIXES;
        *served += 1;
        let batch = self.mixes[m].clone();
        let svc = self
            .services
            .entry(p)
            .or_insert_with(|| PlanService::new(p, config(p)));
        let mut submit_us = Vec::new();
        let times = probe.layers.then_some(&mut submit_us);
        // Probed solves call `serve_spmd`, the same path minus the
        // (empty) rejection fold, because only it returns the run's
        // statistics and trace.
        let ((result, stamps), wall_ns, cpu_ns) = timed(|| {
            let t0 = Instant::now();
            let result = submit_all(svc, batch, times).and_then(|()| {
                let t1 = Instant::now();
                let served = catch_unwind(AssertUnwindSafe(|| {
                    if probe.layers {
                        let mut run = svc.serve_spmd(model(), probe.config(TRACE_CAPACITY));
                        let report = std::mem::take(&mut run.results).swap_remove(0);
                        (report, run.wall_us, Some(run))
                    } else {
                        let out = svc.serve_with(model(), RunConfig::real());
                        (out.report, out.wall_us, None)
                    }
                }));
                served
                    .map(|s| (t1, s))
                    .map_err(|_| "serve panicked".to_string())
            });
            (result, (t0, Instant::now()))
        });
        let mut solve = Solve {
            wall_ns,
            cpu_ns,
            ..Solve::default()
        };
        let (serve_start, (report, run_wall_us, run)) = match result {
            Ok(r) => r,
            Err(e) => {
                // Start the next batch on a fresh service, whose cache
                // counters no longer continue the timed ones.
                self.services.remove(&p);
                self.timed_from.remove(&p);
                solve.error = Some(format!("serve_mixed p={p} mix {m}: {e}"));
                return solve;
            }
        };
        // Traced and untraced batches of a mix are held to the same
        // reference report, so a traced batch that passes equals the
        // untraced ones.
        if let Some(bad) = report.outcomes.iter().position(|o| o.is_err()) {
            solve.error = Some(format!("serve_mixed p={p} mix {m}: plan {bad} failed"));
        } else if self.references.get(&(m, p)) != Some(&report) {
            solve.error = Some(format!(
                "serve_mixed p={p} mix {m}: report differs from the virtual backend's"
            ));
        }
        if probe.layers {
            let (t0, t2) = stamps;
            solve
                .spans
                .push(Span::new("submit", id, None, t0, serve_start));
            solve
                .spans
                .push(Span::new("serve_spmd", id, None, serve_start, t2));
            let mut run = run.expect("probed solves keep their run");
            let serve_ns = t2.saturating_duration_since(serve_start).as_nanos() as f64;
            solve
                .layers
                .push(("serve.host_ms", (serve_ns - run_wall_us as f64 * 1e3) / 1e6));
            solve
                .layers
                .extend(submit_us.iter().map(|&us| ("serve.submit_us", us)));
            solve.layers.push((
                "serve.latency_virtual_p99_ms",
                report.latency.percentile(0.99) * 1e3,
            ));
            solve
                .layers
                .push(("mp.msgs_p2", run.stats.total_msgs() as f64));
            solve
                .layers
                .push(("mp.bytes_p2", run.stats.total_bytes() as f64));
            solve
                .layers
                .push(("mp.virtual_ms_p2", run.elapsed_virtual * 1e3));
            solve.trace = run.trace.take();
        }
        solve
    }

    fn finish(&mut self) -> Vec<(&'static str, f64)> {
        let mut timed = CacheStats::default();
        for (p, svc) in &self.services {
            let Some(&from) = self.timed_from.get(p) else {
                continue;
            };
            let d = cache_delta(from, svc.cache_stats());
            timed.shape_hits += d.shape_hits;
            timed.shape_misses += d.shape_misses;
            timed.alloc_hits += d.alloc_hits;
            timed.alloc_misses += d.alloc_misses;
        }
        let (shape, shape_base) = hit_ratio(timed.shape_hits, timed.shape_misses);
        let (alloc, alloc_base) = hit_ratio(timed.alloc_hits, timed.alloc_misses);
        vec![
            ("serve.shape_hit_ratio", shape),
            ("serve.shape_lookups", shape_base as f64),
            ("serve.alloc_hit_ratio", alloc),
            ("serve.alloc_lookups", alloc_base as f64),
        ]
    }

    fn describe(&self) -> String {
        format!(
            "{MIXES} seeded orders of one {PLANS}-plan batch over {TENANTS} tenants (sweeps, tiny Poisson, sort->top-k in equal shares, forecast every 8th), closed loop, one client"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_ratios_count_only_timed_batches() {
        let mut w = ServeMixed::generate(7, &[1]);
        // Warm-up: the first batch of every mix misses on its new shapes.
        for id in 0..MIXES as u64 {
            assert!(w.solve(1, Probe::OFF, id).error.is_none());
        }
        let warm = w.services[&1].cache_stats();
        assert!(warm.shape_misses > 0, "a cold service derives shapes fresh");
        w.start_timing();
        for id in 0..MIXES as u64 {
            assert!(w.solve(1, Probe::OFF, id).error.is_none());
        }
        let got: BTreeMap<_, _> = w.finish().into_iter().collect();
        // Every shape was seen during warm-up, so timed lookups all hit.
        assert_eq!(got["serve.shape_hit_ratio"], 1.0);
        assert_eq!(got["serve.shape_lookups"], (MIXES * PLANS) as f64);
        let total = w.services[&1].cache_stats();
        assert!(hit_ratio(total.shape_hits, total.shape_misses).0 < 1.0);
    }

    #[test]
    fn hit_ratio_of_no_lookups_is_zero_with_zero_base() {
        assert_eq!(hit_ratio(0, 0), (0.0, 0));
        assert_eq!(hit_ratio(3, 1), (0.75, 4));
    }
}
