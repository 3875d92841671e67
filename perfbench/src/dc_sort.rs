//! `dc_sort`: recursive mergesort of 2²¹ seeded `i64` on nested process
//! groups — the divide-and-conquer archetype. Few messages, large
//! payloads (16 MiB through group scatter/gather), a serial top merge.

use std::cell::RefCell;
use std::sync::Mutex;
use std::time::Instant;

use archetype_dc::perfmodel::recursion_policy;
use archetype_dc::{run_spmd_recursive, CutoffPolicy, Recursive, RecursiveMergesort};
use archetype_mp::{try_run_spmd_with, Ctx};

use crate::host::timed;
use crate::layers::{BodySpan, Span};
use crate::workload::{hash_of, model, splitmix, Fingerprint, Probe, Solve, Workload};

/// Keys sorted per solve.
pub const N: usize = 1 << 21;
/// Trace events per rank: a solve records a handful of phases and
/// collective messages.
const TRACE_CAPACITY: usize = 256;

pub struct DcSort {
    input: Vec<i64>,
    /// Hash of the `sort_unstable` output: a 16 MiB reference would
    /// count in the measured peak resident set.
    expected: u64,
    policy: CutoffPolicy,
}

impl DcSort {
    /// Seeded keys and their `sort_unstable` reference (untimed).
    pub fn generate(seed: u64) -> DcSort {
        let mut state = seed;
        let input: Vec<i64> = (0..N).map(|_| splitmix(&mut state) as i64).collect();
        let mut sorted = input.clone();
        sorted.sort_unstable();
        DcSort {
            input,
            expected: hash_of(&sorted),
            policy: recursion_policy(&model(), 2, std::mem::size_of::<i64>()),
        }
    }
}

thread_local! {
    /// The calling rank's adapter spans: (call, start, end).
    static APP: RefCell<Vec<(&'static str, Instant, Instant)>> = const { RefCell::new(Vec::new()) };
}

/// `RecursiveMergesort` with each `divide`/`solve`/`combine` call timed
/// into the calling rank's thread-local span list; everything else,
/// the modeled costs included, is delegated unchanged.
struct TimedMergesort(RecursiveMergesort<i64>);

fn app_span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    APP.with(|a| a.borrow_mut().push((name, start, end)));
    out
}

impl Recursive for TimedMergesort {
    type Problem = Vec<i64>;
    type Solution = Vec<i64>;

    fn size(&self, p: &Vec<i64>) -> usize {
        self.0.size(p)
    }
    fn divide(&self, p: Vec<i64>, k: usize) -> Vec<Vec<i64>> {
        app_span("divide", || self.0.divide(p, k))
    }
    fn solve(&self, p: Vec<i64>) -> Vec<i64> {
        app_span("solve", || self.0.solve(p))
    }
    fn combine(&self, parts: Vec<Vec<i64>>) -> Vec<i64> {
        app_span("combine", || self.0.combine(parts))
    }
    fn divide_cost(&self, p: &Vec<i64>) -> f64 {
        self.0.divide_cost(p)
    }
    fn solve_cost(&self, p: &Vec<i64>) -> f64 {
        self.0.solve_cost(p)
    }
    fn combine_cost(&self, parts: &[Vec<i64>]) -> f64 {
        self.0.combine_cost(parts)
    }
}

type AppSpans = Vec<(&'static str, Instant, Instant)>;

impl Workload for DcSort {
    fn solve(&mut self, p: usize, probe: Probe, id: u64) -> Solve {
        // The sort consumes its input; the copy is made before timing.
        let slot = Mutex::new(Some(self.input.clone()));
        let policy = self.policy;
        let body = |ctx: &mut Ctx| -> (Option<Vec<i64>>, BodySpan, AppSpans) {
            let entry = Instant::now();
            let local = if ctx.rank() == 0 {
                slot.lock().expect("input slot is never poisoned").take()
            } else {
                None
            };
            let (out, app) = if probe.layers {
                APP.with(|a| a.borrow_mut().clear());
                let alg = TimedMergesort(RecursiveMergesort::new());
                let out = run_spmd_recursive(&alg, ctx, local, &policy, None);
                (out, APP.with(|a| std::mem::take(&mut *a.borrow_mut())))
            } else {
                let alg = RecursiveMergesort::<i64>::new();
                (
                    run_spmd_recursive(&alg, ctx, local, &policy, None),
                    Vec::new(),
                )
            };
            (
                out,
                BodySpan {
                    entry,
                    exit: Instant::now(),
                },
                app,
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
                solve.error = Some(format!("dc_sort p={p}: {e:?}"));
                return solve;
            }
        };
        let mut apps = Vec::with_capacity(p);
        for (rank, (_, body, app)) in run.results.iter_mut().enumerate() {
            solve.bodies.push(*body);
            if probe.layers {
                solve
                    .spans
                    .push(Span::new("body", id, Some(rank), body.entry, body.exit));
                for &(name, s, e) in app.iter() {
                    solve.spans.push(Span::new(name, id, Some(rank), s, e));
                }
            }
            apps.push(std::mem::take(app));
        }
        let got = Fingerprint {
            output: hash_of(&run.results[0].0.take().unwrap_or_default()),
            virtual_bits: run.elapsed_virtual.to_bits(),
            msgs: run.stats.total_msgs(),
            bytes: run.stats.total_bytes(),
        };
        solve.fingerprint = Some(got);
        if got.output != self.expected {
            solve.error = Some(format!("dc_sort p={p}: output differs from sort_unstable"));
        }
        if probe.layers {
            let ns_of = |app: &AppSpans, name: &str| -> u64 {
                app.iter()
                    .filter(|a| a.0 == name)
                    .map(|a| a.2.saturating_duration_since(a.1).as_nanos() as u64)
                    .sum()
            };
            for (rank, app) in apps.iter().enumerate() {
                let total: u64 = app
                    .iter()
                    .map(|a| a.2.saturating_duration_since(a.1).as_nanos() as u64)
                    .sum();
                assert!(
                    total <= solve.bodies[rank].ns(),
                    "rank {rank}: dc adapter time {total} ns exceeds its body span {} ns",
                    solve.bodies[rank].ns()
                );
            }
            let ms = |ns: u64| ns as f64 / 1e6;
            for (metric, call) in [
                ("dc.solve_ms", "solve"),
                ("dc.divide_ms", "divide"),
                ("dc.combine_ms", "combine"),
            ] {
                solve
                    .layers
                    .push((metric, ms(apps.iter().map(|a| ns_of(a, call)).sum())));
            }
            let root_app: u64 = ["solve", "divide", "combine"]
                .iter()
                .map(|c| ns_of(&apps[0], c))
                .sum();
            solve.layers.push((
                "dc.skeleton_ms",
                ms(solve.bodies[0].ns().saturating_sub(root_app)),
            ));
            solve.layers.push(("mp.msgs_p2", got.msgs as f64));
            solve.layers.push(("mp.bytes_p2", got.bytes as f64));
            solve
                .layers
                .push(("mp.virtual_ms_p2", run.elapsed_virtual * 1e3));
        }
        solve.trace = run.trace.take();
        solve
    }

    fn serial(&mut self) -> Option<Result<u64, String>> {
        let mut keys = self.input.clone();
        let ((), wall_ns, _) = timed(|| keys.sort_unstable());
        Some(if hash_of(&keys) == self.expected {
            Ok(wall_ns)
        } else {
            Err("serial sort_unstable differs from the reference".into())
        })
    }

    fn describe(&self) -> String {
        format!(
            "{N} seeded i64 keys, branching {}, cutoff {} keys (perfmodel::recursion_policy on {})",
            self.policy.branching,
            self.policy.min_items,
            model().name
        )
    }
}
