//! Wall- and CPU-time benchmark of the archetype crates on the real shared-memory
//! backend, at 1 and 2 ranks (never more rank threads than cores).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload dc_sort|mesh_poisson|serve_mixed|all --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` times solves for `S` seconds and reports the end-to-end
//! metrics; `--trace 1` reports the per-layer metrics of `LAYERS.md`
//! from probed and traced solves. Every solve's output is checked; the
//! last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Spans, a Chrome trace
//! and a full result file land in `perfbench/out/`. Each run first times
//! cold set-ups in fresh child processes of itself (`--cold-setup 1`).

mod calibrate;
mod dc_sort;
mod host;
mod layers;
mod mesh_poisson;
mod serve_mixed;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use archetype_mp::RunTrace;
use calibrate::Calibration;
use host::HostInfo;
use layers::{body_window, phase_split, wave_durations, BodySpan, Span};
use workload::{Fingerprint, Probe, Solve, Workload};

const WORKLOADS: [&str; 3] = ["dc_sort", "mesh_poisson", "serve_mixed"];

/// End-to-end metrics (`--trace 0`): name and unit. All are CPU time or
/// memory: on a shared host, wall time follows the co-tenants' load (see
/// `LAYERS.md`), so the wall statistics are per-layer values instead.
/// The CPU times are medians, rescaled to a reference core by the run's
/// calibration (`calibrate.rs`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("cpu_ms_p1", "ms"),
    ("cpu_ms_p2", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Wall-time and host values printed after the end-to-end metrics of a
/// `--trace 0` run, outside its JSON result.
const WALL_LINES: [(&str, &str); 8] = [
    ("wall_ms_p1", "ms"),
    ("wall_ms_p2", "ms"),
    ("wall_ms_p2_tail", "ms"),
    ("wall_ms_p2_tail_pct", "%"),
    ("wall_ms_p2_tail_samples", "count"),
    ("setup_wall_s", "s"),
    ("host.steal_pct", "%"),
    ("host.cal_ms", "ms"),
];

/// Phase kinds the workloads stamp, with their metric names; any other
/// kind is summed into `phase.other_ms`.
const PHASES: [(&str, &str); 14] = [
    ("recurse", "phase.recurse_ms"),
    ("solve", "phase.solve_ms"),
    ("merge", "phase.merge_ms"),
    ("io", "phase.io_ms"),
    ("communication", "phase.communication_ms"),
    ("grid-op", "phase.grid-op_ms"),
    ("reduction", "phase.reduction_ms"),
    ("work", "phase.work_ms"),
    ("transform", "phase.transform_ms"),
    ("ingest", "phase.ingest_ms"),
    ("drain", "phase.drain_ms"),
    ("emit", "phase.emit_ms"),
    ("seed", "phase.seed_ms"),
    ("terminate", "phase.terminate_ms"),
];

/// Per-layer metrics (`--trace 1`): name, unit, and which way is better.
/// `LAYERS.md` says which end-to-end metric each should move. A metric
/// of a layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str, &str); 53] = [
    ("wall_ms_p1", "ms", "lower"),
    ("wall_ms_p2", "ms", "lower"),
    ("wall_ms_p2_tail", "ms", "lower"),
    ("wall_ms_p2_tail_pct", "%", "higher"),
    ("wall_ms_p2_tail_samples", "count", "higher"),
    ("setup_wall_s", "s", "lower"),
    ("host.steal_pct", "%", "lower"),
    ("host.cal_ms", "ms", "lower"),
    ("mp.msgs_p2", "count", "lower"),
    ("mp.bytes_p2", "B", "lower"),
    ("mp.idle_ms_p2", "ms", "lower"),
    ("mp.dispatch_us", "us", "lower"),
    ("mp.virtual_ms_p2", "ms_virtual", "lower"),
    ("dc.solve_ms", "ms", "lower"),
    ("dc.divide_ms", "ms", "lower"),
    ("dc.combine_ms", "ms", "lower"),
    ("dc.skeleton_ms", "ms", "lower"),
    ("phase.recurse_ms", "ms", "lower"),
    ("phase.solve_ms", "ms", "lower"),
    ("phase.merge_ms", "ms", "lower"),
    ("phase.io_ms", "ms", "lower"),
    ("phase.communication_ms", "ms", "lower"),
    ("phase.grid-op_ms", "ms", "lower"),
    ("phase.reduction_ms", "ms", "lower"),
    ("phase.work_ms", "ms", "lower"),
    ("phase.transform_ms", "ms", "lower"),
    ("phase.ingest_ms", "ms", "lower"),
    ("phase.drain_ms", "ms", "lower"),
    ("phase.emit_ms", "ms", "lower"),
    ("phase.seed_ms", "ms", "lower"),
    ("phase.terminate_ms", "ms", "lower"),
    ("phase.other_ms", "ms", "lower"),
    ("phase.unattributed_ms", "ms", "lower"),
    ("mesh.sweep_mpts_per_s", "Mpts/s", "higher"),
    ("mesh.bytes_per_pt_computed", "B/pt", "lower"),
    ("serve.submit_us", "us", "lower"),
    ("serve.host_ms", "ms", "lower"),
    ("serve.wave_ms_p50", "ms", "lower"),
    ("serve.wave_ms_tail", "ms", "lower"),
    ("serve.waves", "count", "lower"),
    ("serve.wave_occupancy", "plans/wave", "higher"),
    ("serve.shape_hit_ratio", "ratio", "higher"),
    ("serve.shape_lookups", "count", "higher"),
    ("serve.alloc_hit_ratio", "ratio", "higher"),
    ("serve.alloc_lookups", "count", "higher"),
    ("serve.latency_virtual_p99_ms", "ms_virtual", "lower"),
    ("scaling.speedup_p2", "x", "higher"),
    ("scaling.vs_serial_p2", "x", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.dropped", "count", "lower"),
    ("trace.max_events_per_rank", "count", "lower"),
    ("threads.max", "count", "lower"),
    ("failed_frac", "ratio", "lower"),
];

/// Cold set-ups per run, each in a fresh child process; `setup_s` is
/// their median CPU time, rescaled to a reference core. A run starts at
/// least `SETUP_REPS` children, and more until `SETUP_SECONDS` have
/// passed (at most `SETUP_MAX`), so a cheap set-up gets more samples.
const SETUP_REPS: usize = 15;
const SETUP_SECONDS: u64 = 6;
const SETUP_MAX: usize = 64;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Run as a set-up child: generate the inputs, time the first solve
    /// at each rank count, print one `cold-setup` line and exit.
    cold_setup: bool,
}

fn flag01(flag: &str, value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("{flag} takes 0 or 1, not {value}")),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 10,
        trace: false,
        cold_setup: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => args.trace = flag01(&flag, &value)?,
            "--cold-setup" => args.cold_setup = flag01(&flag, &value)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {}; expected one of {WORKLOADS:?} or all",
            args.workload
        ));
    }
    Ok(args)
}

/// Everything one invocation measured.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    next_id: u64,
    spans: Vec<Span>,
    /// Per-solve layer samples by metric name.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// The last untraced fingerprint per rank count, which a traced solve
    /// at that rank count must reproduce.
    untraced: BTreeMap<usize, Fingerprint>,
    /// Layer values computed once per run.
    values: BTreeMap<&'static str, f64>,
    /// Extra facts for the result file and the human-readable lines.
    notes: Vec<(String, String)>,
}

impl Tally {
    /// Run one solve, count it, and keep its spans and layer samples.
    fn solve(&mut self, w: &mut dyn Workload, p: usize, probe: Probe) -> Solve {
        let id = self.next_id;
        self.next_id += 1;
        let t0 = Instant::now();
        let mut s = w.solve(p, probe, id);
        let t1 = Instant::now();
        if let (None, Some(got)) = (&s.error, s.fingerprint) {
            if !probe.traced {
                self.untraced.insert(p, got);
            } else if self.untraced.get(&p).is_some_and(|want| *want != got) {
                s.error = Some(format!("p={p}: traced run differs from untraced"));
            }
        }
        self.attempted += 1;
        if let Some(e) = &s.error {
            self.failed += 1;
            eprintln!("solve {id} failed: {e}");
        }
        if probe.layers {
            self.spans.push(Span::new("solve", id, None, t0, t1));
            self.spans.append(&mut s.spans);
            for &(name, v) in &s.layers {
                self.sample(name, v);
            }
        }
        s
    }

    fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.into(), value.to_string()));
    }

    /// Keep the largest value seen under `name`.
    fn raise(&mut self, name: &'static str, v: f64) {
        let slot = self.values.entry(name).or_default();
        *slot = slot.max(v);
    }

    fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn make(name: &str, seed: u64, ranks: &[usize]) -> Box<dyn Workload> {
    match name {
        "dc_sort" => Box::new(dc_sort::DcSort::generate(seed)),
        "mesh_poisson" => Box::new(mesh_poisson::MeshPoisson::generate()),
        "serve_mixed" => Box::new(serve_mixed::ServeMixed::generate(seed, ranks)),
        _ => unreachable!("workload names are checked when parsing"),
    }
}

/// One rank thread per core at most: on a 1-core host the "2-rank"
/// series runs at 1 rank, and says so.
fn ranks() -> [usize; 2] {
    [1, 2.min(host::nproc())]
}

/// A set-up child: the worker pool, networks, payload arenas and
/// services do not exist yet in this process, so the first solve at
/// each rank count creates them. Prints the process CPU and wall time of
/// those solves (ns) and their counts.
fn cold_setup_child(args: &Args) -> ExitCode {
    let mut w = make(&args.workload, args.seed, &ranks());
    let mut tally = Tally::default();
    let ((), wall_ns, cpu_ns) = host::timed(|| {
        for p in ranks() {
            tally.solve(w.as_mut(), p, Probe::OFF);
        }
    });
    println!(
        "cold-setup {cpu_ns} {wall_ns} {} {}",
        tally.attempted, tally.failed
    );
    ExitCode::SUCCESS
}

/// `cpu_ns wall_ns attempted failed` from a set-up child's last line.
fn parse_cold_setup(stdout: &[u8]) -> Option<[u64; 4]> {
    let text = String::from_utf8_lossy(stdout);
    let mut fields = text.lines().last()?.strip_prefix("cold-setup ")?.split(' ');
    let mut out = [0u64; 4];
    for slot in &mut out {
        *slot = fields.next()?.parse().ok()?;
    }
    Some(out)
}

/// Cold set-up, repeated: each fresh child process generates the inputs
/// (untimed) and then runs the first solve at each rank count. Returns
/// the median process CPU time in seconds, as measured (the caller
/// rescales it); the median wall time goes to `setup_wall_s`. The
/// children's solves count as attempted, and a child that fails counts
/// all of its solves failed.
fn cold_setups(args: &Args, tally: &mut Tally) -> f64 {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for child in 0..SETUP_MAX {
        if child >= SETUP_REPS && start.elapsed() >= Duration::from_secs(SETUP_SECONDS) {
            break;
        }
        let out = Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
            ])
            .args(["--cold-setup", "1"])
            .stderr(Stdio::inherit())
            .output();
        let parsed = out
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| parse_cold_setup(&o.stdout));
        match parsed {
            Some([cpu_ns, wall_ns, attempted, failed]) => {
                cpus.push(cpu_ns as f64 / 1e9);
                walls.push(wall_ns as f64 / 1e9);
                tally.attempted += attempted;
                tally.failed += failed;
            }
            None => {
                eprintln!("a cold set-up child failed");
                tally.attempted += ranks().len() as u64;
                tally.failed += ranks().len() as u64;
            }
        }
    }
    tally.note("setup_reps_wall_s", series(&walls));
    tally.note("setup_reps_cpu_s", series(&cpus));
    tally.note("setup_cpu_s_measured", stats::median(&cpus));
    tally.values.insert("setup_wall_s", stats::median(&walls));
    stats::median(&cpus)
}

/// The calibration's median as `host.cal_ms`, and its samples as a note.
fn calibration_values(cal: &Calibration, tally: &mut Tally) {
    tally.values.insert("host.cal_ms", cal.median_ms());
    tally.note("cal_ms_series", series(cal.samples_ms()));
}

/// One untimed solve at each rank count, so the timed solves run warm.
fn warm_up(w: &mut dyn Workload, tally: &mut Tally) {
    for p in ranks() {
        tally.solve(w, p, Probe::OFF);
    }
}

fn series(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Keep solving until `seconds` have passed and the 2-rank series has
/// enough samples for its tail.
fn keep_going(start: Instant, seconds: u64, p2_samples: usize) -> bool {
    let el = start.elapsed();
    el < Duration::from_secs(seconds)
        || (p2_samples <= stats::TAIL_BEYOND && el < Duration::from_secs(3 * seconds))
}

/// Wall-time statistics of untraced solves, and the host's steal over
/// the window they ran in (`steal0` read at its start).
fn wall_values(p1: &[f64], p2: &[f64], steal0: f64, window: Duration, tally: &mut Tally) {
    let tail = stats::tail(p2);
    let steal = host::steal_s() - steal0;
    let values = [
        ("wall_ms_p1", stats::median(p1)),
        ("wall_ms_p2", stats::median(p2)),
        ("wall_ms_p2_tail", tail.value),
        ("wall_ms_p2_tail_pct", tail.percentile),
        ("wall_ms_p2_tail_samples", tail.samples as f64),
        (
            "host.steal_pct",
            100.0 * steal / (window.as_secs_f64() * host::nproc() as f64),
        ),
    ];
    tally.values.extend(values);
    tally.note("wall_ms_p1_series", series(p1));
    tally.note("wall_ms_p2_series", series(p2));
}

/// `--trace 0`: the end-to-end metrics, in `END_TO_END` order, from the
/// measured set-up CPU time and the timed solves. Wall statistics land
/// in `tally.values` for the human-readable lines.
fn timed_run(
    w: &mut dyn Workload,
    cal: &mut Calibration,
    seconds: u64,
    setup_cpu_s: f64,
    tally: &mut Tally,
) -> Vec<f64> {
    let ranks = ranks();
    warm_up(w, tally);
    w.start_timing();
    let (mut wall, mut cpu) = ([Vec::new(), Vec::new()], [Vec::new(), Vec::new()]);
    let steal0 = host::steal_s();
    let start = Instant::now();
    while keep_going(start, seconds, wall[1].len()) {
        for (i, p) in ranks.into_iter().enumerate() {
            cal.tick();
            let s = tally.solve(w, p, Probe::OFF);
            if s.error.is_none() {
                wall[i].push(ms(s.wall_ns));
                cpu[i].push(ms(s.cpu_ns));
            }
        }
    }
    wall_values(&wall[0], &wall[1], steal0, start.elapsed(), tally);
    calibration_values(cal, tally);
    for (i, p) in ["p1", "p2"].into_iter().enumerate() {
        tally.note(&format!("cpu_ms_{p}_measured"), stats::median(&cpu[i]));
        tally.note(&format!("cpu_ms_{p}_series"), series(&cpu[i]));
    }
    let scale = cal.scale();
    vec![
        setup_cpu_s * scale,
        stats::median(&cpu[0]) * scale,
        stats::median(&cpu[1]) * scale,
        host::peak_rss_mb() - cal.buffer_bytes() as f64 / (1024.0 * 1024.0),
    ]
}

/// Phase self times, waves and the sweep rate of one traced solve.
fn analyse_trace(w: &dyn Workload, s: &Solve, tally: &mut Tally) {
    let trace = s.trace.as_ref().expect("a traced solve returns its trace");
    let dropped = trace.total_dropped();
    tally.raise("trace.dropped", dropped as f64);
    assert_eq!(
        dropped, 0,
        "trace capacity too small: {dropped} events dropped"
    );
    let most = trace.ranks.iter().map(|r| r.events.len()).max();
    tally.raise("trace.max_events_per_rank", most.unwrap_or(0) as f64);

    let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut unattributed = 0u64;
    let mut waves: BTreeMap<u32, (u32, u64)> = BTreeMap::new();
    for (rank, rt) in trace.ranks.iter().enumerate() {
        let body = s.bodies.get(rank).copied().zip(s.called);
        let window = body_window(rt, body);
        let split = phase_split(&rt.events, window);
        assert_eq!(
            split.outside, 0,
            "rank {rank}: phase stamps outside the body window {window:?}"
        );
        let mut mine: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (kind, ns) in split.by_kind {
            let metric = PHASES
                .iter()
                .find(|(k, _)| *k == kind)
                .map_or("phase.other_ms", |(_, m)| *m);
            *mine.entry(metric).or_default() += ns;
        }
        for (metric, ns) in mine {
            let slot = by_kind.entry(metric).or_default();
            *slot = (*slot).max(ns);
        }
        unattributed = unattributed.max(split.unattributed);
        for (wave, plans, ns) in wave_durations(&rt.events, window.exit) {
            let slot = waves.entry(wave).or_insert((plans, 0));
            slot.1 = slot.1.max(ns);
        }
    }
    for metric in PHASES.iter().map(|(_, m)| *m).chain(["phase.other_ms"]) {
        tally.sample(metric, ms(by_kind.get(metric).copied().unwrap_or(0)));
    }
    tally.sample("phase.unattributed_ms", ms(unattributed));
    let grid_op = by_kind.get("phase.grid-op_ms").copied().unwrap_or(0);
    if w.grid_point_updates() > 0.0 && grid_op > 0 {
        // Point updates per microsecond = millions per second.
        tally.sample(
            "mesh.sweep_mpts_per_s",
            w.grid_point_updates() / (grid_op as f64 / 1e3),
        );
    }
    if !waves.is_empty() {
        let plans: u32 = waves.values().map(|w| w.0).sum();
        tally.sample("serve.waves", waves.len() as f64);
        tally.sample("serve.wave_occupancy", plans as f64 / waves.len() as f64);
        for &(_, ns) in waves.values() {
            tally.sample("serve.wave_ms", ms(ns));
        }
    }
}

/// `--trace 1`: the per-layer metrics, in `PER_LAYER` order, and the last
/// traced run's trace. Each round runs an untraced 1-rank solve (for the
/// speed-up), a probed untraced and a traced 2-rank solve, and the serial
/// baseline.
fn trace_run(
    w: &mut dyn Workload,
    cal: &mut Calibration,
    seconds: u64,
    tally: &mut Tally,
) -> (Vec<f64>, Option<RunTrace>) {
    let ranks = ranks();
    warm_up(w, tally);
    w.start_timing();
    let p2 = ranks[1];
    let (mut p1_wall, mut p2_wall, mut traced_wall, mut serial) = (vec![], vec![], vec![], vec![]);
    let mut last_trace = None;
    let steal0 = host::steal_s();
    let start = Instant::now();
    while keep_going(start, seconds, p2_wall.len()) {
        cal.tick();
        let s = tally.solve(w, ranks[0], Probe::OFF);
        if s.error.is_none() {
            p1_wall.push(ms(s.wall_ns));
        }
        let s = tally.solve(w, p2, Probe::LAYERS);
        if s.error.is_none() {
            p2_wall.push(ms(s.wall_ns));
            tally.sample(
                "mp.idle_ms_p2",
                ms((p2 as u64 * s.wall_ns).saturating_sub(s.cpu_ns)),
            );
            if let Some(longest) = s.bodies.iter().map(BodySpan::ns).max() {
                tally.sample(
                    "mp.dispatch_us",
                    s.wall_ns.saturating_sub(longest) as f64 / 1e3,
                );
            }
        }
        let s = tally.solve(w, p2, Probe::TRACED);
        if s.error.is_none() {
            traced_wall.push(ms(s.wall_ns));
            analyse_trace(w, &s, tally);
            last_trace = s.trace;
        }
        if let Some(r) = w.serial() {
            tally.attempted += 1;
            match r {
                Ok(ns) => serial.push(ms(ns)),
                Err(e) => {
                    tally.failed += 1;
                    eprintln!("serial baseline failed: {e}");
                }
            }
        }
        tally.raise("threads.max", host::thread_count() as f64);
    }
    wall_values(&p1_wall, &p2_wall, steal0, start.elapsed(), tally);
    calibration_values(cal, tally);
    for (name, v) in w.finish() {
        tally.values.insert(name, v);
    }
    let (u, t) = (stats::median(&p2_wall), stats::median(&traced_wall));
    tally.values.insert(
        "trace.overhead_pct",
        if u > 0.0 { (t / u - 1.0) * 100.0 } else { 0.0 },
    );
    if u > 0.0 {
        tally
            .values
            .insert("scaling.speedup_p2", stats::median(&p1_wall) / u);
        tally
            .values
            .insert("scaling.vs_serial_p2", stats::median(&serial) / u);
    }
    if let Some(waves) = tally.samples.get("serve.wave_ms") {
        let tail = stats::tail(waves);
        tally
            .values
            .insert("serve.wave_ms_p50", stats::median(waves));
        tally.values.insert("serve.wave_ms_tail", tail.value);
        tally.note(
            "serve.wave_ms_tail_percentile",
            format!("{:.1}", tail.percentile),
        );
        tally.note("serve.wave_ms_tail_samples", tail.samples);
    }
    tally.values.insert("failed_frac", tally.failed_frac());
    tally.note("rounds", p2_wall.len());
    let values = PER_LAYER
        .iter()
        .map(|(name, _, _)| {
            tally
                .values
                .get(name)
                .copied()
                .or_else(|| tally.samples.get(name).map(|v| stats::median(v)))
                .unwrap_or(0.0)
        })
        .collect();
    (values, last_trace)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_out(file: &str, content: &str) {
    let dir = out_dir();
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(file), content));
    if let Err(e) = written {
        eprintln!("could not write {file}: {e}");
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values, which no metric should
/// produce, become 0 and are reported on standard error).
fn json_num(name: &str, v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        eprintln!("metric {name} is not finite ({v}); reported as 0");
        "0".into()
    }
}

fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut ok = true;
    for name in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    layers::origin();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    if args.cold_setup {
        return cold_setup_child(&args);
    }
    let host = HostInfo::probe();
    let ranks = ranks();
    let mut tally = Tally::default();
    tally.note("workload", &args.workload);
    tally.note("seed", args.seed);
    tally.note("seconds", args.seconds);
    tally.note("trace", u8::from(args.trace));
    tally.note("ranks", format!("{} {}", ranks[0], ranks[1]));
    tally.note("nproc", host.nproc);
    tally.note("cpu_model", &host.cpu_model);
    tally.note("rustc", &host.rustc);
    tally.note("git_rev", &host.git_rev);
    tally.note("loadavg_before", host.load_before);

    let setup_cpu_s = cold_setups(&args, &mut tally);
    let t_gen = Instant::now();
    let mut w = make(&args.workload, args.seed, &ranks);
    tally.note("input", w.describe());
    tally.note(
        "input_generation_s",
        format!("{:.3}", t_gen.elapsed().as_secs_f64()),
    );
    // The peak resident set covers the solves and the inputs they need,
    // not the references built on the way; the calibration buffers,
    // resident from here on, are subtracted from it.
    let mut cal = Calibration::new();
    tally.note("peak_rss_reset", host::reset_peak_rss());

    let (names, values): (Vec<(&str, &str)>, Vec<f64>) = if args.trace {
        let (values, trace) = trace_run(w.as_mut(), &mut cal, args.seconds, &mut tally);
        if let Some(trace) = trace {
            write_out(
                &format!("{}.chrome.json", args.workload),
                &trace.chrome_json(),
            );
        }
        (PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect(), values)
    } else {
        let values = timed_run(w.as_mut(), &mut cal, args.seconds, setup_cpu_s, &mut tally);
        (END_TO_END.to_vec(), values)
    };
    tally.note("loadavg_after", host::loadavg());
    tally.note("threads_at_exit", host::thread_count());

    let suffix = format!(
        "{}-trace{}-seed{}",
        args.workload,
        u8::from(args.trace),
        args.seed
    );
    if args.trace {
        write_out(
            &format!("{}.spans.json", args.workload),
            &layers::spans_chrome_json(&tally.spans),
        );
    }

    let mut metrics = Vec::new();
    for (&(name, unit), &v) in names.iter().zip(&values) {
        println!("{name:<32} {v:>14.4} {unit}");
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(name, v),
            json_str(unit)
        ));
    }
    if !args.trace {
        let failed_frac = tally.failed_frac();
        for (name, unit) in WALL_LINES {
            let v = tally.values.get(name).copied().unwrap_or(0.0);
            println!("{name:<32} {v:>14.4} {unit}  (not gated)");
            tally.note(name, v);
        }
        println!("{:<32} {failed_frac:>14.4} ratio", "failed_frac");
        tally.note("failed_frac", failed_frac);
    }
    for (k, v) in &tally.notes {
        println!("# {k}: {v}");
    }
    let notes: Vec<String> = tally
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let correct = tally.failed == 0 && tally.attempted > 0;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    );
    write_out(
        &format!("{suffix}.json"),
        &format!(
            "{{\"result\": {result}, \"notes\": {{{}}}}}\n",
            notes.join(", ")
        ),
    );
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A traced 2-rank solve of every workload: no phase stamp falls
    /// outside its rank's body window (asserted inside `analyse_trace`),
    /// the traced output reproduces the untraced one, and the `dc`
    /// adapter's spans fit in the body.
    #[test]
    fn traced_solves_partition_each_rank_body() {
        for name in WORKLOADS {
            let mut w = make(name, 5, &[1, 2]);
            let mut tally = Tally::default();
            assert!(tally.solve(w.as_mut(), 2, Probe::OFF).error.is_none());
            let s = tally.solve(w.as_mut(), 2, Probe::TRACED);
            assert!(s.error.is_none(), "{name}: {:?}", s.error);
            assert_eq!(tally.failed, 0, "{name}");
            analyse_trace(w.as_ref(), &s, &mut tally);
            assert_eq!(tally.samples["phase.unattributed_ms"].len(), 1);
            for (rank, body) in s.bodies.iter().enumerate() {
                let app_us: f64 = tally
                    .spans
                    .iter()
                    .filter(|sp| sp.rank == Some(rank) && sp.name != "body")
                    .map(|sp| sp.end_us - sp.start_us)
                    .sum();
                assert!(app_us * 1e3 <= body.ns() as f64, "{name} rank {rank}");
            }
        }
    }

    /// Returns a fixed fingerprint, changed on traced solves when asked.
    struct Fixed {
        traced_differs: bool,
    }

    impl Workload for Fixed {
        fn solve(&mut self, _p: usize, probe: Probe, _id: u64) -> Solve {
            let output = u64::from(probe.traced && self.traced_differs);
            Solve {
                fingerprint: Some(Fingerprint {
                    output,
                    virtual_bits: 0,
                    msgs: 3,
                    bytes: 24,
                }),
                ..Solve::default()
            }
        }

        fn describe(&self) -> String {
            "fixed".into()
        }
    }

    #[test]
    fn a_traced_solve_must_reproduce_the_untraced_fingerprint() {
        for traced_differs in [false, true] {
            let mut w = Fixed { traced_differs };
            let mut tally = Tally::default();
            tally.solve(&mut w, 2, Probe::LAYERS);
            let s = tally.solve(&mut w, 2, Probe::TRACED);
            assert_eq!(s.error.is_some(), traced_differs);
            assert_eq!(tally.failed, u64::from(traced_differs));
        }
    }

    #[test]
    fn cold_setup_lines_parse() {
        let out = b"noise\ncold-setup 120 340 2 0\n";
        assert_eq!(parse_cold_setup(out), Some([120, 340, 2, 0]));
        assert_eq!(parse_cold_setup(b"cold-setup 1 2\n"), None);
    }

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                json.contains(&entry),
                "BENCHMARK.json lacks end-to-end {entry}"
            );
        }
        for (name, unit, better) in PER_LAYER {
            let entry =
                format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(
                json.contains(&entry),
                "BENCHMARK.json lacks per-layer {entry}"
            );
        }
        for (_, metric) in PHASES {
            assert!(
                PER_LAYER.iter().any(|(name, _, _)| *name == metric),
                "{metric}"
            );
        }
        assert_eq!(
            json.matches("\"name\":").count(),
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }
}
