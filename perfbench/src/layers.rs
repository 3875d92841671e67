//! Per-layer accounting, all of it from outside the program: the
//! benchmark's own spans around calls into each crate, and the `Phase` /
//! `WaveStart` wall stamps a traced run already records.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

use archetype_mp::{RankTrace, TraceEvent};

/// The benchmark's time origin; every span is stamped against it.
pub fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Microseconds from the benchmark origin to `t`.
pub fn at_us(t: Instant) -> f64 {
    t.saturating_duration_since(origin()).as_nanos() as f64 / 1e3
}

/// One span recorded by the benchmark around a call into the program.
/// Spans of one solve share `solve`; a rank's spans nest inside the
/// solve's host span (`rank == None`).
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub solve: u64,
    pub rank: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn new(
        name: &'static str,
        solve: u64,
        rank: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Span {
        Span {
            name,
            solve,
            rank,
            start_us: at_us(start),
            end_us: at_us(end),
        }
    }
}

/// Chrome trace-event JSON of the benchmark's spans (one track per rank,
/// the host thread on track 0).
pub fn spans_chrome_json(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                r#"{{"name":"{}","ph":"X","pid":1,"tid":{},"ts":{:.3},"dur":{:.3},"args":{{"solve":{}}}}}"#,
                s.name,
                s.rank.map_or(0, |r| r + 1),
                s.start_us,
                (s.end_us - s.start_us).max(0.0),
                s.solve
            )
        })
        .collect();
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

/// A rank body's wall extent as the benchmark's closure stamped it.
#[derive(Clone, Copy, Debug)]
pub struct BodySpan {
    pub entry: Instant,
    pub exit: Instant,
}

impl BodySpan {
    pub fn ns(&self) -> u64 {
        self.exit.saturating_duration_since(self.entry).as_nanos() as u64
    }
}

/// One rank's body window on its trace's clock (ns since the run's
/// dispatch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Window {
    /// The rank's `PoolDispatch` stamp, taken just before its body runs.
    pub entry: u64,
    /// `entry` plus the body span the benchmark's closure timed, or the
    /// rank's last stamp when the body is inside the library.
    pub exit: u64,
    /// Upper bound on the offset from the `PoolDispatch` stamp to the
    /// closure's own entry stamp: a phase stamp may fall this far past
    /// `exit` and still lie inside the body.
    pub slack: u64,
}

/// The body window of a rank. With `body` (the closure's span and the
/// instant the benchmark called into the runner), the trace clock's
/// epoch is known to lie after the call, so `body.entry - called - entry`
/// bounds how late the closure started after its dispatch stamp.
pub fn body_window(trace: &RankTrace, body: Option<(BodySpan, Instant)>) -> Window {
    let wall = |e: &TraceEvent| match *e {
        TraceEvent::Send { wall_ns, .. }
        | TraceEvent::Recv { wall_ns, .. }
        | TraceEvent::Collective { wall_ns, .. }
        | TraceEvent::Phase { wall_ns, .. }
        | TraceEvent::PoolDispatch { wall_ns, .. }
        | TraceEvent::WaveStart { wall_ns, .. } => wall_ns,
    };
    let entry = trace
        .events
        .iter()
        .find_map(|e| match *e {
            TraceEvent::PoolDispatch { wall_ns, .. } => Some(wall_ns),
            _ => None,
        })
        .unwrap_or(0);
    match body {
        Some((body, called)) => {
            let lead = body.entry.saturating_duration_since(called).as_nanos() as u64;
            Window {
                entry,
                exit: entry + body.ns(),
                slack: lead.saturating_sub(entry),
            }
        }
        None => Window {
            entry,
            exit: trace.events.iter().map(wall).max().unwrap_or(entry),
            slack: 0,
        },
    }
}

/// One rank's body split by its phase stamps.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseSplit {
    /// Self time per phase kind: the gap from each stamp of that kind to
    /// the rank's next stamp (or the body's end).
    pub by_kind: BTreeMap<&'static str, u64>,
    /// Body time covered by no phase: before the first stamp, and after
    /// each `WaveStart` until the next stamp.
    pub unattributed: u64,
    /// Stamps outside the window even with its slack: a clock or
    /// accounting error, which the caller asserts never happens.
    pub outside: usize,
}

/// Split the body window by the rank's `Phase` and `WaveStart` stamps.
/// Stamps up to `slack` past the exit are clamped to it; stamps beyond
/// that, or before the entry, are counted in `outside`.
pub fn phase_split(events: &[TraceEvent], w: Window) -> PhaseSplit {
    let (entry, exit) = (w.entry, w.exit.max(w.entry));
    let mut split = PhaseSplit::default();
    let stamps: Vec<(Option<&'static str>, u64)> = events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::Phase { kind, wall_ns, .. } => Some((Some(kind), wall_ns)),
            TraceEvent::WaveStart { wall_ns, .. } => Some((None, wall_ns)),
            _ => None,
        })
        .map(|(k, t)| {
            if t < entry || t > exit + w.slack {
                split.outside += 1;
            }
            (k, t.clamp(entry, exit))
        })
        .collect();
    split.unattributed = stamps.first().map_or(exit, |s| s.1) - entry;
    for (i, &(kind, t)) in stamps.iter().enumerate() {
        let next = stamps.get(i + 1).map_or(exit, |s| s.1).max(t);
        match kind {
            Some(k) => *split.by_kind.entry(k).or_default() += next - t,
            None => split.unattributed += next - t,
        }
    }
    split
}

/// Wall duration of each wave on one rank (ns), keyed by wave index:
/// from its `WaveStart` stamp to the next one, or to `exit`.
pub fn wave_durations(events: &[TraceEvent], exit: u64) -> Vec<(u32, u32, u64)> {
    let starts: Vec<(u32, u32, u64)> = events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::WaveStart {
                wave,
                plans,
                wall_ns,
                ..
            } => Some((wave, plans, wall_ns)),
            _ => None,
        })
        .collect();
    starts
        .iter()
        .enumerate()
        .map(|(i, &(wave, plans, t))| {
            let next = starts.get(i + 1).map_or(exit, |s| s.2).max(t);
            (wave, plans, next - t)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(kind: &'static str, wall_ns: u64) -> TraceEvent {
        TraceEvent::Phase {
            kind,
            label: "".into(),
            vt: 0.0,
            wall_ns,
        }
    }

    fn wave(wave: u32, wall_ns: u64) -> TraceEvent {
        TraceEvent::WaveStart {
            wave,
            plans: 2,
            vt: 0.0,
            wall_ns,
        }
    }

    fn window(entry: u64, exit: u64, slack: u64) -> Window {
        Window { entry, exit, slack }
    }

    #[test]
    fn phase_self_times_and_gaps_partition_the_body() {
        let events = [
            TraceEvent::PoolDispatch {
                vt: 0.0,
                wall_ns: 100,
            },
            phase("io", 150),
            phase("communication", 200),
            phase("grid-op", 260),
            phase("communication", 400),
            wave(0, 450),
            phase("work", 500),
        ];
        let s = phase_split(&events, window(100, 700, 0));
        assert_eq!(s.by_kind["io"], 50);
        assert_eq!(s.by_kind["communication"], 60 + 50);
        assert_eq!(s.by_kind["grid-op"], 140);
        assert_eq!(s.by_kind["work"], 200);
        assert_eq!(s.unattributed, 50 + 50);
        assert_eq!(s.outside, 0);
    }

    #[test]
    fn late_stamps_within_the_slack_are_clamped_not_counted() {
        let events = [phase("solve", 200), phase("merge", 520)];
        let s = phase_split(&events, window(100, 500, 30));
        assert_eq!(s.by_kind["solve"], 300);
        assert_eq!(s.by_kind["merge"], 0);
        assert_eq!(s.outside, 0);
    }

    #[test]
    fn stamps_outside_the_window_are_counted() {
        let events = [phase("solve", 50), phase("merge", 531)];
        let s = phase_split(&events, window(100, 500, 30));
        assert_eq!(s.outside, 2);
    }

    #[test]
    fn a_body_without_stamps_is_all_unattributed() {
        let s = phase_split(&[], window(10, 30, 0));
        assert_eq!(s.unattributed, 20);
        assert_eq!(s.outside, 0);
    }

    #[test]
    fn waves_run_to_the_next_wave_or_the_body_end() {
        let events = [wave(0, 10), phase("work", 15), wave(1, 40)];
        assert_eq!(wave_durations(&events, 100), vec![(0, 2, 30), (1, 2, 60)]);
    }
}
