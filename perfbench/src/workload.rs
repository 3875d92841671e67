//! What the harness needs from a workload: one checked solve at a given
//! rank count, and an optional serial baseline.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;

use archetype_mp::{MachineModel, RunConfig, RunTrace};

use crate::layers::{BodySpan, Span};

/// The machine model every run charges its virtual clock against. Only
/// the modeled `mp.virtual_ms_p2` and the sort's recursion cutoff depend
/// on it; wall and CPU time do not.
pub fn model() -> MachineModel {
    MachineModel::ibm_sp()
}

/// How much a solve records besides its wall and CPU time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Probe {
    /// Collect the workload's per-layer values (benchmark-side spans and
    /// counters).
    pub layers: bool,
    /// Run with the substrate's event tracing on.
    pub traced: bool,
}

impl Probe {
    /// End-to-end timing only.
    pub const OFF: Probe = Probe {
        layers: false,
        traced: false,
    };
    /// Per-layer values on an untraced run.
    pub const LAYERS: Probe = Probe {
        layers: true,
        traced: false,
    };
    /// Per-layer values on a traced run.
    pub const TRACED: Probe = Probe {
        layers: true,
        traced: true,
    };

    /// The real-backend run configuration for this probe; traced runs get
    /// `capacity` events per rank.
    pub fn config(self, capacity: usize) -> RunConfig {
        if self.traced {
            RunConfig::real()
                .with_tracing()
                .with_trace_capacity(capacity)
        } else {
            RunConfig::real()
        }
    }
}

/// What a traced solve must reproduce of the untraced solve before it at
/// the same rank count: a hash of the output, the virtual time and the
/// message counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub output: u64,
    pub virtual_bits: u64,
    pub msgs: u64,
    pub bytes: u64,
}

/// A fixed hash of an output (the std SipHash with its default key, so
/// the same value on every run and host).
pub fn hash_of(value: &(impl Hash + ?Sized)) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// One checked solve.
#[derive(Default)]
pub struct Solve {
    pub wall_ns: u64,
    pub cpu_ns: u64,
    /// Why the solve failed: an error returned by the program, or an
    /// output that does not match the reference.
    pub error: Option<String>,
    /// Per-layer values of this solve (probed solves only).
    pub layers: Vec<(&'static str, f64)>,
    /// The substrate's event trace (traced solves only).
    pub trace: Option<RunTrace>,
    /// Each rank's body span, when the benchmark's closure stamped it.
    pub bodies: Vec<BodySpan>,
    /// When the benchmark called into the runner (with `bodies`).
    pub called: Option<Instant>,
    /// The solve's fingerprint, for workloads whose traced output is not
    /// otherwise held to the untraced one.
    pub fingerprint: Option<Fingerprint>,
    /// The benchmark's own spans of this solve (probed solves only).
    pub spans: Vec<Span>,
}

pub trait Workload {
    /// Mark the end of warm-up: counters read by [`Workload::finish`]
    /// cover only the solves after this call.
    fn start_timing(&mut self) {}

    /// Run and check one solve at `p` ranks; `id` tags its spans.
    fn solve(&mut self, p: usize, probe: Probe, id: u64) -> Solve;

    /// Time one checked run of the sequential baseline (ns), if the
    /// workload has one.
    fn serial(&mut self) -> Option<Result<u64, String>> {
        None
    }

    /// Per-layer values over every solve since [`Workload::start_timing`].
    fn finish(&mut self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Grid-point updates one solve's `grid-op` phases perform, for the
    /// sweep rate; 0 when the workload has no grid sweep.
    fn grid_point_updates(&self) -> f64 {
        0.0
    }

    /// One line describing the generated input.
    fn describe(&self) -> String;
}

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every generated input.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
