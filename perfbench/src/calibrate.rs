//! A fixed calibration kernel that measures how fast the host's cores
//! run right now, so CPU times can be rescaled to a reference core.
//!
//! On a shared host the same solve takes more or less CPU time as
//! co-tenants load the physical cores under this machine's vCPUs, and
//! that load drifts over minutes. The kernel is the benchmark's own code,
//! so no change to the library moves it. It runs between solves all
//! through a run, so its median CPU time sees the same load as the
//! solves' median: their ratio is a solve's cost in kernel runs, whatever
//! the host's load. A *reference core* is one on which the kernel takes
//! [`REF_MS`]; the gated times are CPU times on it.

use std::time::{Duration, Instant};

use crate::host::thread_cpu_ns;
use crate::workload::splitmix;

/// The kernel's CPU time on a reference core, in milliseconds.
pub const REF_MS: f64 = 1.0;
/// Side of the kernel's stencil grid (two grids of 512 KiB).
const SIDE: usize = 256;
/// Stencil sweeps per kernel run.
const SWEEPS: usize = 16;
/// Keys the kernel sorts per run.
const KEYS: usize = 1 << 15;
/// Least time between two kernel runs, so calibration costs about 1%
/// of a run.
const EVERY: Duration = Duration::from_millis(100);

/// Samples of the kernel's CPU time over a run, with the buffers it
/// reuses so that no run pays for page faults.
pub struct Calibration {
    a: Vec<f64>,
    b: Vec<f64>,
    keys: Vec<u64>,
    /// The untimed first run's result, which every later run must
    /// reproduce.
    checksum: u64,
    last: Option<Instant>,
    samples_ms: Vec<f64>,
}

impl Calibration {
    /// The buffers, touched by one untimed kernel run so that they are
    /// resident from here on.
    pub fn new() -> Calibration {
        let mut cal = Calibration {
            a: vec![0.0; SIDE * SIDE],
            b: vec![0.0; SIDE * SIDE],
            keys: vec![0; KEYS],
            checksum: 0,
            last: None,
            samples_ms: Vec::new(),
        };
        cal.checksum = cal.kernel();
        cal
    }

    /// Run the kernel if [`EVERY`] has passed since the last run.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= EVERY) {
            self.sample();
        }
    }

    /// Run the kernel once and keep its CPU time (this thread's only:
    /// idle pool workers are not the kernel's cost).
    fn sample(&mut self) {
        let t0 = thread_cpu_ns();
        let sum = self.kernel();
        let ns = thread_cpu_ns().saturating_sub(t0);
        assert_eq!(
            self.checksum, sum,
            "the calibration kernel's result changed"
        );
        self.samples_ms.push(ns as f64 / 1e6);
        self.last = Some(Instant::now());
    }

    /// Jacobi sweeps over a cache-resident grid, then a sort of random
    /// keys: the floating-point stencil and branchy integer work the
    /// workloads do. Returns a checksum of both results.
    fn kernel(&mut self) -> u64 {
        let (mut a, mut b) = (&mut self.a[..], &mut self.b[..]);
        for (i, (x, y)) in a.iter_mut().zip(b.iter_mut()).enumerate() {
            *x = (i % 97) as f64;
            *y = *x;
        }
        for _ in 0..SWEEPS {
            for r in 1..SIDE - 1 {
                for c in 1..SIDE - 1 {
                    let k = r * SIDE + c;
                    b[k] = 0.25 * (a[k - 1] + a[k + 1] + a[k - SIDE] + a[k + SIDE]);
                }
            }
            std::mem::swap(&mut a, &mut b);
        }
        let mut state = 0x5eed;
        for k in &mut self.keys {
            *k = splitmix(&mut state);
        }
        self.keys.sort_unstable();
        let mid = a[SIDE * SIDE / 2 + SIDE / 2].to_bits();
        std::hint::black_box(mid ^ self.keys[KEYS / 3])
    }

    /// The median kernel CPU time, in milliseconds: how fast the host's
    /// cores typically ran during the run. 0 before the first sample.
    pub fn median_ms(&self) -> f64 {
        crate::stats::median(&self.samples_ms)
    }

    /// Factor that turns this run's median CPU times into reference-core
    /// times.
    pub fn scale(&self) -> f64 {
        REF_MS / self.median_ms()
    }

    pub fn samples_ms(&self) -> &[f64] {
        &self.samples_ms
    }

    /// Bytes of the kernel's buffers, which stay resident from
    /// [`Calibration::new`] to the end of the run; the peak resident set
    /// leaves them out.
    pub fn buffer_bytes(&self) -> usize {
        (self.a.len() + self.b.len()) * size_of::<f64>() + self.keys.len() * size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_repeats_its_result_and_scales_by_its_median() {
        let mut cal = Calibration::new();
        for _ in 0..3 {
            cal.sample();
        }
        let mut sorted = cal.samples_ms().to_vec();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(sorted.len(), 3);
        assert!(sorted[1] > 0.0);
        assert_eq!(cal.median_ms(), sorted[1]);
        assert_eq!(cal.scale(), REF_MS / sorted[1]);
    }

    #[test]
    fn tick_waits_between_runs() {
        let mut cal = Calibration::new();
        cal.tick();
        cal.tick();
        assert_eq!(cal.samples_ms().len(), 1);
    }
}
