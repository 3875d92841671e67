//! Process and host probes: CPU time summed over every thread of this
//! process, and from `/proc` the peak resident set, thread count, and
//! the host metadata each result is tagged with.

use std::fs;
use std::process::{Command, Stdio};
use std::time::Instant;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID` in Linux's
/// `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
}

/// CPU time consumed so far by every thread of this process, exited
/// ones included, in nanoseconds (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// The kernel adds each running thread's current slice when the clock is
/// read, so the value is exact to the nanosecond. The per-thread
/// `/proc/self/task/*/schedstat` sums lag by up to a scheduler tick per
/// running thread, which is a large share of a 20 ms solve.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed so far by the calling thread alone, in nanoseconds
/// (`CLOCK_THREAD_CPUTIME_ID`).
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec`, and both clock ids
    // used here are ones Linux always supports.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Number of threads of this process (the caller plus pool workers).
pub fn thread_count() -> usize {
    fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// A `/proc/self/status` field in kB (e.g. `VmHWM`).
fn status_kb(field: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| {
        let rest = l.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM").expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

/// Reset this process's `VmHWM` to its current resident set (value 5 of
/// Linux's `/proc/self/clear_refs`), so the peak read later covers what
/// ran after this call plus the data still held. False if the kernel
/// refused, in which case the peak counts from the process's start.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Wall time and process CPU time of one call. The CPU probes sit
/// outside the wall window so their own cost is not timed.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let cpu0 = process_cpu_ns();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_nanos() as u64;
    let cpu1 = process_cpu_ns();
    (out, wall, cpu1.saturating_sub(cpu0))
}

/// Cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The 1-minute load average.
pub fn loadavg() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(-1.0)
}

/// CPU time the hypervisor gave to other guests while this host's CPUs
/// had work (the `steal` column of `/proc/stat`), summed over CPUs, in
/// seconds.
pub fn steal_s() -> f64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s
                .lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()?;
            // /proc/stat counts in USER_HZ ticks, 100 per second on Linux.
            Some(cpu / 100.0)
        })
        .unwrap_or(0.0)
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()?
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// What every result is tagged with: the host and the build it ran on.
pub struct HostInfo {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_rev: String,
    pub load_before: f64,
}

impl HostInfo {
    pub fn probe() -> HostInfo {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".into());
        HostInfo {
            nproc: nproc(),
            cpu_model,
            rustc: command_line("rustc", &["--version"]),
            git_rev: command_line("git", &["rev-parse", "--short=12", "HEAD"]),
            load_before: loadavg(),
        }
    }
}
