//! SPMD runner: wires up the network, runs one rank per worker thread,
//! and reports results plus virtual-time and traffic statistics.
//!
//! Two execution paths exist:
//!
//! * [`run_spmd`] / [`run_spmd_quiet`] dispatch ranks onto the persistent
//!   worker pool ([`crate::pool`]) and **recycle the channel network**: a
//!   run that ends with every message consumed returns its `n × n`
//!   channel mesh to a per-size cache, so repeated calls stop paying
//!   n×thread-spawn plus n² channel construction per invocation.
//! * [`run_spmd_unpooled`] spawns fresh OS threads and a fresh network
//!   every call — the seed behaviour, kept as the comparison baseline for
//!   the `substrate_overhead` bench and for callers that want full
//!   isolation.
//!
//! Virtual-time semantics are identical on both paths: clocks are driven
//! only by the machine model and message arrival times, never by host
//! scheduling, so `determinism_same_program_same_clocks` holds regardless
//! of which threads execute which rank.
//!
//! Every path moves its messages over the same lock-free SPSC links
//! ([`crate::transport`]) and reports both the modeled
//! [`SpmdResult::elapsed_virtual`] and the measured
//! [`SpmdResult::wall_us`]; fault-injected runs ([`run_spmd_ft`]) included.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

use crate::ctx::Ctx;
use crate::fault::{FaultPlan, InjectedCrash};
use crate::mailbox::{build_network, Mailbox};
use crate::model::MachineModel;
use crate::payload::PayloadArena;
use crate::pool;
use crate::stats::{RankStats, RunStats};
use crate::trace::{RankTrace, RunTrace, TraceRecorder};
use crate::transport::PacketSender;

/// Lock a mutex, tolerating poison: a rank that panicked while holding
/// the runner's bookkeeping locks must not wedge every later `run_spmd`
/// in the process (the data under these locks stays consistent — each
/// critical section is a single assignment or cache operation).
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Everything a finished SPMD run reports.
#[derive(Debug)]
pub struct SpmdResult<R> {
    /// Per-rank return values of the body, indexed by rank.
    pub results: Vec<R>,
    /// Elapsed virtual time: the maximum final clock across ranks.
    pub elapsed_virtual: f64,
    /// Final per-rank clocks.
    pub rank_times: Vec<f64>,
    /// Communication/computation statistics per rank.
    pub stats: RunStats,
    /// Measured wall-clock time of the run (dispatch to last rank done),
    /// in microseconds: the *only* field that legitimately differs
    /// between repeated runs.
    pub wall_us: u64,
    /// Per-rank event streams of a traced run ([`RunConfig::traced`]);
    /// `None` unless tracing was requested. Export with
    /// [`RunTrace::chrome_json`], analyze with [`RunTrace::critical_path`].
    pub trace: Option<RunTrace>,
}

impl<R> SpmdResult<R> {
    /// Speedup of this run relative to a modeled sequential time.
    pub fn speedup_vs(&self, sequential_time: f64) -> f64 {
        if self.elapsed_virtual > 0.0 {
            sequential_time / self.elapsed_virtual
        } else {
            f64::INFINITY
        }
    }
}

/// Why one rank of an SPMD run failed: the structured form of a rank
/// panic, reported by [`try_run_spmd`] / [`run_spmd_ft`] instead of
/// resuming the unwind on the caller's thread.
#[derive(Clone, Debug)]
pub struct RankFailure {
    /// World rank that failed.
    pub rank: usize,
    /// The rank's panic message (or a description of the injected crash
    /// site for scheduled faults).
    pub message: String,
    /// True when the failure was scheduled by a [`FaultPlan`] crash site;
    /// false for genuine program panics.
    pub injected: bool,
    /// The rank's virtual clock at the moment of an injected crash (0.0
    /// for genuine panics, whose context is lost to the unwind).
    pub clock: f64,
    /// Statistics accumulated up to an injected crash (default for
    /// genuine panics).
    pub stats: RankStats,
}

impl std::fmt::Display for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = if self.injected {
            "injected crash"
        } else {
            "panic"
        };
        write!(f, "rank {} failed ({kind}): {}", self.rank, self.message)
    }
}

impl std::error::Error for RankFailure {}

/// Error returned by the fallible entry points ([`try_run_spmd`],
/// [`try_run_spmd_with`]).
#[derive(Clone, Debug)]
pub enum SpmdError {
    /// One or more ranks failed. The channel network of a failed run is
    /// always quarantined (dropped), never recycled: a dead rank may
    /// have left messages in flight.
    Ranks {
        /// The failed ranks, in rank order.
        failures: Vec<RankFailure>,
    },
}

impl SpmdError {
    /// The failed ranks, in rank order.
    pub fn failures(&self) -> &[RankFailure] {
        match self {
            SpmdError::Ranks { failures } => failures,
        }
    }
}

impl std::fmt::Display for SpmdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let failures = self.failures();
        write!(f, "{} rank(s) failed:", failures.len())?;
        for failure in failures {
            write!(f, " [{failure}]")?;
        }
        Ok(())
    }
}

impl std::error::Error for SpmdError {}

/// Everything a fault-injected SPMD run ([`run_spmd_ft`]) reports. Unlike
/// [`SpmdResult`], per-rank outcomes are `Result`s: scheduled crashes are
/// expected events, and surviving ranks' values remain available next to
/// the structured failures of the ranks that died.
#[derive(Debug)]
pub struct FtSpmdResult<R> {
    /// Per-rank outcomes, indexed by rank.
    pub results: Vec<Result<R, RankFailure>>,
    /// Elapsed virtual time: the maximum final clock across ranks
    /// (crashed ranks contribute their clock at the moment of death).
    pub elapsed_virtual: f64,
    /// Final per-rank clocks (clock at death for crashed ranks).
    pub rank_times: Vec<f64>,
    /// Communication/computation statistics per rank (up to the moment of
    /// death for crashed ranks).
    pub stats: RunStats,
    /// Messages left unconsumed in the network when the run ended. Always
    /// 0 for fully successful runs of leak-free programs; a run with dead
    /// ranks may legitimately strand in-flight messages (the network is
    /// quarantined, so they can never contaminate a later run).
    pub leaked_messages: usize,
    /// Measured wall-clock time of the run (dispatch to last rank done),
    /// in microseconds, as in [`SpmdResult::wall_us`].
    pub wall_us: u64,
    /// Event streams of the ranks that survived a traced run
    /// ([`RunConfig::traced`]), in rank order; empty for untraced runs.
    /// A crashed rank's recorder dies with its unwind, so its stream is
    /// missing here.
    pub traces: Vec<RankTrace>,
}

impl<R> FtSpmdResult<R> {
    /// True if every rank completed (no scheduled crash fired and nothing
    /// panicked).
    pub fn all_ok(&self) -> bool {
        self.results.iter().all(Result::is_ok)
    }

    /// The failures, in rank order (empty when [`FtSpmdResult::all_ok`]).
    pub fn failures(&self) -> Vec<&RankFailure> {
        self.results
            .iter()
            .filter_map(|r| r.as_ref().err())
            .collect()
    }
}

/// One rank's endpoints: the send sides of its outgoing channels, its
/// mailbox, and its payload-box arena. Owned by the rank's `Ctx` while
/// running; returned afterwards so a clean network — warm freelists
/// included — can be recycled.
struct RankLinks {
    senders: Vec<PacketSender>,
    mailbox: Mailbox,
    arena: PayloadArena,
}

/// Per-size cache of quiescent networks. Only networks whose every
/// channel and pending buffer is empty (leak check passed) are returned
/// here, so recycling can never leak a stale packet into the next run.
static NETWORK_CACHE: OnceLock<Mutex<NetworkCache>> = OnceLock::new();

/// Networks kept per process count; each costs `n²` empty channels.
const CACHED_NETWORKS_PER_SIZE: usize = 2;

/// Upper bound on the total number of empty channels retained across all
/// cached networks, so sweeping many process counts (or one huge run)
/// cannot pin unbounded memory for the process lifetime. 32k channels ≈
/// the meshes of two 128-rank runs. When a releasing run would push the
/// cache over this budget, the least-recently-released entries are
/// evicted to make room — so under plan-service churn across many
/// distinct subgroup sizes the cache tracks the *live* size mix instead
/// of pinning the budget with whatever sizes happened to run first.
const CACHE_CHANNEL_BUDGET: usize = 32 * 1024;

/// One cached quiescent network and the release stamp eviction orders by.
struct CachedNetwork {
    links: Vec<RankLinks>,
    /// Value of [`NetworkCache::clock`] when this network was released;
    /// entries with the smallest stamp are evicted first.
    stamp: u64,
}

#[derive(Default)]
struct NetworkCache {
    by_size: HashMap<usize, Vec<CachedNetwork>>,
    /// Total channels (`Σ n²`) currently held in `by_size`.
    channels: usize,
    /// Monotone release counter backing the LRU stamps.
    clock: u64,
}

impl NetworkCache {
    /// Drop the least-recently-released cached network. Within a slot
    /// entries are pushed in release order, so the front of the slot with
    /// the globally smallest stamp is the eviction victim. Slots never
    /// stay empty, so the key count is bounded by the live entry count.
    fn evict_stalest(&mut self) {
        let victim = self
            .by_size
            .iter()
            .min_by_key(|(_, slot)| slot.first().map_or(u64::MAX, |e| e.stamp))
            .map(|(&nprocs, _)| nprocs);
        let Some(nprocs) = victim else {
            return;
        };
        let slot = self.by_size.get_mut(&nprocs).expect("victim key exists");
        slot.remove(0);
        self.channels -= nprocs * nprocs;
        if slot.is_empty() {
            self.by_size.remove(&nprocs);
        }
    }
}

fn network_cache() -> &'static Mutex<NetworkCache> {
    NETWORK_CACHE.get_or_init(|| Mutex::new(NetworkCache::default()))
}

/// Build a fresh network, transposed so each rank *owns* its outgoing
/// channel ends: when a rank panics its senders drop, and peers blocked
/// on receives from it fail fast rather than deadlocking.
fn fresh_network(nprocs: usize) -> Vec<RankLinks> {
    let (senders_by_dest, mailboxes) = build_network(nprocs);
    mailboxes
        .into_iter()
        .enumerate()
        .map(|(src, mailbox)| RankLinks {
            senders: (0..nprocs)
                .map(|dest| senders_by_dest[dest][src].clone())
                .collect(),
            mailbox,
            arena: PayloadArena::new(),
        })
        .collect()
}

fn acquire_network(nprocs: usize) -> Vec<RankLinks> {
    {
        let mut cache = lock_unpoisoned(network_cache());
        if let Some(entry) = cache.by_size.get_mut(&nprocs).and_then(Vec::pop) {
            cache.channels -= nprocs * nprocs;
            if cache.by_size.get(&nprocs).is_some_and(Vec::is_empty) {
                cache.by_size.remove(&nprocs);
            }
            return entry.links;
        }
    }
    fresh_network(nprocs)
}

fn release_network(nprocs: usize, links: Vec<RankLinks>) {
    let channels = nprocs * nprocs;
    if channels > CACHE_CHANNEL_BUDGET {
        return; // can never fit, even with an empty cache
    }
    let mut cache = lock_unpoisoned(network_cache());
    if cache
        .by_size
        .get(&nprocs)
        .is_some_and(|slot| slot.len() >= CACHED_NETWORKS_PER_SIZE)
    {
        return; // per-size cap reached
    }
    // Evict least-recently-released networks until the newcomer fits.
    // Only quiescent networks are ever cached, so eviction just frees
    // empty channels — it cannot affect what a later fresh-or-recycled
    // acquisition observes (the bit-identical-to-fresh guarantee).
    while cache.channels + channels > CACHE_CHANNEL_BUDGET {
        cache.evict_stalest();
    }
    cache.clock += 1;
    let stamp = cache.clock;
    cache
        .by_size
        .entry(nprocs)
        .or_default()
        .push(CachedNetwork { links, stamp });
    cache.channels += channels;
}

type RankOutcome<R> = (R, f64, RankStats, Option<Box<TraceRecorder>>, RankLinks);
type JobResult<R> = Result<RankOutcome<R>, Box<dyn std::any::Any + Send>>;

/// A completed rank as seen by the runner frontends: return value, final
/// clock, statistics, and — for traced runs — the rank's event stream
/// (the links were already returned to the network lifecycle by the
/// core).
type RankDone<R> = (R, f64, RankStats, Option<RankTrace>);

/// Turn a caught panic payload into a structured failure. Injected
/// crashes carry their context ([`InjectedCrash`]); genuine panics yield
/// whatever message the payload holds.
fn classify_panic(rank: usize, payload: Box<dyn std::any::Any + Send>) -> RankFailure {
    match payload.downcast::<InjectedCrash>() {
        Ok(crash) => RankFailure {
            rank: crash.rank,
            message: format!("injected crash at {}", crash.site),
            injected: true,
            clock: crash.clock,
            stats: crash.stats,
        },
        Err(payload) => {
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            RankFailure {
                rank,
                message,
                injected: false,
                clock: 0.0,
                stats: RankStats::default(),
            }
        }
    }
}

/// The shared execution core: runs one rank per worker, contains every
/// panic, and returns per-rank structured outcomes, the leak count, and
/// the measured wall-clock time (dispatch to last rank done) in
/// microseconds.
///
/// Network lifecycle: a *fully successful* pooled run with no stranded
/// messages returns its network to the recycle cache; any run with a
/// failed rank — or with messages left in flight — quarantines it (the
/// links are simply dropped), so stale packets and dead channels can
/// never contaminate a later run.
fn run_inner_result<F, R>(
    nprocs: usize,
    model: MachineModel,
    fault: Option<Arc<FaultPlan>>,
    body: F,
    config: RunConfig,
) -> (Vec<Result<RankDone<R>, RankFailure>>, usize, u64)
where
    F: Fn(&mut Ctx) -> R + Sync,
    R: Send,
{
    assert!(nprocs > 0, "need at least one process");
    let RunConfig {
        pooled,
        traced,
        trace_capacity,
        ..
    } = config;
    let links = if pooled {
        acquire_network(nprocs)
    } else {
        fresh_network(nprocs)
    };

    let slots: Vec<Mutex<Option<JobResult<R>>>> = (0..nprocs).map(|_| Mutex::new(None)).collect();
    let body = &body;
    let fault = &fault;
    // One wall-clock anchor shared by every rank's recorder, taken
    // before dispatch so all tracks measure from the same instant.
    let started = Instant::now();
    let run_rank = move |rank: usize, links: RankLinks| -> JobResult<R> {
        catch_unwind(AssertUnwindSafe(|| {
            let mut ctx = Ctx::new(
                rank,
                nprocs,
                links.senders,
                links.mailbox,
                links.arena,
                model,
            );
            if let Some(plan) = fault {
                ctx.install_fault_plan(Arc::clone(plan));
            }
            if traced {
                ctx.install_tracer(Box::new(TraceRecorder::new(trace_capacity, started)));
                ctx.trace_pool_dispatch();
            }
            let r = body(&mut ctx);
            let now = ctx.now();
            let stats = ctx.stats();
            let tracer = ctx.take_tracer();
            let (senders, mailbox, arena) = ctx.into_parts();
            (
                r,
                now,
                stats,
                tracer,
                RankLinks {
                    senders,
                    mailbox,
                    arena,
                },
            )
        }))
    };
    let run_rank = &run_rank;
    let slots_ref = &slots;
    if pooled {
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = links
            .into_iter()
            .enumerate()
            .map(|(rank, l)| {
                Box::new(move || {
                    *lock_unpoisoned(&slots_ref[rank]) = Some(run_rank(rank, l));
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool::run_scoped(jobs);
    } else {
        std::thread::scope(|scope| {
            for (rank, l) in links.into_iter().enumerate() {
                scope.spawn(move || {
                    *lock_unpoisoned(&slots_ref[rank]) = Some(run_rank(rank, l));
                });
            }
        });
    }
    // Measured after the dispatch barrier: every rank has returned, so
    // this spans the whole SPMD computation.
    let wall_us = started.elapsed().as_micros() as u64;

    let mut outcomes = Vec::with_capacity(nprocs);
    let mut links_back = Vec::with_capacity(nprocs);
    let mut any_failed = false;
    for (rank, slot) in slots.iter().enumerate() {
        match lock_unpoisoned(slot).take() {
            Some(Ok((r, now, stats, tracer, l))) => {
                links_back.push(l);
                let trace = tracer.map(|t| t.into_rank_trace(rank));
                outcomes.push(Ok((r, now, stats, trace)));
            }
            Some(Err(payload)) => {
                any_failed = true;
                outcomes.push(Err(classify_panic(rank, payload)));
            }
            // A worker's panic guard was escaped (double panic in the job):
            // the pool still signals completion, but the slot stays empty.
            None => {
                any_failed = true;
                outcomes.push(Err(RankFailure {
                    rank,
                    message: "rank's job vanished (worker panic guard escaped)".to_string(),
                    injected: false,
                    clock: 0.0,
                    stats: RankStats::default(),
                }));
            }
        }
    }

    // The leak count runs here — after every rank has returned — so it
    // sees a quiescent network: no send can still be in flight, making
    // the count exact rather than racing against slower peers. With dead
    // ranks the count covers the survivors' mailboxes (the dead ranks'
    // endpoints went down with their unwinds).
    let leaked: usize = links_back.iter().map(|l| l.mailbox.unconsumed()).sum();
    if pooled && !any_failed && leaked == 0 {
        release_network(nprocs, links_back);
    }

    (outcomes, leaked, wall_us)
}

/// How an SPMD run executes: whether ranks dispatch onto the persistent
/// pool, whether the post-run leak check is enforced, and whether the run
/// records event traces. The default is exactly [`run_spmd`]'s behaviour
/// (pooled, leak-checked, untraced), so
/// `run_spmd_with(n, model, RunConfig::default(), body)` ≡
/// `run_spmd(n, model, body)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunConfig {
    /// Dispatch ranks onto the persistent worker pool and recycle the
    /// network (true, the default), or spawn fresh threads per call.
    pub pooled: bool,
    /// Panic if the run ends with unreceived messages (true by default).
    pub check_leaks: bool,
    /// Record per-rank event traces into [`SpmdResult::trace`] (false by
    /// default). Tracing never perturbs results, clocks, or statistics —
    /// the observer-effect guard in `tests/prop_trace.rs` holds them
    /// bit-identical to untraced runs.
    pub traced: bool,
    /// Ring-buffer capacity (events per rank) of a traced run; beyond
    /// it the oldest events are dropped and counted. Ignored unless
    /// `traced` is set.
    pub trace_capacity: usize,
}

/// Default per-rank event capacity of traced runs: enough for the test
/// and bench workloads in-repo without preallocating megabytes per rank.
pub const DEFAULT_TRACE_CAPACITY: usize = 16 * 1024;

impl RunConfig {
    /// Alias of [`RunConfig::default`], for callers that spell the
    /// default configuration by name.
    pub fn virtual_time() -> Self {
        Self::default()
    }

    /// Alias of [`RunConfig::default`] (see [`RunConfig::virtual_time`]).
    pub fn real() -> Self {
        Self::default()
    }

    /// The default configuration with event tracing on: the run returns
    /// its per-rank event streams in [`SpmdResult::trace`].
    pub fn traced() -> Self {
        Self::default().with_tracing()
    }

    /// This configuration with tracing switched on.
    pub fn with_tracing(self) -> Self {
        RunConfig {
            traced: true,
            ..self
        }
    }

    /// This configuration with the given traced ring-buffer capacity
    /// (events per rank); implies nothing about `traced` itself.
    pub fn with_trace_capacity(self, events: usize) -> Self {
        RunConfig {
            trace_capacity: events,
            ..self
        }
    }
}

// `#[derive(Default)]` on a struct with `bool` fields would default them
// to `false`; the semantic default is run_spmd's behaviour.
impl std::default::Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            pooled: true,
            check_leaks: true,
            traced: false,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
        }
    }
}

/// Run `body` as an SPMD computation with `nprocs` processes on the given
/// machine model. Panics in any rank propagate; on completion every sent
/// message must have been received (leak check), which catches mismatched
/// protocols early.
///
/// Ranks execute on a persistent worker pool and the channel network is
/// recycled between calls, so calling this in a loop costs a pool
/// dispatch — not `nprocs` thread spawns plus `nprocs²` channel
/// constructions — per invocation.
///
/// ```
/// use archetype_mp::{run_spmd, MachineModel};
///
/// // Ranks pass their rank number around a ring.
/// let out = run_spmd(3, MachineModel::cray_t3d(), |ctx| {
///     let right = (ctx.rank() + 1) % ctx.nprocs();
///     let left = (ctx.rank() + ctx.nprocs() - 1) % ctx.nprocs();
///     ctx.send(right, 0, ctx.rank() as u64);
///     ctx.recv::<u64>(left, 0)
/// });
/// assert_eq!(out.results, vec![2, 0, 1]);
/// assert!(out.elapsed_virtual > 0.0);
/// ```
pub fn run_spmd<F, R>(nprocs: usize, model: MachineModel, body: F) -> SpmdResult<R>
where
    F: Fn(&mut Ctx) -> R + Sync,
    R: Send,
{
    run_spmd_with(nprocs, model, RunConfig::default(), body)
}

/// [`run_spmd`] with an explicit [`RunConfig`]. `RunConfig::default()`
/// reproduces [`run_spmd`] exactly; the first rank failure is re-raised
/// as a panic whose message contains the original panic text.
///
/// ```
/// use archetype_mp::{run_spmd_with, MachineModel, RunConfig};
///
/// let body = |ctx: &mut archetype_mp::Ctx| {
///     ctx.all_reduce(ctx.rank() as u64 + 1, |a, b| a + b)
/// };
/// let plain = run_spmd_with(4, MachineModel::ibm_sp(), RunConfig::default(), body);
/// let traced = run_spmd_with(4, MachineModel::ibm_sp(), RunConfig::traced(), body);
/// assert_eq!(plain.results, traced.results);
/// assert_eq!(plain.rank_times, traced.rank_times);
/// assert!(traced.trace.is_some());
/// ```
pub fn run_spmd_with<F, R>(
    nprocs: usize,
    model: MachineModel,
    config: RunConfig,
    body: F,
) -> SpmdResult<R>
where
    F: Fn(&mut Ctx) -> R + Sync,
    R: Send,
{
    match try_run_spmd_with(nprocs, model, config, body) {
        Ok(out) => out,
        // A failed rank takes precedence, matching `std::thread::scope`
        // semantics; the message keeps the original panic text so
        // callers matching on it still work.
        Err(err) => panic!("{}", err.failures()[0].message),
    }
}

/// Like [`run_spmd`] but without the message-leak check. Useful in tests
/// that deliberately exercise failure paths.
pub fn run_spmd_quiet<F, R>(nprocs: usize, model: MachineModel, body: F) -> SpmdResult<R>
where
    F: Fn(&mut Ctx) -> R + Sync,
    R: Send,
{
    let config = RunConfig {
        check_leaks: false,
        ..RunConfig::default()
    };
    run_spmd_with(nprocs, model, config, body)
}

/// [`run_spmd`] on the seed execution path: fresh OS threads and a fresh
/// channel network every call, nothing pooled or recycled. Kept as the
/// baseline the `substrate_overhead` bench compares against, and for
/// callers that want complete isolation between runs.
pub fn run_spmd_unpooled<F, R>(nprocs: usize, model: MachineModel, body: F) -> SpmdResult<R>
where
    F: Fn(&mut Ctx) -> R + Sync,
    R: Send,
{
    let config = RunConfig {
        pooled: false,
        ..RunConfig::default()
    };
    run_spmd_with(nprocs, model, config, body)
}

/// Like [`run_spmd`], but rank panics are contained and reported as a
/// structured [`SpmdError`] instead of being re-raised: one panicking
/// rank cannot take the calling thread down, the worker pool stays usable
/// for the next run, and the dirty channel network is quarantined rather
/// than recycled.
///
/// ```
/// use archetype_mp::{try_run_spmd, MachineModel};
///
/// let err = try_run_spmd(2, MachineModel::zero_comm(), |ctx| {
///     if ctx.rank() == 1 {
///         panic!("boom");
///     }
///     ctx.rank()
/// })
/// .unwrap_err();
/// assert_eq!(err.failures().len(), 1);
/// assert_eq!(err.failures()[0].rank, 1);
/// assert!(err.failures()[0].message.contains("boom"));
/// ```
pub fn try_run_spmd<F, R>(
    nprocs: usize,
    model: MachineModel,
    body: F,
) -> Result<SpmdResult<R>, SpmdError>
where
    F: Fn(&mut Ctx) -> R + Sync,
    R: Send,
{
    try_run_spmd_with(nprocs, model, RunConfig::default(), body)
}

/// [`try_run_spmd`] with an explicit [`RunConfig`]: contained rank
/// failures, reported as [`SpmdError::Ranks`].
pub fn try_run_spmd_with<F, R>(
    nprocs: usize,
    model: MachineModel,
    config: RunConfig,
    body: F,
) -> Result<SpmdResult<R>, SpmdError>
where
    F: Fn(&mut Ctx) -> R + Sync,
    R: Send,
{
    let (outcomes, leaked, wall_us) = run_inner_result(nprocs, model, None, body, config);
    let mut results = Vec::with_capacity(nprocs);
    let mut rank_times = Vec::with_capacity(nprocs);
    let mut per_rank = Vec::with_capacity(nprocs);
    let mut rank_traces = Vec::with_capacity(if config.traced { nprocs } else { 0 });
    let mut failures = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok((r, now, stats, trace)) => {
                results.push(r);
                rank_times.push(now);
                per_rank.push(stats);
                if let Some(t) = trace {
                    rank_traces.push(t);
                }
            }
            Err(failure) => failures.push(failure),
        }
    }
    if !failures.is_empty() {
        return Err(SpmdError::Ranks { failures });
    }
    if config.check_leaks {
        assert_eq!(
            leaked, 0,
            "run finished with {leaked} unreceived message(s): \
             mismatched send/recv in the SPMD program"
        );
    }
    let elapsed_virtual = rank_times.iter().copied().fold(0.0, f64::max);
    let trace = config.traced.then(|| RunTrace {
        ranks: rank_traces,
        rank_times: rank_times.clone(),
        elapsed_virtual,
    });
    Ok(SpmdResult {
        results,
        elapsed_virtual,
        rank_times,
        stats: RunStats { per_rank },
        wall_us,
        trace,
    })
}

/// Run `body` under a deterministic fault schedule: `plan` is shared by
/// every rank (see [`FaultPlan`]), scheduled crashes really panic the
/// rank and are reported as structured per-rank failures, and the
/// channel network is quarantined whenever anything failed or leaked.
///
/// This is the chaos-testing entry point: with an inert plan
/// (`FaultPlan::new(seed)`) it behaves exactly like [`run_spmd`] modulo
/// the `Result`-wrapped outcomes — the configuration whose overhead the
/// `substrate_overhead` bench pins. It runs on the same lock-free links
/// as every other run, so recovery is validated on the measured
/// transport.
///
/// `config` is honoured as by [`run_spmd_with`], except that the leak
/// check never panics: leaked messages are reported in
/// [`FtSpmdResult::leaked_messages`]. A traced run returns the surviving
/// ranks' event streams in [`FtSpmdResult::traces`].
pub fn run_spmd_ft<F, R>(
    nprocs: usize,
    model: MachineModel,
    plan: FaultPlan,
    config: RunConfig,
    body: F,
) -> FtSpmdResult<R>
where
    F: Fn(&mut Ctx) -> R + Sync,
    R: Send,
{
    let (outcomes, leaked, wall_us) =
        run_inner_result(nprocs, model, Some(Arc::new(plan)), body, config);
    let mut results = Vec::with_capacity(nprocs);
    let mut rank_times = Vec::with_capacity(nprocs);
    let mut per_rank = Vec::with_capacity(nprocs);
    let mut traces = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok((r, now, stats, trace)) => {
                results.push(Ok(r));
                rank_times.push(now);
                per_rank.push(stats);
                traces.extend(trace);
            }
            Err(failure) => {
                rank_times.push(failure.clock);
                per_rank.push(failure.stats);
                results.push(Err(failure));
            }
        }
    }
    let elapsed_virtual = rank_times.iter().copied().fold(0.0, f64::max);
    FtSpmdResult {
        results,
        elapsed_virtual,
        rank_times,
        stats: RunStats { per_rank },
        leaked_messages: leaked,
        wall_us,
        traces,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_process_runs_body_once() {
        let out = run_spmd(1, MachineModel::ibm_sp(), |ctx| {
            ctx.charge_flops(100.0);
            ctx.rank()
        });
        assert_eq!(out.results, vec![0]);
        assert!(out.elapsed_virtual > 0.0);
    }

    #[test]
    fn elapsed_is_max_over_ranks() {
        let out = run_spmd(4, MachineModel::zero_comm(), |ctx| {
            ctx.charge_seconds(ctx.rank() as f64);
        });
        assert_eq!(out.elapsed_virtual, 3.0);
        assert_eq!(out.rank_times, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn determinism_same_program_same_clocks() {
        let run = || {
            run_spmd(8, MachineModel::intel_delta(), |ctx| {
                let x = ctx.all_reduce(ctx.rank() as f64, |a, b| a + b);
                ctx.charge_flops(x * 10.0);
                ctx.barrier();
                ctx.now()
            })
        };
        let a = run();
        let b = run();
        assert_eq!(
            a.rank_times, b.rank_times,
            "virtual time must be deterministic"
        );
        assert_eq!(a.results, b.results);
    }

    #[test]
    fn pooled_and_unpooled_agree() {
        let body = |ctx: &mut Ctx| {
            let s = ctx.all_reduce(ctx.rank() as u64 + 1, |a, b| a + b);
            ctx.barrier();
            (s, ctx.now())
        };
        let pooled = run_spmd(6, MachineModel::ibm_sp(), body);
        let unpooled = run_spmd_unpooled(6, MachineModel::ibm_sp(), body);
        assert_eq!(pooled.results, unpooled.results);
        assert_eq!(pooled.rank_times, unpooled.rank_times);
    }

    #[test]
    fn repeated_runs_recycle_the_network() {
        // Uses a process count no other test in this crate runs at, so
        // concurrent tests cannot pop the cached network between the runs
        // and the observation below.
        const N: usize = 23;
        for _ in 0..3 {
            run_spmd(N, MachineModel::zero_comm(), |ctx| {
                ctx.all_reduce(1u64, |a, b| a + b)
            });
        }
        let cached = network_cache()
            .lock()
            .unwrap()
            .by_size
            .get(&N)
            .map_or(0, Vec::len);
        assert!(cached >= 1, "a clean {N}-rank network should be cached");
    }

    #[test]
    fn oversized_networks_are_not_retained() {
        // 200² channels exceed the cache budget on their own; the run
        // must succeed and the network must be dropped, not cached.
        const N: usize = 200;
        run_spmd(N, MachineModel::zero_comm(), |ctx| ctx.rank());
        let cached = network_cache()
            .lock()
            .unwrap()
            .by_size
            .get(&N)
            .map_or(0, Vec::len);
        assert_eq!(cached, 0, "an over-budget network must not be cached");
    }

    #[test]
    fn mixed_size_churn_keeps_cache_occupancy_bounded() {
        // Plan-service churn: many distinct subgroup sizes, far more
        // total channel demand than the budget. Sizes 33..56 are unique
        // to this test (and to the process), so the recency assertions
        // below cannot race other tests' cache traffic.
        const SIZES: std::ops::Range<usize> = 33..56;
        let demand: usize = SIZES.map(|n| CACHED_NETWORKS_PER_SIZE * n * n).sum();
        assert!(
            demand > CACHE_CHANNEL_BUDGET,
            "the hammer must oversubscribe the budget to exercise eviction"
        );
        for n in SIZES {
            // Two clean runs per size: fills the per-size slot.
            for _ in 0..CACHED_NETWORKS_PER_SIZE {
                run_spmd(n, MachineModel::zero_comm(), |ctx| {
                    ctx.all_reduce(1u64, |a, b| a + b)
                });
            }
        }
        let cache = network_cache().lock().unwrap();
        assert!(
            cache.channels <= CACHE_CHANNEL_BUDGET,
            "occupancy {} exceeds the channel budget",
            cache.channels
        );
        let recomputed: usize = cache
            .by_size
            .iter()
            .map(|(&n, slot)| n * n * slot.len())
            .sum();
        assert_eq!(cache.channels, recomputed, "channel accounting drifted");
        for slot in cache.by_size.values() {
            assert!(!slot.is_empty(), "empty slots must be pruned");
            assert!(slot.len() <= CACHED_NETWORKS_PER_SIZE);
        }
        // LRU means the *latest* sizes survive and the earliest were
        // evicted to make room for them.
        let freshest = SIZES.end - 1;
        assert!(
            cache.by_size.contains_key(&freshest),
            "the most recently released size must still be cached"
        );
        let evicted = SIZES.filter(|n| !cache.by_size.contains_key(n)).count();
        assert!(
            evicted > 0,
            "oversubscribing the budget must evict some stale sizes"
        );
    }

    #[test]
    fn ft_runs_report_measured_wall_time() {
        let body = |ctx: &mut Ctx| {
            let s = ctx.all_reduce(ctx.rank() as u64 + 1, |a, b| a + b);
            ctx.charge_flops(1000.0);
            ctx.barrier();
            (s, ctx.now())
        };
        let plain = run_spmd(5, MachineModel::ibm_sp(), body);
        let ft = run_spmd_ft(
            5,
            MachineModel::ibm_sp(),
            FaultPlan::new(7),
            RunConfig::default(),
            body,
        );
        assert!(ft.all_ok());
        assert_eq!(ft.leaked_messages, 0);
        let results: Vec<_> = ft.results.into_iter().map(Result::unwrap).collect();
        assert_eq!(results, plain.results);
        assert_eq!(ft.rank_times, plain.rank_times);
        // Five ranks rendezvousing through an all-reduce and a barrier
        // take host time; the field must carry it, not a placeholder.
        assert!(ft.wall_us > 0, "fault-injected runs measure wall time");
        assert!(ft.traces.is_empty(), "untraced runs carry no streams");
    }

    #[test]
    fn traced_ft_runs_return_the_survivors_streams() {
        use crate::fault::CrashSite;
        let plan = FaultPlan::new(3).crash(2, CrashSite::Phase(0));
        let out = run_spmd_ft(
            4,
            MachineModel::ibm_sp(),
            plan,
            RunConfig::traced(),
            |ctx| {
                ctx.fault_point();
                ctx.trace_phase("work", "after the crash point");
                ctx.rank()
            },
        );
        let ranks: Vec<usize> = out.traces.iter().map(|t| t.rank).collect();
        assert_eq!(ranks, vec![0, 1, 3], "rank 2 crashed; the others report");
        for t in &out.traces {
            assert_eq!(t.phases().collect::<Vec<_>>(), vec!["work"]);
        }
    }

    #[test]
    fn run_config_default_is_run_spmd() {
        let cfg = RunConfig::default();
        assert!(cfg.pooled);
        assert!(cfg.check_leaks);
        assert!(!cfg.traced);
        assert_eq!(cfg.trace_capacity, DEFAULT_TRACE_CAPACITY);
        assert_eq!(RunConfig::virtual_time(), cfg);
        assert_eq!(RunConfig::real(), cfg);
        assert_eq!(RunConfig::traced(), cfg.with_tracing());
    }

    #[test]
    fn traced_runs_surface_per_rank_event_streams() {
        let cfg = RunConfig::traced();
        let out = run_spmd_with(3, MachineModel::ibm_sp(), cfg, |ctx| {
            let right = (ctx.rank() + 1) % ctx.nprocs();
            let left = (ctx.rank() + ctx.nprocs() - 1) % ctx.nprocs();
            ctx.send(right, 0, ctx.rank() as u64);
            ctx.recv::<u64>(left, 0)
        });
        let trace = out.trace.as_ref().expect("traced run must carry a trace");
        assert_eq!(trace.ranks.len(), 3);
        assert_eq!(trace.total_dropped(), 0);
        for rt in &trace.ranks {
            use crate::trace::TraceEvent;
            assert!(
                matches!(rt.events.first(), Some(TraceEvent::PoolDispatch { .. })),
                "dispatch must open rank {}'s stream",
                rt.rank
            );
            let sends = rt
                .events
                .iter()
                .filter(|e| matches!(e, TraceEvent::Send { .. }))
                .count();
            let recvs = rt
                .events
                .iter()
                .filter(|e| matches!(e, TraceEvent::Recv { .. }))
                .count();
            assert_eq!((sends, recvs), (1, 1), "ring body is one send, one recv");
        }
        // Untraced runs carry nothing.
        let plain = run_spmd(2, MachineModel::ibm_sp(), |ctx| ctx.rank());
        assert!(plain.trace.is_none());
    }

    #[test]
    fn trace_ring_capacity_drops_oldest_but_not_results() {
        let cfg = RunConfig::traced().with_trace_capacity(4);
        let out = run_spmd_with(2, MachineModel::ibm_sp(), cfg, |ctx| {
            let mut acc = 0u64;
            for i in 0..16u64 {
                if ctx.rank() == 0 {
                    ctx.send(1, i, i);
                } else {
                    acc += ctx.recv::<u64>(0, i);
                }
            }
            acc
        });
        assert_eq!(out.results[1], (0..16).sum::<u64>());
        let trace = out.trace.expect("traced");
        assert!(trace.total_dropped() > 0, "tiny ring must wrap");
        assert!(trace.ranks.iter().all(|r| r.events.len() <= 4));
    }

    #[test]
    #[should_panic(expected = "unreceived message")]
    fn leak_check_catches_a_lone_unreceived_send() {
        run_spmd(2, MachineModel::ibm_sp(), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 0, 1u8); // never received
            }
        });
    }

    #[test]
    #[should_panic(expected = "unreceived message")]
    fn leak_check_catches_unmatched_send() {
        run_spmd(2, MachineModel::ibm_sp(), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 0, 1u8);
                ctx.send(1, 0, 2u8); // never received
            } else {
                let _: u8 = ctx.recv(0, 0);
            }
        });
    }

    #[test]
    fn leaky_quiet_runs_do_not_poison_later_runs() {
        // A quiet run that leaves messages in flight must not hand its
        // dirty network to a subsequent same-size run.
        run_spmd_quiet(3, MachineModel::zero_comm(), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 77, vec![1u8, 2, 3]); // never received
            }
        });
        let out = run_spmd_quiet(3, MachineModel::zero_comm(), |ctx| {
            // If the dirty network were recycled, the stale tag-77 packet
            // could satisfy this receive with wrong data.
            if ctx.rank() == 1 {
                ctx.send(0, 5, 9u64);
            } else if ctx.rank() == 0 {
                return ctx.recv::<u64>(1, 5);
            }
            0
        });
        assert_eq!(out.results[0], 9);
    }

    #[test]
    #[should_panic]
    fn rank_panic_propagates() {
        run_spmd_quiet(3, MachineModel::ibm_sp(), |ctx| {
            if ctx.rank() == 1 {
                panic!("rank 1 exploded");
            }
            // Other ranks wait on rank 1 and observe its termination.
            let _: u8 = ctx.recv(1, 0);
        });
    }

    #[test]
    fn speedup_vs_divides() {
        let out = run_spmd(2, MachineModel::zero_comm(), |ctx| {
            ctx.charge_seconds(1.0);
        });
        assert!((out.speedup_vs(2.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn many_processes_work() {
        // 100 simulated processors on a small host: the point of the design.
        let out = run_spmd(100, MachineModel::intel_delta(), |ctx| {
            ctx.all_reduce(1u64, |a, b| a + b)
        });
        assert!(out.results.iter().all(|&v| v == 100));
    }
}
