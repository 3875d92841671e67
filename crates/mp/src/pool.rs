//! Persistent worker pool for the SPMD runner.
//!
//! The seed runner spawned `nprocs` fresh OS threads per [`crate::run_spmd`]
//! call, so benches and services invoking it in a loop paid n×thread-spawn
//! per invocation — more than the archetype body itself for small runs.
//! This pool keeps workers alive across calls: a dispatch hands each rank
//! to an already-running thread through that thread's private channel.
//!
//! Every rank of an SPMD run *blocks* on receives from its peers, so a
//! batch of `n` ranks needs `n` threads running concurrently — a
//! fixed-size pool with a shared queue would deadlock (queued ranks would
//! wait forever on running ranks that wait on them). Dispatch therefore
//! *reserves* one worker per rank up front, growing the pool when fewer
//! workers are idle, and never multiplexes two runs onto one thread.
//!
//! # Batched bookkeeping
//!
//! All per-batch coordination goes through one `Batch` object, sized so
//! a 16-rank dispatch costs O(1) lock rounds rather than O(n):
//!
//! * A finishing worker takes the batch lock once: it bumps the completion
//!   count and parks its own handle in the batch's `returned` list — it
//!   does **not** touch the global idle pool, and it notifies the (single)
//!   dispatcher only when it is the batch's last completion, so a batch
//!   costs one condvar wake total instead of one `notify_all` per job.
//! * The dispatcher collects the batch (wait for the last completion, take
//!   the returned handles) and then re-registers all of them in **one**
//!   global idle-pool lock round, trimming to `MAX_IDLE_WORKERS` inside
//!   that same critical section. The cap is thus enforced *at
//!   re-registration time*: the idle set can never be observed above the
//!   cap, no matter how batches interleave (the old opportunistic
//!   post-batch `trim_idle` could leave re-registering workers above the
//!   cap indefinitely if no later batch ran).
//!
//! Worker channels are the transport's SPSC queues: a worker's handle is
//! owned by exactly one dispatcher at a time (handed off through the idle
//! or batch mutex), so sends are naturally serialized, which is the
//! queue's single-producer contract.
//!
//! # One broadcast wake per dispatch
//!
//! Idle workers do not park inside their private queue (which would cost
//! the dispatcher one mutex + condvar wake — a futex syscall — *per
//! worker*). Instead they poll their queue with `try_recv` and park on a
//! single process-wide `Roster` condvar. A dispatch then publishes all
//! `n` jobs wake-free, issues one fence, and wakes the whole batch with a
//! single `notify_all` — O(1) syscalls per dispatch instead of O(n). The
//! usual lost-wake argument applies unchanged: a worker re-checks its
//! queue *while holding the roster mutex* before waiting, and the
//! dispatcher takes that same mutex (empty critical section) after
//! publishing, so the worker either sees the job or is already waiting
//! when the broadcast lands. Workers not addressed by a dispatch re-check
//! an empty queue and go back to sleep; the herd is bounded by
//! `MAX_IDLE_WORKERS`.
//!
//! # Scoped jobs
//!
//! Jobs borrow the caller's stack (the SPMD body is `Fn(&mut Ctx) -> R`
//! with no `'static` bound), so `run_scoped` erases their lifetime to
//! hand them to the pool and then **blocks until every delivered job has
//! completed** before returning — the same contract as
//! `std::thread::scope`, with the threads outliving the scope instead of
//! being torn down. The wait is enforced by a drop guard, so it holds
//! even if dispatch itself unwinds mid-batch: the guard lowers the
//! batch's expected count to the number of jobs actually delivered and
//! waits for exactly those.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::Duration;

use crate::transport::{publish_fence, spsc_channel, SpscReceiver, SpscSender};

/// Lock a mutex, tolerating poison. The pool's shared state (idle list,
/// batch bookkeeping) stays consistent across a panic — every critical
/// section is a push/pop or a counter bump — so a panicked rank must not
/// wedge or abort every later dispatch in the process.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A lifetime-erased unit of work.
struct Job(Box<dyn FnOnce() + Send + 'static>);

/// What a worker thread receives on its private channel.
enum Msg {
    /// Execute the job, then report completion into the batch.
    Run(Job, Arc<Batch>),
    /// Leave the pool (idle-set trim); the thread exits.
    Exit,
}

/// Handle to one idle worker thread: the send side of its private queue.
/// Owned by exactly one dispatcher at a time — every transfer goes
/// through the idle-pool or batch mutex, which is what serializes sends
/// on the underlying SPSC channel.
struct Worker {
    tx: SpscSender<Msg>,
}

impl Worker {
    /// Publish a job wake-free. The caller owes the batch one
    /// [`publish_fence`] + [`roster_broadcast`] before blocking on
    /// anything (module docs: one broadcast wake per dispatch).
    fn run_publish(&self, job: Job, batch: Arc<Batch>) {
        // SAFETY: this handle is exclusively owned and handed between
        // dispatchers through mutexes, so sends are never concurrent.
        unsafe {
            self.tx
                .send_publish(Msg::Run(job, batch))
                .unwrap_or_else(|_| panic!("worker thread alive"));
        }
    }

    /// Publish an exit request wake-free; same broadcast debt as
    /// [`Worker::run_publish`].
    fn exit_publish(self) {
        // SAFETY: as for `run_publish`. A worker that somehow vanished
        // already satisfies the trim's goal, so the error is ignored.
        let _ = unsafe { self.tx.send_publish(Msg::Exit) };
    }
}

/// The shared parking spot for every idle worker (module docs): one
/// mutex + condvar pair, so a dispatch wakes its whole batch with a
/// single `notify_all`.
struct Roster {
    gate: Mutex<()>,
    wake: Condvar,
}

static ROSTER: OnceLock<Roster> = OnceLock::new();

fn roster() -> &'static Roster {
    ROSTER.get_or_init(|| Roster {
        gate: Mutex::new(()),
        wake: Condvar::new(),
    })
}

/// Wake every parked worker. The empty critical section is the
/// producer half of the lost-wake handshake: acquiring the gate after
/// publishing guarantees any worker that saw an empty queue under the
/// gate is already in `wait` when the notify lands.
fn roster_broadcast() {
    let r = roster();
    drop(lock_unpoisoned(&r.gate));
    r.wake.notify_all();
}

/// Worker side: next message off the private queue, parking on the
/// shared roster while it is empty. `None` once every sender is gone.
fn next_msg(rx: &SpscReceiver<Msg>) -> Option<Msg> {
    loop {
        match rx.try_recv() {
            Ok(Some(m)) => return Some(m),
            Err(_) => return None,
            Ok(None) => {}
        }
        let r = roster();
        let guard = lock_unpoisoned(&r.gate);
        match rx.try_recv() {
            Ok(Some(m)) => return Some(m),
            Err(_) => return None,
            Ok(None) => {
                // The timeout is belt-and-braces only (it also bounds how
                // long a worker outlives a sender dropped without an
                // explicit Exit, whose disconnect wake targets the
                // queue's own — unused — condvar).
                let (g, _) = r
                    .wake
                    .wait_timeout(guard, Duration::from_millis(5))
                    .unwrap_or_else(PoisonError::into_inner);
                drop(g);
            }
        }
    }
}

/// Idle workers kept after a batch; anything above this is told to exit
/// during re-registration. Dispatches larger than the cap still run (the
/// pool grows to whatever a batch needs) — only the *retained* idle set
/// is bounded.
const MAX_IDLE_WORKERS: usize = 256;

static IDLE: OnceLock<Mutex<Vec<Worker>>> = OnceLock::new();

fn idle() -> &'static Mutex<Vec<Worker>> {
    IDLE.get_or_init(|| Mutex::new(Vec::new()))
}

/// Per-batch bookkeeping shared between the dispatcher and its workers.
/// All locking is poison-tolerant — it must stay operational while the
/// very panic it exists to report is unwinding through it.
struct Batch {
    state: Mutex<BatchState>,
    /// Signalled (once, by the batch's last completion) to wake the one
    /// collecting dispatcher.
    done: Condvar,
}

struct BatchState {
    /// Completions the collector is waiting for. Starts at the planned
    /// batch size; the collector lowers it to the *delivered* count if
    /// dispatch unwound mid-batch, so the last actually-delivered job
    /// still produces the wake.
    expected: usize,
    /// Jobs that have finished, by any route.
    completed: usize,
    /// Of those, jobs that finished by *unwinding* — the failure marker.
    panicked: usize,
    /// Handles of the workers that ran this batch, parked here until the
    /// collector re-registers them globally in one lock round.
    returned: Vec<Worker>,
}

impl Batch {
    fn new(expected: usize) -> Arc<Batch> {
        Arc::new(Batch {
            state: Mutex::new(BatchState {
                expected,
                completed: 0,
                panicked: 0,
                returned: Vec::with_capacity(expected),
            }),
            done: Condvar::new(),
        })
    }

    /// Worker side: one lock round reporting completion and parking the
    /// worker's handle; wakes the collector only on the last completion.
    fn complete(&self, worker: Worker, panicked: bool) {
        let mut state = lock_unpoisoned(&self.state);
        state.completed += 1;
        if panicked {
            state.panicked += 1;
        }
        state.returned.push(worker);
        if state.completed >= state.expected {
            // Single waiter (the dispatcher), hence notify_one.
            self.done.notify_one();
        }
    }

    /// Dispatcher side: wait until all `delivered` jobs have completed,
    /// then hand every parked worker back in one global idle-pool lock
    /// round. Returns how many jobs finished by unwinding.
    fn collect(&self, delivered: usize) -> usize {
        let (panicked, returned) = {
            let mut state = lock_unpoisoned(&self.state);
            // Lower the target if dispatch delivered fewer jobs than
            // planned (unwind mid-batch): completions past `delivered`
            // will never come, and the ones at or below it re-check
            // against the lowered value.
            state.expected = delivered;
            while state.completed < delivered {
                state = self
                    .done
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            (state.panicked, std::mem::take(&mut state.returned))
        };
        reregister(returned);
        panicked
    }
}

/// Return a batch's workers to the global idle pool — one lock round for
/// the whole batch — enforcing `MAX_IDLE_WORKERS` inside the same
/// critical section, so the cap holds at every instant.
fn reregister(mut workers: Vec<Worker>) {
    let mut excess = Vec::new();
    {
        let mut pool = lock_unpoisoned(idle());
        pool.append(&mut workers);
        while pool.len() > MAX_IDLE_WORKERS {
            excess.extend(pool.pop());
        }
    }
    // Exit messages go out after the lock is released: publish them all,
    // then one fence + one broadcast for the whole trim.
    if !excess.is_empty() {
        for worker in excess {
            worker.exit_publish();
        }
        publish_fence();
        roster_broadcast();
    }
}

fn spawn_worker() -> Worker {
    let (tx, rx) = spsc_channel::<Msg>();
    let own_tx = tx.clone();
    std::thread::Builder::new()
        .name("spmd-worker".into())
        .spawn(move || {
            // Exits on Msg::Exit or when every sender handle is gone.
            while let Some(Msg::Run(Job(f), batch)) = next_msg(&rx) {
                // Jobs built by `run_scoped` never unwind (they wrap
                // the body in catch_unwind); this outer catch only
                // keeps the worker alive if that invariant is ever
                // broken, and the escape is reported through the
                // batch's panicked count so the dispatcher observes
                // the failed job rather than hanging.
                let panicked = catch_unwind(AssertUnwindSafe(f)).is_err();
                if panicked {
                    eprintln!("spmd-worker: job escaped its panic guard");
                }
                // The job (and everything it borrowed) is dropped by
                // now; parking our handle in the batch is what lets
                // the dispatcher's collect unblock.
                batch.complete(Worker { tx: own_tx.clone() }, panicked);
            }
        })
        .expect("spawn spmd worker thread");
    Worker { tx }
}

/// Number of worker threads currently idle (diagnostics / tests). Never
/// exceeds `MAX_IDLE_WORKERS`: re-registration trims inside the same
/// lock round that pushes.
pub fn idle_workers() -> usize {
    lock_unpoisoned(idle()).len()
}

/// Collects the batch on drop, so the borrows erased by `run_scoped`'s
/// transmute stay alive until every delivered job is done even if
/// dispatch unwinds mid-batch.
struct CollectOnDrop {
    batch: Arc<Batch>,
    delivered: usize,
    armed: bool,
}

impl Drop for CollectOnDrop {
    fn drop(&mut self) {
        if self.armed {
            // Dispatch unwound before the normal fence + broadcast ran,
            // so the jobs delivered so far were published wake-free; pay
            // the wake debt before blocking on their completions.
            publish_fence();
            roster_broadcast();
            self.batch.collect(self.delivered);
        }
    }
}

/// Run `jobs` concurrently — one dedicated worker per job — and return
/// once all of them have finished. Jobs may borrow from the caller's
/// stack; panics inside a job should be contained by the job itself (the
/// runner wraps every rank in `catch_unwind` and reports the failure
/// after the batch completes). A job that unwinds anyway still counts as
/// a completion — with a failure marker — so the batch can never
/// deadlock; the returned count says how many jobs escaped that way (0
/// normally).
pub(crate) fn run_scoped(jobs: Vec<Box<dyn FnOnce() + Send + '_>>) -> usize {
    let n = jobs.len();
    if n == 0 {
        return 0;
    }
    let batch = Batch::new(n);
    let mut guard = CollectOnDrop {
        batch: Arc::clone(&batch),
        delivered: 0,
        armed: true,
    };

    // Reserve one worker per job before dispatching anything: ranks
    // block on each other, so partial dispatch onto too few threads
    // would deadlock. One idle-pool lock round for the whole batch.
    let mut workers = {
        let mut pool = lock_unpoisoned(idle());
        let keep = pool.len() - n.min(pool.len());
        pool.split_off(keep)
    };
    while workers.len() < n {
        workers.push(spawn_worker());
    }
    for (worker, job) in workers.into_iter().zip(jobs) {
        // SAFETY: the transmute only erases the borrow lifetimes inside
        // the job. Each delivered job reports exactly one completion to
        // `batch` (normal return or unwind — the worker's catch_unwind
        // guarantees the loop reaches `complete`), `guard.delivered`
        // counts it, and the guard blocks this frame until that many
        // completions arrive — so everything the job borrows outlives
        // its execution. The worker drops the job before reporting.
        let job: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(job) };
        worker.run_publish(Job(job), Arc::clone(&batch));
        guard.delivered += 1;
    }
    // One fence + one broadcast wakes the whole batch (module docs).
    publish_fence();
    roster_broadcast();
    // Normal path: collect directly so the panicked count is returned;
    // the guard only fires when dispatch itself unwound.
    guard.armed = false;
    batch.collect(guard.delivered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn jobs_run_and_scope_waits() {
        let hits = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..32)
            .map(|_| {
                Box::new(|| {
                    hits.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        run_scoped(jobs);
        assert_eq!(hits.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn workers_are_reused_across_batches() {
        // Record which OS threads execute a batch; a later batch reusing
        // any of them proves pooling. Re-registration is *synchronous* —
        // run_scoped returns only after its workers are back in the idle
        // pool — so back-to-back batches reuse threads deterministically.
        // The pool is process-global, though, and a concurrent test can
        // legitimately snatch our workers between the two batches, so
        // absorb that (and only that) with bounded retries — no sleeps.
        use std::collections::HashSet;
        use std::sync::Mutex;
        let batch = |k: usize| -> HashSet<std::thread::ThreadId> {
            let seen = Mutex::new(HashSet::new());
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..k)
                .map(|_| {
                    Box::new(|| {
                        seen.lock().unwrap().insert(std::thread::current().id());
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            run_scoped(jobs);
            seen.into_inner().unwrap()
        };
        for _attempt in 0..64 {
            let first = batch(8);
            let second = batch(8);
            if first.intersection(&second).next().is_some() {
                return; // at least one worker thread was reused
            }
        }
        panic!("no worker thread was reused across 64 back-to-back batch pairs");
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        assert_eq!(run_scoped(Vec::new()), 0);
    }

    #[test]
    fn panicking_job_signals_failure_instead_of_deadlocking() {
        // A raw panicking job escapes the worker's guard; the batch must
        // still complete (no deadlock) and report the escape.
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
            Box::new(|| {}) as Box<dyn FnOnce() + Send + '_>,
            Box::new(|| panic!("job exploded")) as Box<dyn FnOnce() + Send + '_>,
            Box::new(|| {}) as Box<dyn FnOnce() + Send + '_>,
        ];
        assert_eq!(run_scoped(jobs), 1);
        // The pool remains fully usable afterwards.
        let hits = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..8)
            .map(|_| {
                Box::new(|| {
                    hits.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        assert_eq!(run_scoped(jobs), 0);
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn idle_set_is_bounded_after_large_batches() {
        // A batch far above the retention cap must not pin its workers.
        // The cap is enforced inside the re-registration lock round that
        // run_scoped performs before returning, so this asserts
        // immediately — no sleeps, no retries. (Concurrent tests can only
        // *remove* workers or push-and-trim under the same invariant, so
        // the bound holds at every instant.)
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..MAX_IDLE_WORKERS + 40)
            .map(|_| Box::new(|| {}) as Box<dyn FnOnce() + Send + '_>)
            .collect();
        run_scoped(jobs);
        assert!(
            idle_workers() <= MAX_IDLE_WORKERS,
            "idle workers above the cap after re-registration: {}",
            idle_workers()
        );
    }

    #[test]
    fn nested_dispatch_does_not_deadlock() {
        // A job that itself dispatches a batch must reserve distinct
        // workers (the pool never multiplexes), so nesting completes.
        let hits = AtomicUsize::new(0);
        let outer: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
            .map(|_| {
                Box::new(|| {
                    let inner: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                        .map(|_| {
                            Box::new(|| {
                                hits.fetch_add(1, Ordering::Relaxed);
                            }) as Box<dyn FnOnce() + Send + '_>
                        })
                        .collect();
                    run_scoped(inner);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        run_scoped(outer);
        assert_eq!(hits.load(Ordering::Relaxed), 16);
    }
}
