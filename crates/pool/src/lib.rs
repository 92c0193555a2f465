#![deny(unsafe_code)]
#![warn(missing_docs)]

//! `le-pool` — a persistent, zero-dependency fork-join worker pool.
//!
//! PR 1 made the workspace hermetic by replacing rayon with scoped-thread
//! helpers that spawned and joined fresh OS threads inside every call. That
//! is correct but slow for the hot loops this workspace cares about: MD
//! force evaluation and NN training enter a parallel region thousands of
//! times per run, and per-call spawn/join overhead (tens of microseconds
//! per thread) dominates the actual work. This crate supplies the structure
//! rayon's persistent registry provides, built on `std` only:
//!
//! * **Persistent workers** — started once, lazily, behind a [`OnceLock`];
//!   no thread is ever spawned on the hot path.
//! * **Single-slot injector** — a dispatch posts one type-erased job under a
//!   mutex and wakes the workers; a worker that misses a job (it completed
//!   before the worker woke) simply goes back to sleep, so a dispatch never
//!   waits for a descheduled worker that has no work left to claim.
//! * **Chunk claiming** — parallel helpers divide work into chunks and
//!   threads claim chunk indices from a shared [`AtomicUsize`] cursor, so
//!   irregular workloads (nonuniform cell-list occupancy, skewed per-index
//!   cost) load-balance dynamically. The dispatching thread participates,
//!   so even if no worker wakes in time the job completes at full caller
//!   speed.
//! * **Index-ordered determinism** — results are stitched in chunk/index
//!   order, never in completion order, so every helper returns bit-identical
//!   results regardless of thread count or scheduling.
//! * **One dispatch path** — [`Pool::par_for_each`] alone decides whether a
//!   decomposition runs inline or on the workers, and alone emits the
//!   per-task trace span and fault-hook check; [`Pool::par_for_chunks`] and
//!   [`Pool::par_map_index`] are built on it.
//! * **Panic propagation** — a panic inside a job is caught on the worker,
//!   carried back, and resumed on the calling thread (as the sequential
//!   loop would have panicked), leaving the pool reusable.
//! * **Nested-call safety** — a parallel call from inside a pool job runs
//!   inline (sequentially) instead of deadlocking on the single job slot,
//!   and so does a dispatch from a second thread while the slot is taken.
//! * **Instrumented** — every dispatch records to the `le-obs` global
//!   registry: `le_pool.jobs` (dispatches), `le_pool.tasks_claimed`
//!   (cursor claims on the pooled path, also when a contended dispatch
//!   runs them on its caller; the inline path claims nothing),
//!   the `le_pool.job` span (dispatch wall time), `le_pool.worker_busy`
//!   (per-worker time inside a claimed job), and `le_pool.queue_wait`
//!   (post-to-claim latency per worker). These describe the *schedule*, so
//!   they legitimately vary with thread count — unlike metrics recorded by
//!   the parallel work itself, which merge exactly (see `le-obs`).
//! * **Causally traced** — every dispatch captures the submitting thread's
//!   [`le_obs::trace::TraceCtx`] into the job slot; workers adopt it before
//!   running, so trace events recorded inside pool work carry the
//!   `trace_id` of the phase that submitted the job. Each helper emits one
//!   `pool.task` trace span per task of its decomposition, on the inline
//!   path as well as the pooled one, so the event *structure* of a traced
//!   run is identical at every thread count (see `le-obs`'s canonical
//!   timeline).
//!
//! # Grain policy
//!
//! Dispatch on the persistent pool costs a few microseconds (one mutex
//! round-trip plus condvar wakeups). A decomposition with a single task
//! therefore runs inline, and `par_map_index` splits work into
//! [`MAP_CHUNKS`] chunks — a fixed number, *not* a function of the thread
//! count, so the decomposition (and therefore the trace event structure) is
//! identical at every `LE_POOL_THREADS` while still giving the claiming
//! cursor slack to load-balance skew without per-index cursor traffic.
//! Callers of [`Pool::par_for_chunks`] choose `chunk_len` so a chunk
//! amortizes ~10µs of work; hot call sites additionally gate on problem
//! size and fall back to their sequential loop below it.
//!
//! The thread count defaults to [`std::thread::available_parallelism`] and
//! can be overridden with the `LE_POOL_THREADS` environment variable (read
//! once, when the global pool is created). With one thread the pool spawns
//! no workers at all and every helper runs its tasks in order on the
//! caller, with no dispatch or wakeup cost on single-core hosts.
//!
//! The free functions ([`par_for_each`], [`par_map_index`], [`par_map`],
//! [`par_for_chunks`]) delegate to the process-wide [`Pool::global`]. Tests
//! that need to compare thread counts construct private pools with
//! [`Pool::with_threads`].

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Payload carried from a panicking worker back to the dispatcher.
type Panic = Box<dyn std::any::Any + Send + 'static>;

/// A type-erased reference to the current job closure. The lifetime is
/// erased to `'static` by [`erase`]; see the safety argument there.
type Job = &'static (dyn Fn() + Sync);

/// Chunk-count target for `par_map_index` (capped by `n`): enough slack for
/// the claiming cursor to rebalance skewed chunks on any realistic core
/// count, few enough that slot bookkeeping stays cheap. Deliberately a
/// constant rather than `threads * k`: the decomposition — and with it the
/// `pool.task` trace event structure — must not depend on the thread count.
pub const MAP_CHUNKS: usize = 32;

/// Slots of the stack array through which `par_for_chunks` hands chunks
/// to its tasks; a call with more chunks shares slots, so a call never
/// allocates.
const CHUNK_SLOTS: usize = 32;

thread_local! {
    /// True while this thread is executing inside a pool job (worker or
    /// participating dispatcher). Used to run nested parallel calls inline.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Deterministic single-shot worker-panic injection, armed by `le-faults`.
///
/// A countdown of pool tasks is armed once; each task executed while armed
/// decrements it, and the task that drains it panics — on whichever thread
/// claimed it — then the hook disarms itself. Because every decomposition
/// in this crate emits a thread-count-invariant task sequence (see the
/// crate docs), the panic lands in the *same dispatch* at any
/// `LE_POOL_THREADS`; the dispatch fails wholesale either way (inline: the
/// panic unwinds the caller's loop; pooled: `run_job` resumes the captured
/// payload), so supervised retries observe identical behaviour. The fast
/// path while disarmed is one relaxed atomic load.
pub mod fault {
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Sentinel meaning "no panic armed".
    const DISARMED: u64 = u64::MAX;

    static COUNTDOWN: AtomicU64 = AtomicU64::new(DISARMED);

    /// Arm a panic to fire on the `after_tasks`-th pool task from now
    /// (0 fires on the next task). Re-arming replaces any pending shot;
    /// `u64::MAX - 1` tasks is the largest supported delay.
    pub fn arm_worker_panic(after_tasks: u64) {
        COUNTDOWN.store(after_tasks.min(DISARMED - 1), Ordering::SeqCst);
    }

    /// Cancel a pending injected panic.
    pub fn disarm() {
        COUNTDOWN.store(DISARMED, Ordering::SeqCst);
    }

    /// True while a shot is pending.
    pub fn armed() -> bool {
        COUNTDOWN.load(Ordering::SeqCst) != DISARMED
    }

    /// Called once per pool task by [`crate::Pool::par_for_each`]. The
    /// disarmed fast path is a single inlined relaxed load so the hook
    /// stays invisible in the task-dispatch hot loop.
    #[inline(always)]
    pub(crate) fn check() {
        if COUNTDOWN.load(Ordering::Relaxed) != DISARMED {
            check_armed();
        }
    }

    #[cold]
    #[inline(never)]
    fn check_armed() {
        let prev = COUNTDOWN.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| match v {
            DISARMED => None,
            0 => Some(DISARMED),
            n => Some(n - 1),
        });
        if prev == Ok(0) {
            le_obs::counter!("faults.injected.worker_panic").inc();
            // The whole point of the hook: die exactly like a buggy task
            // body would, so the supervision layers above get exercised.
            panic!("le-pool: injected worker panic (armed by le-faults)"); // lint:allow(no-panic): deliberate fault injection
        }
    }
}

/// Shared pool state behind the mutex.
struct State {
    /// The single-slot injector: the job currently being executed, if any.
    job: Option<Job>,
    /// Started when the current job was posted; workers read it at claim
    /// time to record queue wait (`le_pool.queue_wait`).
    posted: Option<le_obs::Stopwatch>,
    /// The submitting thread's trace context, captured at dispatch; workers
    /// adopt it so pool work inherits the submitter's `trace_id`.
    ctx: le_obs::trace::TraceCtx,
    /// Bumped once per dispatch so sleeping workers can tell a fresh job
    /// from one they already ran (or missed).
    epoch: u64,
    /// Number of workers currently executing the posted job.
    active: usize,
    /// Set by `Drop` to terminate the worker loops.
    shutdown: bool,
    /// First panic payload captured from a worker during this job.
    panic: Option<Panic>,
}

/// State + condvars, shared between the pool handle and its workers.
struct Shared {
    state: Mutex<State>,
    /// Workers sleep here between jobs.
    work_cv: Condvar,
    /// The dispatcher sleeps here until `active` returns to zero.
    done_cv: Condvar,
}

/// A persistent fork-join worker pool. See the crate docs for the design.
pub struct Pool {
    shared: Arc<Shared>,
    /// Total threads participating in a job: spawned workers + the caller.
    threads: usize,
    /// Join handles, drained on `Drop` (the global pool never drops).
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// Recover a mutex guard whether or not another thread panicked while
/// holding the lock. Every critical section in this crate is a handful of
/// plain field updates, so the state is consistent even after a poisoning
/// panic — and worker panics are expected events we carry back to the
/// caller rather than reasons to abort.
fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Erase the lifetime of a job reference so it can sit in the shared slot.
///
/// SAFETY: the only writer of the slot is [`Pool::run_job`], which (a)
/// posts the reference, (b) does not return — even when the caller's share
/// of the job panics, via the [`Finish`] guard — until every worker that
/// claimed the job has finished with it, and (c) clears the slot before
/// returning. Workers only obtain the reference from the slot under the
/// state mutex, while it is `Some`, and increment `active` in the same
/// critical section, which is exactly what `Finish` waits on. Hence no
/// worker can observe the reference after `run_job` returns, and the
/// erased `'static` lifetime never outlives the real one.
#[allow(unsafe_code)]
fn erase<'a>(f: &'a (dyn Fn() + Sync)) -> Job {
    unsafe { std::mem::transmute::<&'a (dyn Fn() + Sync), Job>(f) }
}

/// RAII guard: when the dispatcher leaves `run_job` — normally or by panic
/// — wait for in-flight workers and clear the job slot.
struct Finish<'p> {
    shared: &'p Shared,
}

impl Finish<'_> {
    /// Wait for in-flight workers, clear the slot and take the job's first
    /// worker panic — in one critical section, so a dispatch posted next
    /// cannot reset that panic before its owner collects it.
    fn settle(&self) -> Option<Panic> {
        let mut st = relock(self.shared.state.lock());
        while st.active > 0 {
            st = relock(self.shared.done_cv.wait(st));
        }
        st.job = None;
        st.panic.take()
    }

    /// Settle on the normal path and hand the worker panic to the caller.
    fn finish(self) -> Option<Panic> {
        let panic = self.settle();
        std::mem::forget(self);
        panic
    }
}

impl Drop for Finish<'_> {
    fn drop(&mut self) {
        self.settle();
    }
}

/// Body of each spawned worker thread.
fn worker_loop(shared: &Shared) {
    let mut seen = 0u64;
    loop {
        // Sleep until a fresh job is posted (or shutdown). A job that
        // completed before we woke leaves `job == None` at a new epoch;
        // record the epoch and keep sleeping.
        let (job, ctx) = {
            let mut st = relock(shared.state.lock());
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    if let Some(job) = st.job {
                        st.active += 1;
                        if let Some(sw) = &st.posted {
                            static QUEUE_WAIT: OnceLock<le_obs::Span> = OnceLock::new();
                            QUEUE_WAIT
                                .get_or_init(|| le_obs::global().span("le_pool.queue_wait"))
                                .record_ns(sw.elapsed_ns());
                        }
                        break (job, st.ctx);
                    }
                }
                st = relock(shared.work_cv.wait(st));
            }
        };

        IN_POOL.with(|c| c.set(true));
        let result = {
            let _busy = le_obs::span!("le_pool.worker_busy");
            // Inherit the submitter's causal coordinates for the duration
            // of the job, so tasks traced on this thread carry its trace_id.
            let _ctx = ctx.adopt();
            catch_unwind(AssertUnwindSafe(|| job()))
        };
        IN_POOL.with(|c| c.set(false));

        let mut st = relock(shared.state.lock());
        if let Err(payload) = result {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

impl Pool {
    /// The process-wide pool, created on first use with [`default_threads`]
    /// participating threads.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::with_threads(default_threads()))
    }

    /// A private pool with `threads` participating threads (the calling
    /// thread counts as one, so `threads - 1` workers are spawned).
    /// Intended for tests that compare thread counts; production code uses
    /// the free functions and the global pool.
    pub fn with_threads(threads: usize) -> Pool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                job: None,
                posted: None,
                ctx: le_obs::trace::TraceCtx::NONE,
                epoch: 0,
                active: 0,
                shutdown: false,
                panic: None,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let mut handles = Vec::new();
        for k in 0..threads.saturating_sub(1) {
            let sh = Arc::clone(&shared);
            let builder = std::thread::Builder::new().name(format!("le-pool-{k}"));
            // A failed spawn (resource exhaustion) just means fewer
            // workers; the pool stays correct at any worker count.
            if let Ok(h) = builder.spawn(move || worker_loop(&sh)) {
                handles.push(h);
            }
        }
        let threads = handles.len() + 1;
        Pool {
            shared,
            threads,
            handles,
        }
    }

    /// Number of threads that participate in a parallel region (spawned
    /// workers plus the dispatching caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True when a dispatch from the current thread would run inline:
    /// single-threaded pool, or already inside a pool job (nested call).
    fn inline(&self) -> bool {
        self.threads == 1 || IN_POOL.with(|c| c.get())
    }

    /// Post `f` to the workers, run it on the caller too, wait for all
    /// claimants to finish, then propagate the first captured panic.
    ///
    /// If another thread's job already holds the single slot, `f` runs on
    /// the caller alone instead: every helper's claiming cursor completes
    /// its job with one participant, and posting over the slot would strand
    /// the first dispatcher's wait and hand it the wrong worker panic.
    fn run_job(&self, f: &(dyn Fn() + Sync)) {
        let _job_sp = le_obs::span!("le_pool.job");
        le_obs::counter!("le_pool.jobs").inc();
        let posted = {
            let mut st = relock(self.shared.state.lock());
            let free = st.job.is_none();
            if free {
                st.job = Some(erase(f));
                st.posted = Some(le_obs::Stopwatch::start());
                st.ctx = le_obs::trace::current_ctx();
                st.epoch = st.epoch.wrapping_add(1);
                st.panic = None;
                self.shared.work_cv.notify_all();
            }
            free
        };
        // From here on the guard ensures no return before every claiming
        // worker is done and the slot is cleared — the soundness condition
        // of `erase`, and the reason a caller panic cannot strand workers
        // on a dangling job reference.
        let guard = posted.then(|| Finish {
            shared: &self.shared,
        });
        IN_POOL.with(|c| c.set(true));
        let caller = catch_unwind(AssertUnwindSafe(|| f()));
        IN_POOL.with(|c| c.set(false));
        let worker_panic = guard.and_then(Finish::finish);
        if let Err(payload) = caller {
            resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
    }

    /// Run `f(0), f(1), …, f(n_tasks - 1)`, each exactly once, on whichever
    /// threads claim them first. Order of execution is unspecified — use
    /// the mapping helpers when results must be collected.
    ///
    /// This is the crate's one dispatch path: every other helper runs its
    /// tasks through it. A call goes to the workers only when it has more
    /// than one task and the pool is neither single-threaded nor already
    /// inside a job; otherwise the tasks run inline, in index order. Either
    /// way each task emits one `pool.task` trace span and one fault-hook
    /// check, so a traced run has the same event structure, and an armed
    /// worker panic the same ordinal, at every thread count.
    pub fn par_for_each<F>(&self, n_tasks: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let task = |i: usize| {
            let _t = le_obs::trace_span!("pool.task");
            fault::check();
            f(i);
        };
        if n_tasks < 2 || self.inline() {
            (0..n_tasks).for_each(&task);
            return;
        }
        let cursor = AtomicUsize::new(0);
        self.run_job(&|| loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n_tasks {
                break;
            }
            le_obs::counter!("le_pool.tasks_claimed").inc();
            task(i);
        });
    }

    /// Map `f` over `0..n` in parallel; results are returned in index
    /// order and are bit-identical to the sequential `(0..n).map(f)`
    /// regardless of thread count. The range is split into at most
    /// [`MAP_CHUNKS`] chunks, one task each.
    pub fn par_map_index<U, F>(&self, n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let chunk = n.div_ceil(n.min(MAP_CHUNKS));
        let mut parts: Vec<Vec<U>> = (0..n.div_ceil(chunk)).map(|_| Vec::new()).collect();
        self.par_for_chunks(&mut parts, 1, |c, part| {
            let lo = c * chunk;
            part[0] = (lo..(lo + chunk).min(n)).map(&f).collect();
        });
        let mut out = Vec::with_capacity(n);
        for part in parts {
            out.extend(part);
        }
        out
    }

    /// Map `f` over a slice in parallel; results come back in input order.
    pub fn par_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.par_map_index(items.len(), |i| f(&items[i]))
    }

    /// Split `data` into consecutive chunks of `chunk_len` elements (last
    /// chunk may be shorter) and run `f(start_index, chunk)` on each in
    /// parallel, one task per chunk. The decomposition depends only on
    /// `data.len()` and `chunk_len`, never on the thread count, and the
    /// call allocates nothing.
    pub fn par_for_chunks<T, F>(&self, data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let chunk_len = chunk_len.max(1);
        let tasks = data.len().div_ceil(chunk_len);
        // Slot `s` holds `per_slot` consecutive chunks and task `t` takes
        // the next chunk of slot `t / per_slot`, so every chunk runs once,
        // by one task (chunk `t` itself when there are at most
        // `CHUNK_SLOTS` chunks); `&mut` disjointness comes from
        // `chunks_mut`.
        let per_slot = tasks.div_ceil(CHUNK_SLOTS).max(1);
        let mut groups = data.chunks_mut(per_slot * chunk_len);
        let slots: [Mutex<_>; CHUNK_SLOTS] = std::array::from_fn(|_| {
            Mutex::new(groups.next().unwrap_or_default().chunks_mut(chunk_len).enumerate())
        });
        self.par_for_each(tasks, |t| {
            let s = t / per_slot;
            if let Some((i, chunk)) = relock(slots[s].lock()).next() {
                f((s * per_slot + i) * chunk_len, chunk);
            }
        });
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = relock(self.shared.state.lock());
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Thread count for the global pool: `LE_POOL_THREADS` if set to a positive
/// integer, otherwise the machine's available parallelism, otherwise 1.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("LE_POOL_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// [`Pool::par_for_each`] on the global pool.
pub fn par_for_each<F>(n_tasks: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    Pool::global().par_for_each(n_tasks, f)
}

/// [`Pool::par_map_index`] on the global pool.
pub fn par_map_index<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    Pool::global().par_map_index(n, f)
}

/// [`Pool::par_map`] on the global pool.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    Pool::global().par_map(items, f)
}

/// [`Pool::par_for_chunks`] on the global pool.
pub fn par_for_chunks<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    Pool::global().par_for_chunks(data, chunk_len, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic skewed per-index work: burn an index-dependent number
    /// of FLOPs and return a value that depends on every iteration, so the
    /// optimizer cannot collapse the imbalance.
    fn skewed_work(i: usize) -> f64 {
        let rounds = 1 + (i % 13) * 40;
        let mut acc = (i as f64) * 1e-3 + 1.0;
        for _ in 0..rounds {
            acc = (acc * 1.000001).sin().abs() + 1.0e-9;
        }
        acc
    }

    #[test]
    fn par_map_index_matches_sequential() {
        let pool = Pool::with_threads(4);
        let seq: Vec<usize> = (0..100).map(|i| i * i).collect();
        assert_eq!(pool.par_map_index(100, |i| i * i), seq);
    }

    #[test]
    fn par_map_preserves_input_order() {
        let pool = Pool::with_threads(3);
        let items: Vec<i64> = (0..57).map(|i| i - 20).collect();
        let out = pool.par_map(&items, |x| x * 3);
        let seq: Vec<i64> = items.iter().map(|x| x * 3).collect();
        assert_eq!(out, seq);
    }

    #[test]
    fn empty_and_single_inputs() {
        let pool = Pool::with_threads(4);
        assert_eq!(pool.par_map_index(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.par_map_index(1, |i| i + 7), vec![7]);
        pool.par_for_each(0, |_| {});
        let mut empty: [u8; 0] = [];
        pool.par_for_chunks(&mut empty, 4, |_, _| {});
    }

    #[test]
    fn determinism_under_forced_load_imbalance() {
        // Same skewed workload across thread counts: outputs must be
        // bitwise identical because results are stitched by index, not by
        // completion order.
        let reference: Vec<f64> = (0..257).map(skewed_work).collect();
        for threads in [1, 2, 4, 7] {
            let pool = Pool::with_threads(threads);
            for _ in 0..3 {
                let out = pool.par_map_index(257, skewed_work);
                let same = out.iter().zip(&reference).all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "bitwise mismatch at {threads} threads");
            }
        }
    }

    #[test]
    fn par_for_each_runs_every_task_exactly_once() {
        let pool = Pool::with_threads(5);
        let counts: Vec<AtomicUsize> = (0..311).map(|_| AtomicUsize::new(0)).collect();
        pool.par_for_each(311, |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_for_chunks_covers_all_elements() {
        let pool = Pool::with_threads(4);
        let mut data = vec![0usize; 103];
        pool.par_for_chunks(&mut data, 10, |start, chunk| {
            for (k, x) in chunk.iter_mut().enumerate() {
                *x = start + k;
            }
        });
        let seq: Vec<usize> = (0..103).collect();
        assert_eq!(data, seq);
        // More chunks than slots: slots share chunks, each still runs once.
        let mut data = vec![0usize; 1000];
        pool.par_for_chunks(&mut data, 7, |start, chunk| {
            for (k, x) in chunk.iter_mut().enumerate() {
                *x += start + k;
            }
        });
        let seq: Vec<usize> = (0..1000).collect();
        assert_eq!(data, seq);
    }

    #[test]
    fn panic_propagates_and_pool_stays_usable() {
        let pool = Pool::with_threads(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.par_for_each(64, |i| {
                if i == 33 {
                    panic!("boom at {i}");
                }
            });
        }));
        assert!(result.is_err(), "worker panic must reach the caller");
        // The pool must survive a propagated panic and keep producing
        // correct results.
        let seq: Vec<usize> = (0..50).map(|i| i + 1).collect();
        assert_eq!(pool.par_map_index(50, |i| i + 1), seq);
    }

    #[test]
    fn nested_calls_do_not_deadlock() {
        let pool = Pool::global();
        let out = pool.par_map_index(8, |i| {
            // Inner call runs inline on whichever thread executes index i.
            let inner: usize = pool.par_map_index(8, |j| i * j).iter().sum();
            inner
        });
        let expect: Vec<usize> = (0..8).map(|i| (0..8).map(|j| i * j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn with_threads_reports_actual_count() {
        let pool = Pool::with_threads(3);
        assert!(pool.threads() >= 1 && pool.threads() <= 3);
        let single = Pool::with_threads(1);
        assert_eq!(single.threads(), 1);
    }
}
