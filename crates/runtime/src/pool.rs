//! The persistent, deterministic worker pool.
//!
//! The period loop used to spawn `std::thread::scope` workers every
//! scheduling period — tens of microseconds of spawn/join cost per period,
//! multiplied by every period of every session.  [`WorkerPool`] replaces
//! that with long-lived worker threads that park between jobs, amortising
//! thread creation to **zero per period**, and implements the
//! [`JobExecutor`] contract so the same pool serves all three fan-out call
//! sites: the per-period scheduling sweep (`fss-gossip`), multi-channel
//! session stepping ([`SessionManager`](crate::SessionManager)) and scenario
//! sweeps (`fss-experiments`).
//!
//! # Determinism model
//!
//! Workers *steal chunks dynamically* (a shared cursor), which is the
//! fastest schedule — yet results are byte-identical for every pool size,
//! including the size-1 in-line pool, because of two invariants inherited
//! from the [`ScopedJob`] contract:
//!
//! 1. **chunk-pinned state** — a chunk writes only to state indexed by its
//!    *chunk index* (a scratch slot, a result slot), never to per-thread or
//!    shared state, so the thread→chunk assignment is unobservable;
//! 2. **completion barrier** — [`execute`](WorkerPool::execute) returns only
//!    after every chunk finished, so callers can merge chunk outputs in
//!    chunk order, reproducing the sequential order exactly.
//!
//! # Hot-path properties
//!
//! Dispatching a job publishes one raw (lifetime-erased) trait-object
//! pointer under a mutex and wakes the workers — no boxing, no channel
//! nodes, **no heap allocation**.  The zero-allocation test in `fss-bench`
//! covers the pool-backed parallel period loop.  A pool of size `n` runs
//! `n - 1` background threads; the submitting thread participates in chunk
//! execution, so `WorkerPool::new(1)` spawns nothing and degrades to an
//! in-line loop.
//!
//! A panicking chunk does not poison the pool: the panic is caught on the
//! worker, the job is still driven to completion, and the payload is
//! re-thrown on the submitting thread.

#![expect(
    clippy::expect_used,
    reason = "lock-poisoning expects: a panicked worker has already lost the deterministic run, so propagating the panic is the only sound continuation"
)]

use fss_sim::exec::{JobExecutor, ScopedJob};
use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

thread_local! {
    /// True while this thread is executing a pool chunk.  A nested
    /// `execute` from inside a chunk (e.g. a channel's scheduling sweep
    /// dispatched from a session-stepping chunk) runs in-line instead of
    /// deadlocking on the busy pool — byte-identical by the `ScopedJob`
    /// contract.
    static IN_CHUNK: Cell<bool> = const { Cell::new(false) };
}

/// Lifetime-erased pointer to the job being executed.
///
/// Sound because [`WorkerPool::execute`] never returns before every chunk
/// has finished, so the borrow it erases strictly outlives all uses.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn ScopedJob + 'static));

// SAFETY: `ScopedJob: Sync`, so the underlying reference may be used from
// any thread; the pointer itself is only a capability to re-create that
// shared reference while `execute` blocks.
unsafe impl Send for JobPtr {}

/// State shared between the submitter and the workers, guarded by one mutex.
struct PoolState {
    /// The job currently being executed, if any.
    job: Option<JobPtr>,
    /// Total chunks of the current job.
    chunks: usize,
    /// Next chunk index to claim (the dynamic-stealing cursor).
    next_chunk: usize,
    /// Chunks that have finished running.
    finished: usize,
    /// First panic payload observed while running the current job.
    panic: Option<Box<dyn Any + Send + 'static>>,
    /// Set once, on drop: workers exit their loop.
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers wait here for a new job (or shutdown).
    work_cv: Condvar,
    /// The submitter waits here for the last chunk to finish.
    done_cv: Condvar,
}

/// A persistent pool of worker threads executing [`ScopedJob`]s.
///
/// See the module docs for the determinism model.  The pool is meant to be
/// created once per process (or per experiment) and shared via
/// [`Arc`]: `StreamingSystem::set_executor`, the
/// [`SessionManager`](crate::SessionManager) and
/// `fss_experiments::sweep_sizes_on` all borrow the same pool.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Jobs dispatched so far (in-line or fanned out) — an observability
    /// counter for benchmarks comparing execution strategies.
    dispatches: AtomicU64,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool of `workers` total workers (the submitting thread
    /// counts as one, so `workers - 1` background threads are spawned;
    /// `new(1)` spawns none and executes jobs in-line).
    ///
    /// # Panics
    /// Panics if `workers` is zero or a worker thread cannot be spawned.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "a worker pool needs at least one worker");
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                job: None,
                chunks: 0,
                next_chunk: 0,
                finished: 0,
                panic: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (1..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fss-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            dispatches: AtomicU64::new(0),
        }
    }

    /// Creates a pool sized to the machine (`available_parallelism`, at
    /// least 1).
    pub fn with_available_parallelism() -> Self {
        Self::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// Total worker count (background threads + the submitting thread).
    pub fn workers(&self) -> usize {
        self.handles.len() + 1
    }

    /// Number of non-empty jobs dispatched through this pool so far
    /// (in-line fast-path jobs included).  Purely observational: session
    /// stepping pays one dispatch per pipeline *round* — one per period at
    /// run-ahead 1 (lockstep), fewer when channels run ahead — and this
    /// counter is how tests and benchmarks report that without wall-clock
    /// noise.
    pub fn dispatches(&self) -> u64 {
        self.dispatches.load(Ordering::Relaxed)
    }

    /// Shares the pool as a [`JobExecutor`] trait object, the form
    /// `StreamingSystem::set_executor` takes.
    pub fn as_executor(self: &Arc<Self>) -> Arc<dyn JobExecutor> {
        Arc::clone(self) as Arc<dyn JobExecutor>
    }

    /// Runs all `chunks` of `job` and returns once every chunk finished.
    ///
    /// The submitting thread participates in chunk execution.  A nested
    /// call from inside a chunk runs in-line (no deadlock); concurrent
    /// submitters from other threads queue for the job slot.  If any chunk
    /// panicked, the first payload is re-thrown here after the job has
    /// fully drained (the pool itself stays usable).
    ///
    /// # Panics
    /// Re-throws the first chunk panic.
    pub fn execute(&self, chunks: usize, job: &dyn ScopedJob) {
        if chunks == 0 {
            return;
        }
        self.dispatches.fetch_add(1, Ordering::Relaxed);
        if self.handles.is_empty() || chunks == 1 || IN_CHUNK.with(Cell::get) {
            // In-line path: nothing worth handing to background workers, or
            // a nested dispatch from inside a chunk of this (or another)
            // pool — running serially is byte-identical either way.
            for chunk in 0..chunks {
                job.run_chunk(chunk);
            }
            return;
        }

        // Publish the job.  SAFETY (of the transmute): this function blocks
        // until `finished == chunks`, and workers never touch the pointer
        // after finishing their last chunk, so the erased borrow outlives
        // every dereference.
        let ptr = JobPtr(unsafe {
            std::mem::transmute::<*const (dyn ScopedJob + '_), *const (dyn ScopedJob + 'static)>(
                job as *const dyn ScopedJob,
            )
        });
        {
            let mut state = self.shared.state.lock().expect("pool mutex");
            // Another submitting thread may be mid-job; queue behind it.
            while state.job.is_some() {
                state = self.shared.done_cv.wait(state).expect("pool mutex");
            }
            state.job = Some(ptr);
            state.chunks = chunks;
            state.next_chunk = 0;
            state.finished = 0;
            debug_assert!(state.panic.is_none());
        }
        // The submitting thread takes chunks too, so at most `chunks - 1`
        // background workers can find work: waking more would only cost
        // spurious context switches on small jobs.
        if chunks > self.handles.len() {
            self.shared.work_cv.notify_all();
        } else {
            for _ in 0..chunks - 1 {
                self.shared.work_cv.notify_one();
            }
        }

        // Participate, then wait for the stragglers.  Only this thread can
        // clear the job slot it published, so `finished`/`chunks` cannot be
        // recycled by a queued submitter while we wait.
        let state = self.shared.state.lock().expect("pool mutex");
        let mut state = run_chunks(state, &self.shared, ptr);
        while state.finished < state.chunks {
            state = self.shared.done_cv.wait(state).expect("pool mutex");
        }
        state.job = None;
        let panic = state.panic.take();
        // Wake any submitter queued for the job slot.
        self.shared.done_cv.notify_all();
        drop(state);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

impl JobExecutor for WorkerPool {
    fn execute(&self, chunks: usize, job: &dyn ScopedJob) {
        WorkerPool::execute(self, chunks, job);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool mutex");
            state.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Claims and runs chunks of the current job until the cursor is exhausted.
/// Entered and exited holding the state lock; the lock is released around
/// each chunk execution.
fn run_chunks<'a>(
    mut state: MutexGuard<'a, PoolState>,
    shared: &'a Shared,
    job: JobPtr,
) -> MutexGuard<'a, PoolState> {
    while state.next_chunk < state.chunks {
        let chunk = state.next_chunk;
        state.next_chunk += 1;
        drop(state);
        // SAFETY: the submitter blocks in `execute` until every chunk
        // finished, so the job reference is live for the whole run.
        let result = catch_unwind(AssertUnwindSafe(|| {
            IN_CHUNK.with(|flag| flag.set(true));
            unsafe { (*job.0).run_chunk(chunk) };
            IN_CHUNK.with(|flag| flag.set(false));
        }));
        if result.is_err() {
            // The panic unwound past the reset above.
            IN_CHUNK.with(|flag| flag.set(false));
        }
        state = shared.state.lock().expect("pool mutex");
        state.finished += 1;
        if let Err(payload) = result {
            state.panic.get_or_insert(payload);
        }
        if state.finished == state.chunks {
            shared.done_cv.notify_all();
        }
    }
    state
}

fn worker_loop(shared: &Shared) {
    let mut state = shared.state.lock().expect("pool mutex");
    loop {
        if state.shutdown {
            return;
        }
        if let Some(job) = state.job.filter(|_| state.next_chunk < state.chunks) {
            state = run_chunks(state, shared, job);
        } else {
            state = shared.work_cv.wait(state).expect("pool mutex");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fss_sim::exec::DisjointSlots;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn fill_slots(pool: &WorkerPool, chunks: usize) -> Vec<usize> {
        let mut out = vec![0usize; chunks];
        let slots = DisjointSlots::new(&mut out);
        pool.execute(chunks, &|i: usize| {
            // SAFETY: chunk i touches only slot i.
            let slot = unsafe { slots.slot(i) };
            *slot = i * i;
        });
        out
    }

    #[test]
    fn results_are_identical_across_pool_sizes() {
        let expected: Vec<usize> = (0..37).map(|i| i * i).collect();
        for workers in [1, 2, 4, 7] {
            let pool = WorkerPool::new(workers);
            assert_eq!(pool.workers(), workers);
            assert_eq!(fill_slots(&pool, 37), expected, "workers = {workers}");
        }
    }

    #[test]
    fn pool_is_reusable_across_jobs() {
        let pool = WorkerPool::new(4);
        for round in 0..50 {
            let hits = AtomicUsize::new(0);
            pool.execute(round % 9, &|_i: usize| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), round % 9);
        }
    }

    #[test]
    fn single_worker_pool_runs_in_line() {
        let pool = WorkerPool::new(1);
        assert!(pool.handles.is_empty());
        assert_eq!(fill_slots(&pool, 5), vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn chunk_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(3);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.execute(8, &|i: usize| {
                if i == 5 {
                    panic!("chunk 5 exploded");
                }
            });
        }));
        assert!(outcome.is_err(), "panic must propagate to the submitter");
        // The pool keeps working after a panicked job.
        assert_eq!(fill_slots(&pool, 4), vec![0, 1, 4, 9]);
    }

    #[test]
    fn executor_trait_object_dispatch() {
        let pool = Arc::new(WorkerPool::new(2));
        let executor = pool.as_executor();
        let counter = AtomicUsize::new(0);
        executor.execute(16, &|_i: usize| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = WorkerPool::new(0);
    }
}
