//! The persistent worker pool behind every parallel region.
//!
//! The first shim generation spawned OS threads per `par_iter`/
//! `par_chunks_mut` region; the packed GEMM enters a region per call, so
//! a training loop paid thread-spawn cost thousands of times. This module
//! replaces that with one lazily-created global pool:
//!
//! * **Atomic-index dispatch** — a region is `n` independent index tasks
//!   behind one type-erased `Fn(usize)`; workers (and the submitting
//!   thread, which always participates) claim indices with a single
//!   `fetch_add`, so there is no per-item queue or allocation.
//! * **Concurrent + nested regions** — regions are queued; a worker that
//!   opens a nested region services it itself while idle workers help,
//!   so serving-node threads can each run pooled GEMMs concurrently.
//! * **Deterministic results** — every index is executed exactly once and
//!   writes only its own output slot, so results are bit-identical to a
//!   sequential run regardless of worker count or scheduling.
//! * **Panic propagation** — a panicking task is caught on the worker,
//!   carried back, and re-thrown on the submitting thread, matching
//!   `std::thread::scope` semantics closely enough for tests.
//!
//! Dispatch can be redirected per thread via [`with_dispatch`]: tests and
//! the benchmark harness use [`Dispatch::Sequential`] as the bit-for-bit
//! (and timing) reference for the pool.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

/// How the current thread executes parallel regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Persistent worker pool (the default).
    Pool,
    /// Run inline on the calling thread. The reference for bit-for-bit
    /// equivalence tests, and the forced mode when the pool would be a
    /// pure loss (1 thread configured).
    Sequential,
}

thread_local! {
    static DISPATCH: Cell<Dispatch> = const { Cell::new(Dispatch::Pool) };
}

/// Run `f` with this thread's parallel regions executed via `mode`.
/// Restores the previous mode afterwards (also on panic); nestable.
pub fn with_dispatch<R>(mode: Dispatch, f: impl FnOnce() -> R) -> R {
    DISPATCH.with(|d| {
        let prev = d.replace(mode);
        struct Restore<'a>(&'a Cell<Dispatch>, Dispatch);
        impl Drop for Restore<'_> {
            fn drop(&mut self) {
                self.0.set(self.1);
            }
        }
        let _restore = Restore(d, prev);
        f()
    })
}

static CONFIGURED_THREADS: OnceLock<usize> = OnceLock::new();
static GLOBAL: OnceLock<Option<Pool>> = OnceLock::new();

/// Fix the global pool's thread count (total parallelism, including the
/// submitting thread) before its first use. Returns `false` when the pool
/// or an earlier configuration already decided the count. Benchmarks use
/// this to get a multi-worker pool on single-core CI hosts.
pub fn configure_threads(threads: usize) -> bool {
    GLOBAL.get().is_none() && CONFIGURED_THREADS.set(threads.max(1)).is_ok()
}

/// Total parallelism a region fans out to: the configured override,
/// `TINYMLOPS_POOL_THREADS` / `RAYON_NUM_THREADS`, or the host's
/// available parallelism, capped at 8 (this workspace's kernels stop
/// scaling before that on the fleets we target).
pub fn effective_threads() -> usize {
    if let Some(&n) = CONFIGURED_THREADS.get() {
        return n.clamp(1, 64);
    }
    for var in ["TINYMLOPS_POOL_THREADS", "RAYON_NUM_THREADS"] {
        if let Some(n) = std::env::var(var)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            if n >= 1 {
                return n.min(64);
            }
        }
    }
    thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(8)
}

fn global() -> Option<&'static Pool> {
    GLOBAL
        .get_or_init(|| {
            let threads = effective_threads();
            (threads > 1).then(|| Pool::with_threads(threads))
        })
        .as_ref()
}

/// Total parallelism of the global pool, starting the pool if no region
/// has yet — as `rayon::current_num_threads` initializes rayon's global
/// registry. Load-time code calls it so the first parallel region does not
/// pay the worker spawns.
pub fn current_num_threads() -> usize {
    global().map_or(1, Pool::threads)
}

/// Execute `task(0)`, …, `task(n - 1)` exactly once each, in parallel when
/// the current dispatch mode and pool allow it. Blocks until every index
/// has finished; panics from tasks are re-thrown here.
pub fn run_region(n: usize, task: &(dyn Fn(usize) + Sync)) {
    if n == 0 {
        return;
    }
    let mode = DISPATCH.with(Cell::get);
    if n == 1 || mode == Dispatch::Sequential {
        for i in 0..n {
            task(i);
        }
        return;
    }
    match global() {
        Some(pool) => pool.run(n, task),
        None => {
            for i in 0..n {
                task(i);
            }
        }
    }
}

/// Run two closures, potentially in parallel, returning both results —
/// the `rayon::join` surface, routed through the same pool.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let a = Mutex::new(Some(a));
    let b = Mutex::new(Some(b));
    let ra: Mutex<Option<RA>> = Mutex::new(None);
    let rb: Mutex<Option<RB>> = Mutex::new(None);
    run_region(2, &|i| {
        if i == 0 {
            let f = a.lock().unwrap().take().expect("join task 0 runs once");
            *ra.lock().unwrap() = Some(f());
        } else {
            let f = b.lock().unwrap().take().expect("join task 1 runs once");
            *rb.lock().unwrap() = Some(f());
        }
    });
    (
        ra.into_inner().unwrap().expect("join task 0 completed"),
        rb.into_inner().unwrap().expect("join task 1 completed"),
    )
}

/// Type-erased pointer to a region's task. Valid for the lifetime of the
/// region: the submitting thread blocks inside [`Pool::run`] until every
/// index has completed, keeping the borrow alive for the workers.
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls are safe) and the pointer
// outlives all uses (see `TaskPtr` docs / `Pool::run`).
unsafe impl Send for TaskPtr {}
unsafe impl Sync for TaskPtr {}

/// One queued parallel region.
struct Job {
    task: TaskPtr,
    /// Next unclaimed index; claims are `fetch_add`, so overshoot past
    /// `total` is expected and simply means "no work left".
    next: AtomicUsize,
    total: usize,
    /// Completed indices; the region is done when this reaches `total`.
    done: AtomicUsize,
    /// First panic payload from any index, re-thrown by the submitter.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Job {
    /// Claim and execute indices until none are left. Returns how many
    /// this thread completed.
    fn work(&self) -> usize {
        let mut completed = 0;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.total {
                return completed;
            }
            let task = self.task;
            // SAFETY: `task` is valid for the whole region (see TaskPtr).
            let result = panic::catch_unwind(AssertUnwindSafe(|| unsafe { (*task.0)(i) }));
            if let Err(payload) = result {
                let mut slot = self.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            self.done.fetch_add(1, Ordering::Release);
            completed += 1;
        }
    }

    fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire) >= self.total
    }
}

struct PoolState {
    /// FIFO of live regions. A job leaves the queue when its submitter
    /// observes completion; workers skip fully-claimed jobs.
    jobs: Vec<Arc<Job>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers sleep here when no job has unclaimed indices.
    work_ready: Condvar,
    /// Submitters sleep here waiting for their job's last index.
    job_done: Condvar,
}

/// A persistent worker pool. One global instance backs every parallel
/// region; tests create private instances to pin the worker count.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
    threads: usize,
}

impl Pool {
    /// A pool with `threads` total parallelism: `threads - 1` workers plus
    /// the submitting thread, which always participates in its own
    /// regions.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            // Room for a region per thread up front: the queue's first
            // allocation belongs to the pool's start, not its first region.
            state: Mutex::new(PoolState {
                jobs: Vec::with_capacity(threads),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            job_done: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("tinymlops-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            shared,
            workers,
            threads,
        }
    }

    /// Total parallelism (workers + submitter).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute a region on this pool (see [`run_region`] for semantics).
    pub fn run(&self, n: usize, task: &(dyn Fn(usize) + Sync)) {
        if n == 0 {
            return;
        }
        if n == 1 || self.threads == 1 {
            for i in 0..n {
                task(i);
            }
            return;
        }
        // SAFETY: lifetime erasure only — this method does not return
        // until every index has run, so the pointer never outlives `task`
        // (see `TaskPtr`).
        let task_erased: &(dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
        let job = Arc::new(Job {
            task: TaskPtr(task_erased as *const _),
            next: AtomicUsize::new(0),
            total: n,
            done: AtomicUsize::new(0),
            panic: Mutex::new(None),
        });
        {
            let mut state = self.shared.state.lock().unwrap();
            state.jobs.push(Arc::clone(&job));
        }
        self.shared.work_ready.notify_all();
        // Participate, then wait for indices claimed by workers.
        job.work();
        let mut state = self.shared.state.lock().unwrap();
        while !job.is_done() {
            state = self.shared.job_done.wait(state).unwrap();
        }
        state.jobs.retain(|j| !Arc::ptr_eq(j, &job));
        drop(state);
        let payload = job.panic.lock().unwrap().take();
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().unwrap();
            state.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut state = shared.state.lock().unwrap();
    loop {
        if state.shutdown {
            return;
        }
        // First job with unclaimed indices, FIFO.
        let job = state
            .jobs
            .iter()
            .find(|j| j.next.load(Ordering::Relaxed) < j.total)
            .cloned();
        match job {
            Some(job) => {
                drop(state);
                job.work();
                // Re-acquire before notifying: a submitter checks
                // `is_done` under this lock, so notifying while holding it
                // closes the check-then-wait window (no lost wakeups).
                state = shared.state.lock().unwrap();
                if job.is_done() {
                    shared.job_done.notify_all();
                }
            }
            None => {
                state = shared.work_ready.wait(state).unwrap();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_runs_every_index_exactly_once() {
        let pool = Pool::with_threads(4);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.run(1000, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_is_reusable_across_many_regions() {
        let pool = Pool::with_threads(3);
        let total = AtomicUsize::new(0);
        for _ in 0..200 {
            pool.run(17, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 200 * 17);
    }

    #[test]
    fn nested_regions_complete() {
        let pool = Pool::with_threads(4);
        let total = AtomicUsize::new(0);
        pool.run(8, &|_| {
            // A nested region submitted from a worker must be serviced
            // even with every other worker busy in the outer region.
            pool.run(8, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        let pool = Arc::new(Pool::with_threads(4));
        let total = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                thread::spawn(move || {
                    for _ in 0..50 {
                        pool.run(13, &|_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 4 * 50 * 13);
    }

    #[test]
    fn panics_propagate_to_the_submitter() {
        let pool = Pool::with_threads(4);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(64, &|i| {
                assert!(i != 40, "task 40 fails");
            });
        }));
        assert!(result.is_err(), "the region must re-throw the task panic");
        // And the pool still works afterwards.
        let total = AtomicUsize::new(0);
        pool.run(16, &|_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 2 + 2, || "ok".to_string());
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn dispatch_modes_are_scoped_and_restored() {
        assert_eq!(DISPATCH.with(Cell::get), Dispatch::Pool);
        with_dispatch(Dispatch::Sequential, || {
            assert_eq!(DISPATCH.with(Cell::get), Dispatch::Sequential);
            with_dispatch(Dispatch::Pool, || {
                assert_eq!(DISPATCH.with(Cell::get), Dispatch::Pool);
            });
            assert_eq!(DISPATCH.with(Cell::get), Dispatch::Sequential);
        });
        assert_eq!(DISPATCH.with(Cell::get), Dispatch::Pool);
    }
}
