//! The persistent scoped worker pool and its data-parallel helpers.

use crate::config::Parallelism;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

// Under `--cfg loom` every synchronization primitive the pool touches is
// swapped for loom's instrumented equivalent, so the `tests/loom_model.rs`
// model test explores the handoff protocol (submit → worker wake → steal →
// latch → join) under many schedules. Production builds compile the exact
// std types as before.
#[cfg(loom)]
use loom::{
    sync::atomic::{AtomicBool, Ordering},
    sync::{Arc, Condvar, Mutex, MutexGuard},
    thread,
};
#[cfg(not(loom))]
use std::{
    sync::atomic::{AtomicBool, Ordering},
    sync::{Arc, Condvar, Mutex, MutexGuard},
    thread,
};

use std::sync::{OnceLock, PoisonError};

/// Hard cap on pool worker threads, a guard against absurd `--threads`
/// values (the caller thread always participates on top of these).
const MAX_WORKERS: usize = 64;

/// A borrowed task as submitted by callers.
pub type Task<'scope> = Box<dyn FnOnce() + Send + 'scope>;

type StaticTask = Box<dyn FnOnce() + Send + 'static>;

struct Queue {
    tasks: VecDeque<StaticTask>,
    shutdown: bool,
}

/// Locks `m`, recovering the guarded data from a poisoned lock. Pool
/// tasks run under `catch_unwind`, so a poisoned mutex can only mean a
/// thread died inside one of the pool's own short critical sections —
/// every one a counter/flag/queue update that is valid at every
/// intermediate state. Recovering keeps the pool joinable from the
/// engine's failover ladder instead of cascading a secondary panic.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Shared {
    queue: Mutex<Queue>,
    /// Signals workers that tasks arrived (or shutdown began).
    available: Condvar,
}

/// Completion latch for one [`Pool::run`] call.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }

    fn complete_one(&self) {
        let mut left = lock_unpoisoned(&self.remaining);
        *left -= 1;
        if *left == 0 {
            self.done.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        *lock_unpoisoned(&self.remaining) == 0
    }

    fn wait(&self) {
        let mut left = lock_unpoisoned(&self.remaining);
        while *left > 0 {
            left = self.done.wait(left).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A persistent worker pool executing borrowed closures.
///
/// Workers are spawned lazily, grow on demand up to the requested
/// concurrency (capped at `MAX_WORKERS`), and persist across calls — no
/// per-kernel thread spawns. [`run`](Self::run) gives the scoped-thread
/// guarantee: it returns only after every submitted task has finished, so
/// tasks may borrow data owned by the caller's stack frame.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl Pool {
    /// An empty pool; workers spawn on first use.
    pub fn new() -> Self {
        Pool {
            shared: Arc::new(Shared {
                queue: Mutex::new(Queue {
                    tasks: VecDeque::new(),
                    shutdown: false,
                }),
                available: Condvar::new(),
            }),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// Current worker-thread count (excluding callers).
    pub fn num_workers(&self) -> usize {
        lock_unpoisoned(&self.workers).len()
    }

    fn ensure_workers(&self, wanted: usize) {
        let wanted = wanted.min(MAX_WORKERS);
        let mut workers = lock_unpoisoned(&self.workers);
        while workers.len() < wanted {
            let shared = Arc::clone(&self.shared);
            let name = format!("buffalo-par-{}", workers.len());
            match thread::Builder::new()
                .name(name)
                .spawn(move || worker_loop(&shared))
            {
                Ok(handle) => workers.push(handle),
                // Spawn failure (thread-resource exhaustion) degrades
                // concurrency, never correctness: `run` always drains the
                // queue on the calling thread, so fewer workers only slow
                // things down.
                Err(_) => break,
            }
        }
    }

    /// Runs every task to completion on up to `threads - 1` pool workers
    /// plus the calling thread, which participates by draining the queue.
    /// Blocks until all tasks have finished — the scoped guarantee that
    /// lets tasks borrow from the caller.
    ///
    /// # Panics
    ///
    /// Panics if any task panicked (after all tasks have completed, so
    /// borrowed data is never observed mid-write by the unwinder).
    pub fn run<'scope>(&self, tasks: Vec<Task<'scope>>, threads: usize) {
        if tasks.is_empty() {
            return;
        }
        if threads <= 1 || tasks.len() == 1 {
            for task in tasks {
                task();
            }
            return;
        }
        self.ensure_workers(threads - 1);
        let latch = Arc::new(Latch::new(tasks.len()));
        {
            let mut queue = lock_unpoisoned(&self.shared.queue);
            for task in tasks {
                let latch = Arc::clone(&latch);
                let wrapped: Task<'scope> = Box::new(move || {
                    if catch_unwind(AssertUnwindSafe(task)).is_err() {
                        latch.panicked.store(true, Ordering::SeqCst);
                    }
                    latch.complete_one();
                });
                // SAFETY: `run` does not return until the latch has counted
                // every task complete, so all borrows inside `wrapped`
                // outlive its execution; the lifetime erasure is therefore
                // sound (the same argument `std::thread::scope` makes).
                let wrapped: StaticTask =
                    unsafe { std::mem::transmute::<Task<'scope>, StaticTask>(wrapped) };
                queue.tasks.push_back(wrapped);
            }
        }
        self.shared.available.notify_all();
        // Caller participation: drain tasks (ours or a concurrent run's)
        // until our latch trips. When the queue is momentarily empty, all
        // our unfinished tasks are running on other threads, so blocking on
        // the latch cannot deadlock.
        while !latch.is_done() {
            let task = lock_unpoisoned(&self.shared.queue).tasks.pop_front();
            match task {
                Some(task) => task(),
                None => latch.wait(),
            }
        }
        if latch.panicked.load(Ordering::SeqCst) {
            // lint:allow(panic-reachability): deliberate re-raise of a pool task's panic, deferred until every task has completed so borrowed data is quiescent (chain: evaluate → SageLayer::forward → Tensor::gather_rows → parallel_rows → Pool::run); the engine's device-loss ladder catches it at the step boundary
            panic!("buffalo-par: a pool task panicked");
        }
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::new()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        lock_unpoisoned(&self.shared.queue).shutdown = true;
        self.shared.available.notify_all();
        for worker in lock_unpoisoned(&self.workers).drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let task = {
            let mut queue = lock_unpoisoned(&shared.queue);
            loop {
                if let Some(task) = queue.tasks.pop_front() {
                    break task;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        task();
    }
}

/// The shared process-wide pool every kernel dispatches to, so one
/// `--threads` setting governs matmul, aggregation, gather, and block
/// generation alike.
pub fn global_pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(Pool::new)
}

/// Runs borrowed tasks on the [`global_pool`] with `threads`-way
/// concurrency (serially when `threads <= 1`).
pub fn run_tasks(tasks: Vec<Task<'_>>, threads: usize) {
    global_pool().run(tasks, threads);
}

/// Splits `0..n` into one contiguous range per effective thread and runs
/// `f` on each. Falls back to a single serial call below the
/// [`DEFAULT_MIN_PARALLEL_ROWS`](crate::DEFAULT_MIN_PARALLEL_ROWS) threshold.
pub fn parallel_for<F>(n: usize, par: &Parallelism, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if n == 0 {
        return;
    }
    let threads = par.effective_threads(n);
    if threads <= 1 {
        f(0..n);
        return;
    }
    let chunk = n.div_ceil(threads);
    let f = &f;
    let mut tasks: Vec<Task<'_>> = Vec::with_capacity(threads);
    let mut start = 0;
    while start < n {
        let end = (start + chunk).min(n);
        tasks.push(Box::new(move || f(start..end)));
        start = end;
    }
    global_pool().run(tasks, threads);
}

/// Splits a row-major `rows × cols` buffer into one contiguous row-chunk
/// per effective thread and runs `f(first_row, chunk)` on each — the
/// disjoint-output-row primitive behind every parallel kernel.
pub fn parallel_rows<F>(data: &mut [f32], cols: usize, par: &Parallelism, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if data.is_empty() || cols == 0 {
        return;
    }
    let rows = data.len() / cols;
    let threads = par.effective_threads(rows);
    if threads <= 1 {
        f(0, data);
        return;
    }
    let chunk_rows = rows.div_ceil(threads);
    let f = &f;
    let tasks: Vec<Task<'_>> = data
        .chunks_mut(chunk_rows * cols)
        .enumerate()
        .map(|(ci, chunk)| -> Task<'_> { Box::new(move || f(ci * chunk_rows, chunk)) })
        .collect();
    global_pool().run(tasks, threads);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn par(threads: usize) -> Parallelism {
        Parallelism {
            threads,
            ..Parallelism::auto()
        }
    }

    #[test]
    fn parallel_for_covers_every_index_once() {
        for threads in [1, 2, 4, 8] {
            let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
            parallel_for(1000, &par(threads), |range| {
                for i in range {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn parallel_rows_chunks_are_disjoint_and_aligned() {
        let (rows, cols) = (103, 7);
        let mut data = vec![0.0f32; rows * cols];
        parallel_rows(&mut data, cols, &par(4), |row0, chunk| {
            assert_eq!(chunk.len() % cols, 0);
            for (r, row) in chunk.chunks_exact_mut(cols).enumerate() {
                for v in row.iter_mut() {
                    *v += (row0 + r) as f32;
                }
            }
        });
        for (r, row) in data.chunks_exact(cols).enumerate() {
            assert!(row.iter().all(|&v| v == r as f32), "row {r} wrong");
        }
    }

    #[test]
    fn serial_threshold_short_circuits_dispatch() {
        // One row below the threshold the pool must not be touched: the
        // whole range arrives as one call on the calling thread.
        let calls = AtomicUsize::new(0);
        let caller = thread::current().id();
        parallel_for(63, &par(8), |range| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!(range, 0..63);
            assert_eq!(thread::current().id(), caller);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        // At the threshold the range is split, one chunk per thread.
        calls.store(0, Ordering::Relaxed);
        parallel_for(64, &par(8), |range| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!(range.len(), 8);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn pool_workers_persist_across_runs() {
        let pool = Pool::new();
        for _ in 0..3 {
            let tasks: Vec<Task<'_>> = (0..4).map(|_| Box::new(|| {}) as Task<'_>).collect();
            pool.run(tasks, 4);
        }
        assert_eq!(pool.num_workers(), 3);
    }

    #[test]
    fn run_supports_borrowed_state() {
        let pool = Pool::new();
        let mut out = vec![0u64; 64];
        let tasks: Vec<Task<'_>> = out
            .chunks_mut(16)
            .enumerate()
            .map(|(ci, chunk)| -> Task<'_> {
                Box::new(move || {
                    for (i, v) in chunk.iter_mut().enumerate() {
                        *v = (ci * 16 + i) as u64;
                    }
                })
            })
            .collect();
        pool.run(tasks, 4);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64));
    }

    #[test]
    fn concurrent_runs_share_the_global_pool() {
        // Two threads issuing runs against the global pool at once must
        // both complete (callers steal each other's tasks harmlessly).
        let done: Vec<AtomicUsize> = (0..2).map(|_| AtomicUsize::new(0)).collect();
        thread::scope(|s| {
            for slot in &done {
                s.spawn(move || {
                    parallel_for(256, &par(4), |range| {
                        slot.fetch_add(range.len(), Ordering::Relaxed);
                    });
                });
            }
        });
        assert!(done.iter().all(|d| d.load(Ordering::Relaxed) == 256));
    }

    #[test]
    fn pool_stays_usable_after_a_panicking_run() {
        let pool = Pool::new();
        let boom: Vec<Task<'_>> = (0..4)
            .map(|i| -> Task<'_> {
                Box::new(move || {
                    if i == 0 {
                        panic!("boom");
                    }
                })
            })
            .collect();
        assert!(catch_unwind(AssertUnwindSafe(|| pool.run(boom, 4))).is_err());
        // The engine's failover ladder retries on the same global pool, so
        // a panicking run must leave workers, queue, and locks serviceable.
        let count = AtomicUsize::new(0);
        let tasks: Vec<Task<'_>> = (0..8)
            .map(|_| -> Task<'_> {
                Box::new(|| {
                    count.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        pool.run(tasks, 4);
        assert_eq!(count.load(Ordering::SeqCst), 8);
    }

    #[test]
    #[should_panic(expected = "pool task panicked")]
    fn task_panics_propagate_to_caller() {
        let pool = Pool::new();
        let tasks: Vec<Task<'_>> = (0..4)
            .map(|i| -> Task<'_> {
                Box::new(move || {
                    if i == 2 {
                        panic!("boom");
                    }
                })
            })
            .collect();
        pool.run(tasks, 4);
    }
}
