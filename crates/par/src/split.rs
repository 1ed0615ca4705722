//! The one place kernel work is split across threads.

use crate::config::Parallelism;
use std::sync::{Mutex, PoisonError};
use std::thread;

/// Output buffers a kernel's rows can be cut into: a slice holding a
/// whole number of rows, or a pair of such buffers cut at the same rows.
pub trait Rows: Send + Sized {
    /// Splits the first `at` of this buffer's `rows` rows from the rest.
    fn split_at_row(self, at: usize, rows: usize) -> (Self, Self);
}

impl<T: Send> Rows for &mut [T] {
    fn split_at_row(self, at: usize, rows: usize) -> (Self, Self) {
        let width = self.len() / rows;
        self.split_at_mut(at * width)
    }
}

impl<A: Rows, B: Rows> Rows for (A, B) {
    fn split_at_row(self, at: usize, rows: usize) -> (Self, Self) {
        let (a, a_rest) = self.0.split_at_row(at, rows);
        let (b, b_rest) = self.1.split_at_row(at, rows);
        ((a, b), (a_rest, b_rest))
    }
}

/// Cuts `out`, a kernel's `rows` output rows, into
/// [`Parallelism::effective_threads`]`(rows, work)` contiguous parts of
/// `rows.div_ceil(threads)` rows each and runs `f(first_row, part)` on
/// every part inside [`std::thread::scope`]: one scoped thread per part
/// but the last, which the calling thread runs. It returns only after
/// every part has finished, so parts may borrow from the caller. `work`
/// is the whole call's, in the units of
/// [`DEFAULT_MIN_PARALLEL_WORK`](crate::DEFAULT_MIN_PARALLEL_WORK): a
/// GEMM passes its multiply-adds, an aggregation its edges times the
/// width times [`ROW_ELEMENT_WORK`](crate::ROW_ELEMENT_WORK).
///
/// A thread that fails to spawn leaves its part to the threads that did
/// start, the caller among them: spawn failure degrades concurrency,
/// never correctness.
///
/// # Panics
///
/// Re-raises a part's panic once every other part has finished: std's
/// `a scoped thread panicked`, or the part's own payload if the calling
/// thread ran it.
pub fn split_rows<R, F>(rows: usize, work: usize, par: &Parallelism, out: R, f: F)
where
    R: Rows,
    F: Fn(usize, R) + Sync,
{
    let threads = par.effective_threads(rows, work);
    if threads <= 1 {
        return f(0, out);
    }
    let chunk = rows.div_ceil(threads);
    let (mut last, mut row0, mut parts) = (out, 0, Vec::with_capacity(threads));
    while rows - row0 > chunk {
        let (part, rest) = last.split_at_row(chunk, rows - row0);
        parts.push((row0, part));
        (last, row0) = (rest, row0 + chunk);
    }
    let queued = parts.len();
    let queue = Mutex::new(parts.into_iter());
    let drain = || loop {
        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
        let Some((first, part)) = next else { break };
        f(first, part);
    };
    thread::scope(|s| {
        let started = (0..queued)
            .take_while(|_| thread::Builder::new().spawn_scoped(s, drain).is_ok())
            .count();
        f(row0, last);
        if started < queued {
            drain();
        }
    });
}

/// [`split_rows`] over a row-major `rows × cols` buffer whose call does
/// `work` in all: runs `f(first_row, chunk)` on contiguous row chunks,
/// and nothing on an empty buffer.
pub fn parallel_rows<F>(data: &mut [f32], cols: usize, work: usize, par: &Parallelism, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if data.is_empty() || cols == 0 {
        return;
    }
    split_rows(data.len() / cols, work, par, data, f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_MIN_PARALLEL_WORK as GATE;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn par(threads: usize) -> Parallelism {
        Parallelism {
            threads,
            ..Parallelism::auto()
        }
    }

    #[test]
    fn parallel_rows_covers_every_row_once() {
        for threads in [1, 2, 4, 8] {
            let mut hits = vec![0.0f32; 1000 * 64];
            parallel_rows(&mut hits, 64, GATE, &par(threads), |_, chunk| {
                chunk.iter_mut().for_each(|h| *h += 1.0);
            });
            assert!(hits.iter().all(|&h| h == 1.0));
        }
    }

    #[test]
    fn parallel_rows_chunks_are_disjoint_and_aligned() {
        // Work at the threshold: four parts of 26, 26, 26 and 25 rows.
        let (rows, cols) = (103, 331);
        let mut data = vec![0.0f32; rows * cols];
        parallel_rows(&mut data, cols, GATE, &par(4), |row0, chunk| {
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
        // One unit of work below the threshold no thread starts: the
        // whole range arrives as one call on the calling thread.
        let calls = AtomicUsize::new(0);
        let caller = thread::current().id();
        parallel_rows(
            &mut vec![0.0; 64 * 512],
            512,
            GATE - 1,
            &par(8),
            |row0, chunk| {
                calls.fetch_add(1, Ordering::Relaxed);
                assert_eq!((row0, chunk.len()), (0, 64 * 512));
                assert_eq!(thread::current().id(), caller);
            },
        );
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        // At the threshold the same rows are split, one chunk per thread.
        calls.store(0, Ordering::Relaxed);
        parallel_rows(&mut vec![0.0; 64 * 512], 512, GATE, &par(8), |_, chunk| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!(chunk.len(), 8 * 512);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn parts_borrow_the_callers_data_in_pairs() {
        let (mut out, mut tag) = (vec![0u64; 64 * 3], vec![0usize; 64]);
        let offset = 7;
        split_rows(
            64,
            GATE,
            &par(4),
            (&mut out[..], &mut tag[..]),
            |row0, (o, t)| {
                for (r, (row, t)) in o.chunks_exact_mut(3).zip(t.iter_mut()).enumerate() {
                    row.fill((row0 + r + offset) as u64);
                    *t = row0;
                }
            },
        );
        assert!(out
            .chunks_exact(3)
            .enumerate()
            .all(|(i, row)| row.iter().all(|&v| v == (i + offset) as u64)));
        assert!(tag.iter().enumerate().all(|(i, &t)| t == i / 16 * 16));
    }

    #[test]
    fn concurrent_callers_both_complete() {
        let done: Vec<AtomicUsize> = (0..2).map(|_| AtomicUsize::new(0)).collect();
        thread::scope(|s| {
            for slot in &done {
                s.spawn(move || {
                    parallel_rows(&mut vec![0.0; 256 * 128], 128, GATE, &par(4), |_, chunk| {
                        slot.fetch_add(chunk.len() / 128, Ordering::Relaxed);
                    });
                });
            }
        });
        assert!(done.iter().all(|d| d.load(Ordering::Relaxed) == 256));
    }

    /// Four parts of 64 rows of 128: the first panics at once, the other
    /// three finish later.
    fn first_part_panics(finished: &AtomicUsize) {
        parallel_rows(&mut vec![0.0; 256 * 128], 128, GATE, &par(4), |row0, _| {
            if row0 == 0 {
                panic!("boom");
            }
            thread::sleep(Duration::from_millis(20));
            finished.fetch_add(1, Ordering::SeqCst);
        });
    }

    #[test]
    fn a_panic_waits_for_every_part_and_leaves_later_calls_working() {
        let finished = AtomicUsize::new(0);
        assert!(catch_unwind(AssertUnwindSafe(|| first_part_panics(&finished))).is_err());
        assert_eq!(finished.load(Ordering::SeqCst), 3);
        let count = AtomicUsize::new(0);
        parallel_rows(&mut vec![0.0; 256 * 128], 128, GATE, &par(4), |_, chunk| {
            count.fetch_add(chunk.len() / 128, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 256);
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn part_panics_propagate_to_caller() {
        first_part_panics(&AtomicUsize::new(0));
    }
}
