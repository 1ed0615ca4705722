//! The [`Parallelism`] configuration and its process-wide ambient copy.

use buffalo_simd::SimdBackend;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Minimum output-row count before a kernel goes parallel; below it
/// starting a thread costs more than the work.
pub const DEFAULT_MIN_PARALLEL_ROWS: usize = 64;

/// Most threads one kernel call uses, the caller included: a guard
/// against absurd `--threads` values, since every call starts its own.
const MAX_THREADS: usize = 64;

/// Depth (k) tile of the blocked matmul kernels.
pub const DEFAULT_TILE_K: usize = 64;

/// Width (n) tile of the blocked matmul kernels. A `DEFAULT_TILE_K ×
/// DEFAULT_TILE_N` f32 panel of the right-hand matrix (32 KiB) stays
/// cache-resident while a thread sweeps its output rows.
pub const DEFAULT_TILE_N: usize = 128;

/// How the CPU compute kernels split their work: thread count and the
/// SIMD inner kernel backend.
///
/// A kernel call with enough rows starts `effective_threads(rows) - 1`
/// scoped threads for its own duration (see
/// [`split_rows`](crate::split_rows)); no thread outlives the call.
///
/// `threads` never affects results — kernels partition by disjoint output
/// rows and keep per-element accumulation order fixed, so any two
/// configurations with the same `simd` produce bit-identical tensors.
/// `simd` selects the (run-to-run deterministic) rounding: the default
/// [`SimdBackend::Scalar`] reproduces the historical bits, and under a
/// vector backend each tile's lane body/scalar tail split follows the
/// fixed [`DEFAULT_TILE_K`] × [`DEFAULT_TILE_N`] grid. In short: numerics
/// are a function of `simd` and nothing else here; see [`SimdBackend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Total threads applied to a kernel, including the calling thread
    /// (`1` = serial); one call uses at most 64.
    pub threads: usize,
    /// SIMD backend for the per-element inner kernels (axpy/dot/widen).
    /// Unlike `threads` this selects the numerics; scalar is the default
    /// and vectorization is opt-in (CLI `--simd`).
    pub simd: SimdBackend,
}

impl Parallelism {
    /// Strictly serial execution.
    pub fn serial() -> Self {
        Parallelism {
            threads: 1,
            ..Self::auto()
        }
    }

    /// One thread per available CPU, scalar kernels.
    pub fn auto() -> Self {
        Parallelism {
            threads: available_threads(),
            simd: SimdBackend::Scalar,
        }
    }

    /// Threads a kernel with `rows` output rows should actually use:
    /// `1` below [`DEFAULT_MIN_PARALLEL_ROWS`], never more than `rows`
    /// nor 64, whatever `threads` says.
    pub fn effective_threads(&self, rows: usize) -> usize {
        if self.threads <= 1 || rows < DEFAULT_MIN_PARALLEL_ROWS {
            1
        } else {
            self.threads.min(rows).min(MAX_THREADS)
        }
    }

    /// Installs this configuration as the process-wide ambient one that
    /// [`ambient`] returns and every kernel without an explicit
    /// configuration reads.
    pub fn install(self) {
        AMBIENT_THREADS.store(self.threads.max(1), Ordering::Relaxed);
        AMBIENT_SIMD.store(self.simd as usize + 1, Ordering::Relaxed);
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::auto()
    }
}

fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// Zero means "not installed": fall back to the `auto()` defaults.
static AMBIENT_THREADS: AtomicUsize = AtomicUsize::new(0);
// Stored as `backend as usize + 1` so zero keeps meaning "not installed"
// (falling back to the scalar default).
static AMBIENT_SIMD: AtomicUsize = AtomicUsize::new(0);

/// The process-wide ambient configuration: the last one
/// [installed](Parallelism::install), or [`Parallelism::auto`] if none
/// has been.
pub fn ambient() -> Parallelism {
    Parallelism {
        threads: match AMBIENT_THREADS.load(Ordering::Relaxed) {
            0 => available_threads(),
            v => v,
        },
        simd: match AMBIENT_SIMD.load(Ordering::Relaxed) {
            0 => SimdBackend::Scalar,
            v => SimdBackend::from_index(v - 1).unwrap_or(SimdBackend::Scalar),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn threads(threads: usize) -> Parallelism {
        Parallelism {
            threads,
            ..Parallelism::auto()
        }
    }

    #[test]
    fn serial_fallback_threshold_applies() {
        assert_eq!(threads(8).effective_threads(63), 1);
        assert_eq!(threads(8).effective_threads(64), 8);
        assert_eq!(threads(8).effective_threads(3), 1);
        assert_eq!(Parallelism::serial().effective_threads(1 << 20), 1);
    }

    #[test]
    fn effective_threads_never_exceed_rows_or_the_cap() {
        assert_eq!(threads(50).effective_threads(70), 50);
        assert_eq!(threads(100).effective_threads(70), 64);
        // Only the number is checked: no kernel runs with these values.
        for t in [65, 1 << 20, usize::MAX] {
            assert!(threads(t).effective_threads(usize::MAX) <= 64);
        }
    }

    #[test]
    fn ambient_defaults_are_sane() {
        let a = ambient();
        assert!(a.threads >= 1);
        // Nothing installed (or whatever a prior test installed): the
        // decoded backend is always a valid enum value.
        assert!(SimdBackend::from_index(a.simd as usize).is_some());
    }
}
