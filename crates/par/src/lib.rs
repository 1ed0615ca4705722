//! The CPU parallel-kernel runtime: a persistent scoped worker pool plus
//! data-parallel helpers, built on `std` only.
//!
//! Every compute kernel in the workspace (dense matmul, per-destination
//! aggregation, feature gather, block-row gather) parallelizes through this
//! crate so one `--threads` setting governs them all. The design invariant
//! is **disjoint-output determinism**: work is always partitioned by
//! disjoint output rows (or columns), and every output element accumulates
//! its terms in the same order regardless of thread count —
//! so parallel results are bit-identical to serial ones, with no
//! floating-point reassociation anywhere.
//!
//! Two layers:
//!
//! * [`Pool`] / [`global_pool`] — a lazily grown set of persistent worker
//!   threads executing borrowed closures; [`Pool::run`] blocks until every
//!   task finishes, so tasks may borrow from the caller's stack (the same
//!   guarantee `std::thread::scope` gives, without per-call spawns).
//! * [`Parallelism`] — the configuration (worker threads, SIMD backend)
//!   plus a process-wide *ambient* copy that trainers install and kernels
//!   read; the serial-fallback threshold and the matmul tile sizes are
//!   constants beside it.

#![warn(missing_docs)]

mod config;
mod pool;

pub use buffalo_simd::{SimdBackend, SimdPolicy};
pub use config::{ambient, Parallelism, DEFAULT_MIN_PARALLEL_ROWS, DEFAULT_TILE_K, DEFAULT_TILE_N};
pub use pool::{global_pool, parallel_for, parallel_rows, run_tasks, Pool, Task};
