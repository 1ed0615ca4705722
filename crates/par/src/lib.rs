//! The CPU parallel-kernel runtime: one function that splits a kernel's
//! output rows across scoped threads, plus the configuration it reads,
//! built on `std` only.
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
//! * [`split_rows`] — cuts a kernel's output rows into one contiguous
//!   part per thread and runs them on threads started for that call
//!   inside [`std::thread::scope`], the caller working on a part too; no
//!   thread outlives the call. [`parallel_rows`] is its form for one
//!   row-major `f32` buffer.
//! * [`Parallelism`] — the configuration (threads, SIMD backend) plus a
//!   process-wide *ambient* copy that trainers install and kernels read;
//!   the serial-fallback threshold, the per-call thread cap and the
//!   matmul tile sizes are constants beside it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod split;

pub use buffalo_simd::{wide_lanes, Coeffs, SimdBackend, SimdPolicy};
pub use config::{
    ambient, Parallelism, DEFAULT_MIN_PARALLEL_WORK, DEFAULT_TILE_K, DEFAULT_TILE_N,
    ROW_ELEMENT_WORK,
};
pub use split::{parallel_rows, split_rows, Rows};
