//! Buffalo — a Rust reproduction of *"Buffalo: Enabling Large-Scale GNN
//! Training via Memory-Efficient Bucketization"* (HPCA 2025).
//!
//! This facade crate re-exports every subsystem so downstream users can
//! depend on a single crate:
//!
//! * [`graph`] — CSR graphs, statistics, generators, dataset catalog.
//! * [`sampling`] — fanout neighbor sampling and batch construction.
//! * [`tensor`] — minimal dense-math substrate (layers, optimizers).
//! * [`memsim`] — simulated device memory, cost model, memory estimators.
//! * [`bucketing`] — degree bucketing, splitting/grouping, the Buffalo
//!   scheduler.
//! * [`blocks`] — layered block (message-flow-graph) generation.
//! * [`partition`] — baseline partitioners (METIS-style, Betty, random,
//!   range).
//! * [`core`] — GNN models and the end-to-end trainers (Algorithms 1–2).
//!
//! See `DESIGN.md` for the full system inventory and `EXPERIMENTS.md` for
//! the paper-vs-measured record of every figure and table.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use buffalo_blocks as blocks;
pub use buffalo_bucketing as bucketing;
pub use buffalo_core as core;
pub use buffalo_graph as graph;
pub use buffalo_memsim as memsim;
pub use buffalo_par as par;
pub use buffalo_partition as partition;
pub use buffalo_sampling as sampling;
pub use buffalo_tensor as tensor;
