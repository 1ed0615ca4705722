//! Benchmark harness regenerating every table and figure of the Buffalo
//! paper.
//!
//! The [`context`] module prepares workloads (dataset + sampled batch +
//! graph statistics) with per-dataset defaults matching the paper's
//! experimental regime; [`experiments`] holds one module per figure/table;
//! [`output`] provides the plain-text table printer the `figures` binary
//! uses.

#![warn(missing_docs)]

pub mod context;
pub mod experiments;
pub mod output;
