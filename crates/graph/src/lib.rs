//! Graph substrate for the Buffalo GNN training system.
//!
//! This crate provides the static graph storage and analysis layer every
//! other Buffalo crate builds on:
//!
//! * [`CsrGraph`] — compressed-sparse-row adjacency, the canonical in-memory
//!   representation (the paper's block generation is CSR-based, §IV-E).
//! * [`GraphBuilder`] — edge-list accumulation with deduplication.
//! * [`stats`] — degree histograms, average clustering coefficient, and
//!   power-law fitting; these feed the redundancy-aware memory model (Eq. 1).
//! * [`generators`] — synthetic graph models (Erdős–Rényi, Barabási–Albert
//!   with triad closure, Watts–Strogatz, R-MAT).
//! * [`datasets`] — a catalog of synthetic datasets calibrated to Table II of
//!   the paper (Cora, Pubmed, Reddit, OGBN-arxiv/products/papers).
//!
//! # Examples
//!
//! ```
//! use buffalo_graph::{GraphBuilder, stats};
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1);
//! b.add_edge(1, 2);
//! b.add_edge(2, 0);
//! b.add_edge(2, 3);
//! let g = b.build_undirected();
//! assert_eq!(g.num_nodes(), 4);
//! assert_eq!(g.degree(2), 3);
//! let coef = stats::clustering_coefficient_exact(&g);
//! assert!(coef > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod builder;
mod csr;
pub mod datasets;
mod error;
pub mod generators;
pub mod io;
pub mod stats;

pub use builder::GraphBuilder;
pub use csr::{CsrGraph, NodeId, PREFETCH_AHEAD, PREFETCH_EDGES};
pub use error::GraphError;
