//! Block (message-flow-graph) generation.
//!
//! A *block* summarizes the connectivity one GNN layer needs: which source
//! nodes feed which destination nodes. Training an `L`-layer GNN over a
//! sampled batch needs `L` blocks, built from the output layer inward — the
//! destinations of layer `l` are the sources of layer `l + 1`.
//!
//! The Buffalo paper identifies block generation as a major cost (§III,
//! Figure 5: 54.3 % of iteration time) and contributes a fast method
//! (§IV-E): represent the sampled subgraph as CSR, take *all* neighbors of
//! each center node directly from its CSR row (no repeated connection
//! checks against the original graph). This crate implements both that
//! fast path — [`BlockWalker`], one walk of the sampled batch per
//! (micro-)batch, of which [`generate_blocks_fast`] is the whole-batch
//! case — and the baseline slow path
//! ([`generate_blocks_checked`]) that re-derives connectivity from the
//! original graph with per-edge membership checks, as Betty-style systems
//! do — the comparison behind Figure 12.

#![warn(missing_docs)]

mod block;
mod generate;
mod reverse;

pub use block::Block;
pub use generate::{generate_blocks_checked, generate_blocks_fast, BlockWalker, GenerateOptions};
pub use reverse::ReverseIndex;
