//! Minimal dense-math substrate for GNN training.
//!
//! The paper trains GraphSAGE/GAT with PyTorch; this reproduction needs
//! just enough dense math to demonstrate that Buffalo's micro-batch
//! training converges identically to whole-batch training (Figure 17,
//! Table IV). The crate provides:
//!
//! * [`Tensor`] — a 2-D row-major `f32` matrix with the linear-algebra
//!   kernels GNN layers need (GEMM in the three transpose layouts,
//!   element-wise ops, reductions, activations).
//! * [`Param`] — a trainable parameter (value + gradient + Adam moments).
//! * [`Linear`] and [`LstmCell`] — layers with explicit
//!   forward/backward, no autograd tape.
//! * [`softmax_cross_entropy`] — the classification loss with gradient.
//! * [`Adam`] — the optimizer over [`Param`]s.
//!
//! Everything is deterministic: random init takes explicit seeds.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod layers;
mod loss;
mod optim;
mod param;
mod tensor;

pub use layers::{Linear, LstmCell, LstmState};
pub use loss::{softmax_cross_entropy, LossOutput};
pub use optim::{Adam, Optimizer};
pub use param::Param;
pub use tensor::Tensor;
