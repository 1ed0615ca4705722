//! Buffalo's training system: GNN models, the training/serving engine,
//! and the phase-timed pipeline.
//!
//! This crate assembles every substrate into the two training paths the
//! paper compares, both modes of one [`train::Engine`]:
//!
//! * [`train::Engine::full_batch`] — Algorithm 1: classic degree-bucketed
//!   training of a whole sampled batch, the strategy DGL/PyG use on a
//!   single GPU. It out-of-memories exactly when the batch footprint
//!   exceeds the simulated device budget.
//! * [`train::Engine::buffalo`] — Algorithm 2: schedule the batch into
//!   bucket groups with `buffalo_bucketing::BuffaloScheduler`, train each
//!   micro-batch, accumulate gradients, and step the optimizer once — a
//!   mathematically identical computation with a bounded peak footprint.
//!
//! The simulation pipeline in [`sim`] runs any partitioning strategy
//! (Buffalo, Betty, METIS, Random, Range, or none) through one iteration,
//! really executing and timing every CPU-side phase and costing the
//! device-side phases through `buffalo_memsim::CostModel` — the machinery
//! behind Figures 5, 10–16.
//!
//! The engine owns the model, optimizer, scheduler, and pipeline/recovery
//! state; the epoch loop in [`train`] drives it to train and [`serve`]
//! drives it forward-only for deterministic online inference.
//!
//! [`models`] implements GraphSAGE (mean/pool/LSTM aggregators) and GAT
//! with explicit backward passes over blocks; per-bucket aggregation in
//! the LSTM path exercises degree bucketing exactly as §II-C describes.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod models;
pub mod multi_gpu;
pub mod serve;
pub mod sim;
pub mod train;
pub mod verify;

mod error;
mod fnv;

pub use error::TrainError;
