//! Simulated device memory, compute cost modeling, and GNN memory
//! estimation.
//!
//! The paper's experiments run on real GPUs (RTX 6000 24 GB, A100 80 GB).
//! This reproduction has no GPU, so this crate supplies the two things
//! Buffalo actually consumes from the hardware:
//!
//! * **Memory sizes** — [`DeviceMemory`] is a budgeted allocator that
//!   tracks current/peak usage and faults with [`OomError`] exactly when a
//!   real device would; [`DevicePool`] fronts one or more of them behind
//!   the same [`Device`] trait, replaying a [`FaultPlan`] of injected
//!   faults and device losses; and [`measure`] computes the exact training
//!   footprint of a micro-batch from its blocks (the "profiled ground
//!   truth" that Table III compares the analytical estimator against).
//! * **Times** — [`CostModel`] converts FLOPs and byte movement into
//!   simulated seconds using published device characteristics.
//!
//! The analytical side of the paper lives in [`estimate`]:
//! `BucketMemEstimator` (per-bucket working-memory estimates) and the
//! redundancy-aware grouping ratio of Eq. 1,
//! `R_group[i] = min(1, I_i / (O_i · D_i · C))`, combined per Eq. 2 as
//! `Σ M_est[i] · R_group[i]`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
mod device;
pub mod estimate;
mod fault;
pub mod measure;
mod pool;
mod shape;
pub mod tiered;
pub mod timeline;

pub use cost::CostModel;
pub use device::{AllocId, Device, DeviceMemory, OomError};
pub use fault::{BudgetEvent, CrashPoint, DeviceLoss, FaultPlan};
pub use pool::{next_u64, DevicePool, FaultCounters};
pub use shape::{AggregatorKind, GnnShape};
pub use timeline::{DeviceTimeline, StageTimings};
