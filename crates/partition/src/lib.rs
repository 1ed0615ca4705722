//! Baseline partitioners Buffalo is evaluated against.
//!
//! The paper compares bucket-level scheduling with four batch-level
//! partitioning strategies (§V-H, Figure 16):
//!
//! * [`metis`] — a real multilevel k-way partitioner (heavy-edge-matching
//!   coarsening, greedy initial partition, boundary FM refinement). This
//!   is the expensive step the paper's Figure 5 motivates against.
//! * [`betty`] — Betty (ASPLOS'23): build a *redundancy-embedded graph*
//!   (REG) over the output nodes, whose edge weights count shared
//!   neighbors, then METIS-partition the REG. Both phases are really
//!   executed and timed; they are the "REG construction" and "METIS
//!   partition" components of Figure 11.
//! * [`random_partition`] / [`range_partition`] — the 1-D output-node
//!   splits of §V-H.
//!
//! All partitioners return groups of *seed local ids*, the same currency
//! as `buffalo_bucketing::SchedulePlan`, so trainers can drive any of them
//! through one micro-batch path.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod betty;
pub mod metis;
mod simple;

pub use betty::{betty_partition, BettyError, BettyPartition};
pub use metis::{edge_cut, metis_kway};
pub use simple::{random_partition, range_partition};
