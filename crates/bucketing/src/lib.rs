//! Degree bucketing, bucket splitting/grouping, and the Buffalo scheduler.
//!
//! This crate is the paper's primary contribution (§IV):
//!
//! * [`degree_bucketing`] — classic cut-off bucketing (§II-C, Figure 3):
//!   output nodes with sampled degree `d < F` go into the degree-`d`
//!   bucket; all nodes with degree `≥ F` share the degree-`F` bucket. On
//!   power-law graphs that last bucket *explodes* (Figure 4).
//! * [`detect_explosion`] / [`split_explosion_bucket`] — find the
//!   explosion and split it into `K` *micro-buckets* with roughly equal
//!   output-node counts (Algorithm 3, line 5).
//! * [`mem_balanced_grouping`] — the greedy load-balanced bin packing of
//!   Algorithm 4: sort buckets by estimated memory descending, place each
//!   into the currently-lightest group, validate every group against the
//!   memory constraint with the redundancy-aware estimator.
//! * [`BuffaloScheduler`] — Algorithm 3: try `K = 1, 2, …, K_max`,
//!   splitting and regrouping until every bucket group fits the budget.
//!
//! The scheduler never touches model weights — its output is a
//! [`SchedulePlan`]: a list of bucket groups, each a set of output-node
//! (seed) local ids that one micro-batch will train.

#![warn(missing_docs)]

mod bucket;
mod closure;
mod grouping;
mod scheduler;

pub use bucket::{
    degree_bucketing, degree_bucketing_of, detect_explosion, split_explosion_bucket, DegreeBucket,
};
pub use closure::{closure_counts, ClosureScratch};
pub use grouping::{mem_balanced_grouping, BucketEntry, GroupingOutcome};
pub use scheduler::{BuffaloScheduler, ScheduleError, SchedulePlan};
