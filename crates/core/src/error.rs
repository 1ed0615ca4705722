//! Error type for training runs.

use crate::checkpoint::CheckpointError;
use crate::train::RecoveryEvent;
use buffalo_bucketing::ScheduleError;
use buffalo_memsim::OomError;
use buffalo_partition::BettyError;
use std::fmt;

/// Errors surfaced by trainers and the simulation pipeline.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum TrainError {
    /// The simulated device ran out of memory (the paper's "OOM" cells).
    Oom(OomError),
    /// The Buffalo scheduler found no feasible grouping.
    Schedule(ScheduleError),
    /// The Betty baseline failed (e.g. zero in-degree output nodes).
    Betty(BettyError),
    /// A strategy was asked for an invalid micro-batch count.
    InvalidMicroBatches {
        /// The requested count.
        requested: usize,
        /// Number of output nodes available.
        num_outputs: usize,
    },
    /// Every rung of the recovery ladder failed for one training
    /// micro-batch or one serving dispatch.
    RecoveryExhausted {
        /// Every recovery action taken so far — this iteration when
        /// training, this run when serving — in order, ending with
        /// [`RecoveryAction::Exhausted`](crate::train::RecoveryAction::Exhausted).
        events: Vec<RecoveryEvent>,
        /// The device refusal that ended recovery.
        last: OomError,
    },
    /// A configuration parameter was invalid (library code rejects bad
    /// input with this instead of panicking).
    InvalidConfig(String),
    /// Checkpoint save/load failed (see [`CheckpointError`]).
    Checkpoint(CheckpointError),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Oom(e) => write!(f, "device OOM: {e}"),
            TrainError::Schedule(e) => write!(f, "scheduling failed: {e}"),
            TrainError::Betty(e) => write!(f, "betty partitioning failed: {e}"),
            TrainError::InvalidMicroBatches {
                requested,
                num_outputs,
            } => write!(
                f,
                "invalid micro-batch count {requested} for {num_outputs} outputs"
            ),
            TrainError::RecoveryExhausted { events, last } => write!(
                f,
                "OOM recovery exhausted after {} actions: {last}",
                events.len()
            ),
            TrainError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            TrainError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Oom(e) => Some(e),
            TrainError::Schedule(e) => Some(e),
            TrainError::Betty(e) => Some(e),
            TrainError::InvalidMicroBatches { .. } => None,
            TrainError::RecoveryExhausted { last, .. } => Some(last),
            TrainError::InvalidConfig(_) => None,
            TrainError::Checkpoint(e) => Some(e),
        }
    }
}

impl From<CheckpointError> for TrainError {
    fn from(e: CheckpointError) -> Self {
        TrainError::Checkpoint(e)
    }
}

impl From<OomError> for TrainError {
    fn from(e: OomError) -> Self {
        TrainError::Oom(e)
    }
}

impl From<ScheduleError> for TrainError {
    fn from(e: ScheduleError) -> Self {
        TrainError::Schedule(e)
    }
}

impl From<BettyError> for TrainError {
    fn from(e: BettyError) -> Self {
        TrainError::Betty(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let oom = OomError::new(10, 5, 12);
        let e = TrainError::from(oom);
        assert!(e.to_string().contains("OOM"));
        assert!(std::error::Error::source(&e).is_some());
        let e = TrainError::InvalidMicroBatches {
            requested: 0,
            num_outputs: 3,
        };
        assert!(std::error::Error::source(&e).is_none());
        let e = TrainError::RecoveryExhausted {
            events: Vec::new(),
            last: OomError::new(10, 5, 12),
        };
        assert!(e.to_string().contains("recovery exhausted after 0 actions"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
