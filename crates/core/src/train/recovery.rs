//! The recovery vocabulary — policy, actions, event trail — shared by the
//! training and serving ladders, plus the headroom scheduling leaves.
//!
//! The scheduler's Algorithm 3 guards against OOM at *plan* time, and
//! checks every group against its exact memory before a plan is returned,
//! so an estimator under-prediction cannot reach the device. This module
//! guards *execution* time, where an injected fault, a mid-epoch budget
//! shrink or a lost device can still make the device refuse an
//! allocation. On such a failure the caller climbs a recovery ladder and
//! records every rung as a [`RecoveryEvent`]; only when the
//! ladder is exhausted does a structured
//! [`TrainError::RecoveryExhausted`] carrying the full trail reach the
//! caller.
//!
//! There are two climb loops, on purpose: training
//! ([`pipeline`](super::pipeline)) degrades residency *before* retrying,
//! retries genuine refusals too, feeds them to the [`HeadroomCalibrator`]
//! and re-splits through the bucket scheduler; serving
//! ([`serve::recovery`](crate::serve::recovery)) retries *only* transient
//! faults, degrades its batch width *after*, and halves by seed. They
//! differ in rung order and guard, so one loop would branch on its
//! caller. What they share lives here: the types, the failover rung
//! (`fail_over`) and the way a ladder ends (`exhausted`).

use crate::TrainError;
use buffalo_memsim::{Device, OomError};

/// Limits for execution-time OOM recovery, for training and serving
/// alike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Master switch. When `false`, any execution-time OOM propagates
    /// immediately — the pre-recovery behavior and the engine's default.
    pub enabled: bool,
    /// Pure retries of the same allocation before escalating. Retries are
    /// safe because allocation happens *before* any forward/backward work:
    /// a failed micro-batch has contributed nothing to the gradients.
    pub max_retries: usize,
    /// Recursive re-split depth: how many times one micro-batch (or one
    /// serving dispatch) may be cut into smaller pieces before giving up.
    pub max_resplits: usize,
    /// Initial headroom multiplier for the [`HeadroomCalibrator`]. `1.0`
    /// means scheduling starts out trusting the estimator exactly. Only
    /// training calibrates; serving leaves it alone.
    pub headroom: f64,
}

impl RecoveryPolicy {
    /// Recovery switched off: every OOM is terminal. This is the default
    /// for a training engine so that existing OOM semantics (the paper's
    /// "OOM" table cells) are unchanged unless a caller opts in.
    pub(crate) fn disabled() -> Self {
        RecoveryPolicy {
            enabled: false,
            ..RecoveryPolicy::default()
        }
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            enabled: true,
            max_retries: 3,
            max_resplits: 2,
            headroom: 1.0,
        }
    }
}

/// One rung of a recovery ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Training: double-buffered residency was dropped to serial so only
    /// one micro-batch stays resident.
    DegradeSerial,
    /// Serving: the loop's effective coalescing width was halved so
    /// future dispatches are smaller.
    DegradeBatch {
        /// Width before degrading.
        from: usize,
        /// Width after degrading.
        to: usize,
    },
    /// The same allocation was retried.
    Retry {
        /// 1-based retry attempt number.
        attempt: usize,
    },
    /// The failing micro-batch or dispatch was cut into smaller groups,
    /// each retried in turn.
    Resplit {
        /// Seeds in the offending group.
        seeds: usize,
        /// Number of sub-groups it was split into.
        into: usize,
    },
    /// A whole device was permanently lost: it is marked dead, the
    /// in-flight work replays on a survivor, and everything the dead
    /// device would have taken re-routes across the surviving devices.
    DeviceLost {
        /// Index of the lost device.
        device: usize,
        /// Live devices remaining after marking it dead.
        survivors: usize,
    },
    /// No rung remained; the structured error was surfaced.
    Exhausted,
}

impl std::fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryAction::DegradeSerial => write!(f, "degrade double-buffer to serial"),
            RecoveryAction::DegradeBatch { from, to } => {
                write!(f, "degrade batch width {from} -> {to}")
            }
            RecoveryAction::Retry { attempt } => write!(f, "retry #{attempt}"),
            RecoveryAction::Resplit { seeds, into } => {
                write!(f, "re-split {seeds} seeds into {into} groups")
            }
            RecoveryAction::DeviceLost { device, survivors } => {
                write!(
                    f,
                    "device {device} lost; re-routing onto {survivors} survivor(s)"
                )
            }
            RecoveryAction::Exhausted => write!(f, "recovery exhausted"),
        }
    }
}

/// One recovery action taken in response to one device refusal, with the
/// refusal's context attached.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    /// Which unit of work hit the fault: the micro-batch, in execution
    /// order within its iteration, when training; the dispatch (coalesced
    /// batch), in run order, when serving.
    pub index: usize,
    /// The ladder rung taken.
    pub action: RecoveryAction,
    /// Bytes the failed allocation requested.
    pub requested: u64,
    /// Bytes in use on the device at refusal time.
    pub in_use: u64,
    /// Device budget at refusal time.
    pub budget: u64,
    /// Whether the refusal was an injected transient fault (retry-able)
    /// rather than a genuine capacity shortfall.
    pub transient: bool,
}

impl RecoveryEvent {
    /// The event for taking `action` on work unit `index` after `oom`.
    pub(crate) fn new(index: usize, action: RecoveryAction, oom: &OomError) -> Self {
        RecoveryEvent {
            index,
            action,
            requested: oom.requested,
            in_use: oom.in_use,
            budget: oom.budget,
            transient: oom.transient,
        }
    }
}

/// Renders as `<index>: <action> (<refusal>)`; the caller names the unit
/// in front (`micro-batch`, `dispatch`).
impl std::fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} (requested {} B, {} B in use, budget {} B{})",
            self.index,
            self.action,
            self.requested,
            self.in_use,
            self.budget,
            if self.transient { ", transient" } else { "" }
        )
    }
}

/// How every ladder ends: records [`RecoveryAction::Exhausted`] for work
/// unit `index` and builds the error that carries the whole trail.
pub(crate) fn exhausted(
    events: &mut Vec<RecoveryEvent>,
    index: usize,
    last: OomError,
) -> TrainError {
    events.push(RecoveryEvent::new(index, RecoveryAction::Exhausted, &last));
    TrainError::RecoveryExhausted {
        events: events.clone(),
        last,
    }
}

/// The failover rung, shared by both ladders. `oom` is a permanent
/// whole-device loss ([`OomError::device_lost`]): no retry, degrade or
/// re-split can help, so the device that refused is marked dead and
/// `route` — the round-robin key of the interrupted work — is routed
/// again, now over the survivors, for the caller to replay. The loss says
/// nothing about the estimator, so no calibrator is fed.
///
/// # Errors
///
/// [`TrainError::RecoveryExhausted`] when no device survives — always the
/// case for a lone device, which is a pool of one.
pub(crate) fn fail_over(
    device: &dyn Device,
    events: &mut Vec<RecoveryEvent>,
    index: usize,
    route: usize,
    oom: OomError,
) -> Result<(), TrainError> {
    // A plain device is a lone device: nowhere to fail over to.
    let Some(pool) = device.pool() else {
        return Err(exhausted(events, index, oom));
    };
    let (lost, survivors) = pool.fail_active_device();
    if survivors == 0 {
        return Err(exhausted(events, index, oom));
    }
    let action = RecoveryAction::DeviceLost {
        device: lost,
        survivors,
    };
    events.push(RecoveryEvent::new(index, action, &oom));
    pool.begin_micro_batch(route);
    Ok(())
}

/// The safety margin the scheduler's constraints leave below the budget.
///
/// Scheduling uses `constraint = budget / multiplier`. The multiplier
/// starts at the configured floor (1.0 by default) and moves only on
/// evidence that something failed: a genuine (non-transient) refusal
/// grows it by ×1.25 once per incident, and the epoch driver's rollback
/// rung and checkpoint restore set it. Plan-time estimates are not fed
/// in: the scheduler already validates every group against its exact
/// memory, the same figure the allocation uses, so an estimate below a
/// micro-batch's allocation is no failure, and a fault-free run
/// schedules exactly as one with recovery off. Injected transient faults
/// say nothing about the plan and are not fed in either.
#[derive(Debug, Clone)]
pub struct HeadroomCalibrator {
    multiplier: f64,
    floor: f64,
}

/// Hard cap on the headroom multiplier: never hand the scheduler less
/// than a quarter of the true budget, or recovery would spiral into
/// absurdly small micro-batches.
const HEADROOM_CAP: f64 = 4.0;

impl HeadroomCalibrator {
    /// Starts with `multiplier = floor` (clamped to `[1, 4]`; a NaN or
    /// infinite floor counts as 1.0).
    pub(crate) fn new(floor: f64) -> Self {
        let floor = if floor.is_finite() {
            floor.clamp(1.0, HEADROOM_CAP)
        } else {
            1.0
        };
        HeadroomCalibrator {
            multiplier: floor,
            floor,
        }
    }

    /// The current safety multiplier.
    pub(crate) fn multiplier(&self) -> f64 {
        self.multiplier
    }

    /// Sets the multiplier directly, clamped to `[floor, cap]` — used by
    /// checkpoint restore and the rollback rung, which must be able to
    /// impose a *larger* margin than the snapshot recorded.
    pub(crate) fn set_multiplier(&mut self, multiplier: f64) {
        self.multiplier = multiplier.clamp(self.floor, HEADROOM_CAP);
    }

    /// The scheduling constraint to use for `budget` bytes of device
    /// memory: `budget / multiplier`, never below 1 byte.
    pub(crate) fn constrain(&self, budget: u64) -> u64 {
        ((budget as f64 / self.multiplier) as u64).max(1)
    }

    /// Feeds one genuine (non-transient) device refusal: grow the margin
    /// geometrically.
    pub(crate) fn observe_oom(&mut self) {
        self.multiplier = (self.multiplier * 1.25).min(HEADROOM_CAP);
    }
}

impl Default for HeadroomCalibrator {
    fn default() -> Self {
        HeadroomCalibrator::new(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_defaults_and_disable() {
        let p = RecoveryPolicy::default();
        assert!(p.enabled);
        assert_eq!(p.max_retries, 3);
        assert_eq!(p.max_resplits, 2);
        assert_eq!(p.headroom, 1.0);
        assert!(!RecoveryPolicy::disabled().enabled);
    }

    #[test]
    fn non_finite_floor_counts_as_one() {
        for floor in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let c = HeadroomCalibrator::new(floor);
            assert_eq!(c.multiplier(), 1.0, "floor {floor}");
            assert_eq!(c.constrain(1000), 1000, "floor {floor}");
        }
        assert_eq!(HeadroomCalibrator::new(0.5).multiplier(), 1.0);
        assert_eq!(HeadroomCalibrator::new(9.0).multiplier(), HEADROOM_CAP);
    }

    #[test]
    fn oom_observation_grows_geometrically_to_cap() {
        let mut c = HeadroomCalibrator::default();
        for _ in 0..20 {
            c.observe_oom();
        }
        assert!((c.multiplier() - 4.0).abs() < 1e-12);
        assert_eq!(c.constrain(4000), 1000);
    }

    #[test]
    fn constrain_never_returns_zero() {
        let mut c = HeadroomCalibrator::default();
        c.observe_oom();
        assert_eq!(c.constrain(0), 1);
        assert_eq!(c.constrain(1), 1);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Repeated genuine refusals monotonically tighten the
            /// constraint (never loosen it), for any starting floor and
            /// any budget.
            #[test]
            fn genuine_refusals_monotonically_tighten(
                floor in 1.0f64..4.0,
                budget in 1u64..u64::MAX / 2,
                refusals in 1usize..40,
            ) {
                let mut c = HeadroomCalibrator::new(floor);
                let mut prev_mult = c.multiplier();
                let mut prev_constraint = c.constrain(budget);
                for _ in 0..refusals {
                    c.observe_oom();
                    prop_assert!(c.multiplier() >= prev_mult);
                    let constraint = c.constrain(budget);
                    prop_assert!(constraint <= prev_constraint);
                    prev_mult = c.multiplier();
                    prev_constraint = constraint;
                }
            }

            /// No sequence of refusals and imposed multipliers drives the
            /// multiplier below the configured floor or above the cap.
            #[test]
            fn never_tightens_below_floor_or_beyond_cap(
                floor in 1.0f64..4.0,
                ops in collection::vec(
                    (0u8..2, 0u64..u64::MAX, 0u64..u64::MAX), 1..60),
            ) {
                let mut c = HeadroomCalibrator::new(floor);
                for (op, num, den) in ops {
                    match op {
                        0 => c.observe_oom(),
                        _ => c.set_multiplier(num as f64 / den.max(1) as f64),
                    }
                    prop_assert!(c.multiplier() >= floor - 1e-12,
                        "multiplier {} fell below floor {floor}", c.multiplier());
                    prop_assert!(c.multiplier() <= HEADROOM_CAP + 1e-12);
                }
            }

            /// `set_multiplier` clamps into `[floor, cap]` from any input,
            /// including NaN-free extremes.
            #[test]
            fn set_multiplier_clamps(
                floor in 1.0f64..4.0,
                m in -1e12f64..1e12,
            ) {
                let mut c = HeadroomCalibrator::new(floor);
                c.set_multiplier(m);
                prop_assert!(c.multiplier() >= floor);
                prop_assert!(c.multiplier() <= HEADROOM_CAP);
            }

            /// The constraint is always at least 1 byte and never exceeds
            /// the budget it was derived from.
            #[test]
            fn constraint_stays_in_bounds(
                floor in 1.0f64..4.0,
                budget in 0u64..u64::MAX / 2,
                refusals in 0usize..20,
            ) {
                let mut c = HeadroomCalibrator::new(floor);
                for _ in 0..refusals {
                    c.observe_oom();
                }
                let constraint = c.constrain(budget);
                prop_assert!(constraint >= 1);
                prop_assert!(constraint <= budget.max(1));
            }
        }
    }

    #[test]
    fn events_display_their_context() {
        let ev = RecoveryEvent {
            index: 3,
            action: RecoveryAction::Retry { attempt: 2 },
            requested: 100,
            in_use: 40,
            budget: 120,
            transient: true,
        };
        let s = ev.to_string();
        assert!(s.starts_with("3: retry #2 (requested 100 B"), "{s}");
        assert!(s.contains("transient"));
        let s = RecoveryEvent {
            action: RecoveryAction::Resplit { seeds: 64, into: 2 },
            transient: false,
            ..ev
        }
        .to_string();
        assert!(s.contains("re-split 64 seeds into 2 groups"));
        assert!(!s.contains("transient"));
        let s = RecoveryAction::DeviceLost {
            device: 1,
            survivors: 3,
        }
        .to_string();
        assert!(s.contains("device 1 lost"), "{s}");
        assert!(s.contains("3 survivor"), "{s}");
        let s = RecoveryAction::DegradeBatch { from: 64, to: 32 }.to_string();
        assert!(s.contains("64 -> 32"), "{s}");
    }
}
