//! The serving recovery ladder.
//!
//! A dispatch that hits a device refusal climbs, in order:
//!
//! 1. **failover** — a permanent device loss (`OomError::device_lost`)
//!    short-circuits everything else: the rung shared with training
//!    (`train::recovery::fail_over`) marks the device dead and re-routes
//!    onto the survivors via [`DevicePool`](crate::train::DevicePool)
//!    round-robin; serving resets the retry budget and charges a
//!    simulated failover penalty;
//! 2. **bounded retry** — transient faults retry up to
//!    [`RecoveryPolicy::max_retries`] times with exponential *simulated*
//!    backoff (never a wall-clock sleep — latency numbers must replay
//!    bit-identically);
//! 3. **degrade batch size** — the first non-transient refusal halves the
//!    loop's effective coalescing width so *future* dispatches are
//!    smaller (recorded once per dispatch);
//! 4. **re-split** — the failing batch is cut in half by seed and each
//!    half retried recursively, up to [`RecoveryPolicy::max_resplits`]
//!    levels deep.
//!
//! Because serving samples each request's neighborhood in isolation
//! (see [`BatchSampler::sample_isolated`](buffalo_sampling::BatchSampler::sample_isolated)),
//! none of these rungs can move an answer bit: a re-split half contains
//! exact copies of its requests' sampled closures, and a failover replays
//! them unchanged on the survivor. Only latencies shift.
//!
//! The policy, the [`RecoveryEvent`] trail and the structured
//! [`TrainError::RecoveryExhausted`] that ends a ladder are training's
//! (see [`crate::train::RecoveryPolicy`]); the climb itself is serving's
//! own, because its rungs come in a different order under different
//! guards.

use crate::train::recovery::{exhausted, fail_over};
use crate::train::{Engine, RecoveryAction, RecoveryEvent, RecoveryPolicy};
use crate::TrainError;
use buffalo_graph::datasets::Dataset;
use buffalo_graph::NodeId;
use buffalo_memsim::{CostModel, Device};
use buffalo_sampling::Batch;

/// Base *simulated* backoff for transient retries, seconds, doubling per
/// attempt. Added to the dispatch's service latency, never slept.
const BACKOFF_BASE_SECONDS: f64 = 1e-3;

/// Simulated seconds one device-loss failover costs (detection +
/// re-route), added to the dispatch latency.
const FAILOVER_PENALTY_SECONDS: f64 = 5e-3;

/// Counts of each ladder rung over a serve run, for reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeRecoveryCounts {
    /// Transient-fault retries.
    pub retries: usize,
    /// Batch-width degradations.
    pub degrades: usize,
    /// Recursive re-splits.
    pub resplits: usize,
    /// Device-loss failovers.
    pub failovers: usize,
}

impl ServeRecoveryCounts {
    /// Tallies a recovery trail.
    pub fn from_events(events: &[RecoveryEvent]) -> Self {
        let mut c = ServeRecoveryCounts::default();
        for e in events {
            match e.action {
                RecoveryAction::Retry { .. } => c.retries += 1,
                RecoveryAction::DegradeBatch { .. } => c.degrades += 1,
                RecoveryAction::Resplit { .. } => c.resplits += 1,
                RecoveryAction::DeviceLost { .. } => c.failovers += 1,
                // Not rungs serving climbs: the first is training's, the
                // second is the end of the ladder.
                RecoveryAction::DegradeSerial | RecoveryAction::Exhausted => {}
            }
        }
        c
    }

    /// Total rungs taken.
    pub fn total(&self) -> usize {
        self.retries + self.degrades + self.resplits + self.failovers
    }
}

/// What one recovered dispatch produced: [`Engine::infer`] outputs plus
/// the simulated seconds recovery itself cost.
#[derive(Debug, Clone)]
pub(crate) struct RecoveredInference {
    /// `(dataset node id, predicted class)` for every request node.
    pub predictions: Vec<(NodeId, u32)>,
    /// Micro-batches executed (summed across re-split halves).
    pub num_micro_batches: usize,
    /// Peak simulated device memory, bytes (max across halves).
    pub peak_mem_bytes: u64,
    /// Simulated device service seconds (summed across halves).
    pub service_seconds: f64,
    /// Simulated seconds charged by recovery: backoffs + failover
    /// penalties.
    pub penalty_seconds: f64,
}

/// Mutable loop state the ladder can adjust across dispatches.
pub(crate) struct LadderState<'a> {
    /// The serve loop's current coalescing width; the degrade rung halves
    /// it (floor 1) so future dispatches shrink.
    pub effective_max_batch: &'a mut usize,
    /// The run-wide recovery trail (appended in rung order).
    pub events: &'a mut Vec<RecoveryEvent>,
}

/// Everything about one top-level dispatch that the ladder does not
/// change while climbing: the engine, the workload, the device, and the
/// policy, plus the dispatch's event label.
#[derive(Clone, Copy)]
pub(crate) struct DispatchCtx<'a> {
    pub engine: &'a Engine,
    pub ds: &'a Dataset,
    pub device: &'a dyn Device,
    pub cost: &'a CostModel,
    pub policy: &'a RecoveryPolicy,
    /// Index of the dispatch (coalesced batch), labels recovery events.
    pub batch_idx: usize,
}

/// Runs [`Engine::infer_with_base`] on `batch`, climbing the serving
/// recovery ladder on OOM. `micro_base` is the run-cumulative
/// micro-batch count (keeps pool round-robin rotating across
/// dispatches); `depth` is the current re-split recursion level;
/// `degraded` tracks whether the degrade rung already fired for this
/// top-level dispatch.
pub(crate) fn infer_with_recovery(
    ctx: &DispatchCtx<'_>,
    batch: &Batch,
    micro_base: usize,
    depth: usize,
    degraded: &mut bool,
    st: &mut LadderState<'_>,
) -> Result<RecoveredInference, TrainError> {
    let DispatchCtx {
        engine,
        ds,
        device,
        cost,
        policy,
        batch_idx,
    } = *ctx;
    let mut attempt = 0usize;
    let mut penalty = 0.0f64;
    let oom = loop {
        match engine.infer_with_base(ds, batch, device, cost, micro_base) {
            Ok(stats) => {
                return Ok(RecoveredInference {
                    predictions: stats.predictions,
                    num_micro_batches: stats.num_micro_batches,
                    peak_mem_bytes: stats.peak_mem_bytes,
                    service_seconds: stats.service_seconds,
                    penalty_seconds: penalty,
                })
            }
            Err(TrainError::Oom(oom)) => {
                if !policy.enabled {
                    return Err(TrainError::Oom(oom));
                }
                // Rung: failover. A lost device cannot serve anything —
                // replay the dispatch on the survivors.
                if oom.device_lost {
                    fail_over(device, st.events, batch_idx, micro_base, oom)?;
                    penalty += FAILOVER_PENALTY_SECONDS;
                    // Fresh device, fresh retry budget.
                    attempt = 0;
                    continue;
                }
                // Rung: bounded retry with simulated exponential backoff.
                // Inference is read-only, so a retry repeats no state
                // change; only transient faults are worth it.
                if oom.transient && attempt < policy.max_retries {
                    attempt += 1;
                    let action = RecoveryAction::Retry { attempt };
                    st.events.push(RecoveryEvent::new(batch_idx, action, &oom));
                    penalty += BACKOFF_BASE_SECONDS * (1u64 << (attempt - 1).min(16)) as f64;
                    continue;
                }
                break oom;
            }
            Err(other) => return Err(other),
        }
    };
    // Rung: degrade the coalescing width, once per top-level dispatch.
    // This cannot save the *current* batch (the engine re-plans
    // identically), but it shrinks every future one.
    if !*degraded && *st.effective_max_batch > 1 {
        *degraded = true;
        let from = *st.effective_max_batch;
        let to = (from / 2).max(1);
        *st.effective_max_batch = to;
        let action = RecoveryAction::DegradeBatch { from, to };
        st.events.push(RecoveryEvent::new(batch_idx, action, &oom));
    }
    // Rung: re-split. Cut the batch in half by seed and retry each half
    // recursively. Isolated sampling makes the halves exact sub-copies,
    // so answers cannot move.
    if depth < policy.max_resplits && batch.num_seeds > 1 {
        let mid = batch.num_seeds.div_ceil(2);
        let action = RecoveryAction::Resplit {
            seeds: batch.num_seeds,
            into: 2,
        };
        st.events.push(RecoveryEvent::new(batch_idx, action, &oom));
        let locals: Vec<NodeId> = (0..batch.num_seeds as NodeId).collect();
        let mut merged = RecoveredInference {
            predictions: Vec::with_capacity(batch.num_seeds),
            num_micro_batches: 0,
            peak_mem_bytes: 0,
            service_seconds: 0.0,
            penalty_seconds: penalty,
        };
        for half in [&locals[..mid], &locals[mid..]] {
            let sub = batch.restrict_to_seeds(half);
            let out = infer_with_recovery(
                ctx,
                &sub,
                micro_base + merged.num_micro_batches,
                depth + 1,
                degraded,
                st,
            )?;
            merged.predictions.extend(out.predictions);
            merged.num_micro_batches += out.num_micro_batches;
            merged.peak_mem_bytes = merged.peak_mem_bytes.max(out.peak_mem_bytes);
            merged.service_seconds += out.service_seconds;
            merged.penalty_seconds += out.penalty_seconds;
        }
        return Ok(merged);
    }
    Err(exhausted(st.events, batch_idx, oom))
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffalo_memsim::OomError;

    #[test]
    fn counts_tally_each_rung() {
        let oom = OomError::new(0, 0, 0);
        let mk = |action| RecoveryEvent::new(0, action, &oom);
        let events = vec![
            mk(RecoveryAction::Retry { attempt: 1 }),
            mk(RecoveryAction::Retry { attempt: 2 }),
            mk(RecoveryAction::DegradeBatch { from: 8, to: 4 }),
            mk(RecoveryAction::Resplit { seeds: 8, into: 2 }),
            mk(RecoveryAction::DeviceLost {
                device: 0,
                survivors: 1,
            }),
            mk(RecoveryAction::Exhausted),
        ];
        let c = ServeRecoveryCounts::from_events(&events);
        assert_eq!(c.retries, 2);
        assert_eq!(c.degrades, 1);
        assert_eq!(c.resplits, 1);
        assert_eq!(c.failovers, 1);
        assert_eq!(c.total(), 5, "Exhausted is not a rung");
    }
}
