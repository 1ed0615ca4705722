//! Deterministic online inference serving on the shared [`Engine`].
//!
//! The serving loop is the engine's second driver (training's epoch loop
//! is the first): it replays a seeded request trace, coalesces concurrent
//! per-node queries into micro-batches, and pushes them through the same
//! Prepare/Execute pipeline and bucket scheduler as training for admission
//! under the device-memory budget.
//!
//! On top of the coalescing loop sits the resilience layer this module's
//! submodules provide:
//!
//! * [`admission`] — a bounded queue with an explicit [`ShedPolicy`] and
//!   per-request deadlines enforced at admission *and* again before
//!   dispatch, so the device never executes work whose requester already
//!   timed out;
//! * [`recovery`] — the inference recovery ladder (failover → bounded
//!   retry → degrade batch width → re-split), speaking training's
//!   [`RecoveryPolicy`] / [`RecoveryEvent`] vocabulary;
//! * [`trace`] — seeded Poisson request traces.
//!
//! Everything is deterministic by construction, the same discipline as
//! `FaultPlan`:
//!
//! * arrivals come from a seeded SplitMix64 stream (Poisson process with
//!   exponential inter-arrival times), so the same spec replays the same
//!   trace;
//! * service times are *simulated* through the engine's [`CostModel`] —
//!   no wall clock ever feeds a latency, and recovery backoffs are
//!   simulated seconds, never sleeps — so throughput and tail percentiles
//!   are bit-stable across runs;
//! * neighborhoods are sampled **per request in isolation**
//!   ([`BatchSampler::sample_isolated`]), so a request's answer is
//!   bitwise identical no matter which other requests were coalesced with
//!   it. Batch boundaries can shift — under load shedding, deadline
//!   drops, fault-driven re-splits, or device failover — without moving a
//!   single answer bit ([`ServeReport::answer_digest`] pins this);
//! * the engine is borrowed immutably ([`Engine::infer_with_base`] takes
//!   `&self`), so serving cannot perturb model parameters or Adam moments.

pub mod admission;
pub mod recovery;
pub mod trace;

pub use admission::{Admission, AdmissionQueue, QueueEntry, ShedPolicy};
pub use recovery::ServeRecoveryCounts;
pub use trace::{Request, RequestTrace};

use crate::fnv::Fnv;
use crate::json::Json;
use crate::train::{Engine, RecoveryEvent, RecoveryPolicy};
use crate::TrainError;
use buffalo_graph::datasets::Dataset;
use buffalo_graph::NodeId;
use buffalo_memsim::{CostModel, Device};
use buffalo_sampling::BatchSampler;
use recovery::{infer_with_recovery, DispatchCtx, LadderState};
use std::collections::BTreeMap;

/// How the serving loop coalesces queries into micro-batches and protects
/// itself under overload and faults.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Maximum requests coalesced into one batch.
    pub max_batch: usize,
    /// How long (simulated seconds) a batch stays open for more arrivals
    /// after its first request, unless it fills first. Must be positive.
    pub max_wait: f64,
    /// Admission queue capacity. Arrivals beyond it are shed per
    /// [`ServeConfig::shed_policy`]. `usize::MAX` (the default) is
    /// effectively unbounded.
    pub queue_depth: usize,
    /// Who pays when the queue is full.
    pub shed_policy: ShedPolicy,
    /// Per-request deadline, simulated seconds from arrival to *dispatch*
    /// (work must start by then; `None` = no deadline). Enforced at
    /// admission (a request the device provably cannot reach in time is
    /// dropped immediately) and again before dispatch (a batch never
    /// executes work whose requesters already timed out).
    pub deadline: Option<f64>,
    /// The serving recovery ladder's limits (`headroom` is training's and
    /// unused here).
    pub recovery: RecoveryPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 64,
            max_wait: 0.05,
            queue_depth: usize::MAX,
            shed_policy: ShedPolicy::RejectNewest,
            deadline: None,
            recovery: RecoveryPolicy::default(),
        }
    }
}

impl ServeConfig {
    /// Rejects degenerate parameter combinations with a structured error
    /// instead of letting the loop spin or divide by zero.
    ///
    /// # Errors
    ///
    /// [`TrainError::InvalidConfig`] when `max_batch == 0`,
    /// `queue_depth == 0`, `max_wait` is non-positive or non-finite, or a
    /// deadline is non-positive or non-finite.
    pub(crate) fn validate(&self) -> Result<(), TrainError> {
        if self.max_batch == 0 {
            return Err(TrainError::InvalidConfig(
                "max_batch must be positive".into(),
            ));
        }
        if self.queue_depth == 0 {
            return Err(TrainError::InvalidConfig(
                "queue_depth must be positive (every request would be shed)".into(),
            ));
        }
        if !(self.max_wait.is_finite() && self.max_wait > 0.0) {
            return Err(TrainError::InvalidConfig(format!(
                "max_wait must be finite and positive, got {}",
                self.max_wait
            )));
        }
        if let Some(d) = self.deadline {
            if !(d.is_finite() && d > 0.0) {
                return Err(TrainError::InvalidConfig(format!(
                    "deadline must be finite and positive, got {d}"
                )));
            }
        }
        Ok(())
    }
}

/// One answered request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServedRequest {
    /// Position in the trace.
    pub index: usize,
    /// The queried node.
    pub node: NodeId,
    /// The predicted class.
    pub class: u32,
    /// Simulated arrival time, seconds.
    pub arrival: f64,
    /// Simulated end-to-end latency, seconds: coalescing wait + queueing
    /// behind the device + service time + any recovery penalty.
    pub latency: f64,
}

/// Simulated latency distribution over a serve run.
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    /// Mean latency, seconds.
    pub mean: f64,
    /// Median latency, seconds.
    pub p50: f64,
    /// 95th-percentile latency, seconds.
    pub p95: f64,
    /// 99th-percentile latency, seconds.
    pub p99: f64,
    /// Worst latency, seconds.
    pub max: f64,
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl LatencySummary {
    /// Summarizes a latency sample (need not be sorted). An empty sample
    /// yields all-zero percentiles rather than NaNs.
    pub fn from_latencies(latencies: &[f64]) -> Self {
        if latencies.is_empty() {
            return LatencySummary {
                mean: 0.0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
                max: 0.0,
            };
        }
        let mut sorted = latencies.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        LatencySummary {
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50: percentile(&sorted, 0.50),
            p95: percentile(&sorted, 0.95),
            p99: percentile(&sorted, 0.99),
            max: sorted[sorted.len() - 1],
        }
    }
}

/// Everything a serve run produced: per-request answers, the shed and
/// deadline-missed ledgers, the recovery trail, plus the aggregate
/// numbers `BENCH_serving.json` reports.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Every completed request with its answer and latency, in dispatch
    /// order.
    pub requests: Vec<ServedRequest>,
    /// Trace indices shed for queue capacity, in drop order.
    pub shed: Vec<usize>,
    /// Trace indices dropped because their deadline was unmeetable or
    /// expired before dispatch, in drop order.
    pub deadline_missed: Vec<usize>,
    /// Requests offered for admission (the whole trace). Always equals
    /// `requests.len() + shed.len() + deadline_missed.len()` — exact
    /// accounting, no request unexplained.
    pub num_admitted: usize,
    /// Coalesced batches dispatched.
    pub num_batches: usize,
    /// Micro-batches executed across all dispatches (> `num_batches` when
    /// the bucket scheduler split a batch to fit the budget).
    pub num_micro_batches: usize,
    /// Peak simulated device memory over the run, bytes.
    pub peak_mem_bytes: u64,
    /// The device-memory budget the run was admitted under, bytes.
    pub budget_bytes: u64,
    /// Simulated seconds from first arrival to last completion.
    pub span_seconds: f64,
    /// Completed requests per simulated second.
    pub throughput_rps: f64,
    /// Latency distribution over completed requests.
    pub latency: LatencySummary,
    /// Every recovery rung taken over the run, in order.
    pub recovery: Vec<RecoveryEvent>,
    /// The coalescing width the run ended with (< the configured
    /// `max_batch` if the degrade rung fired).
    pub effective_max_batch: usize,
    /// FNV-1a digest over every completed `(index, node, class, latency)`
    /// tuple plus the shed and missed ledgers — two runs of the same
    /// trace under the same conditions must produce the same digest.
    pub output_digest: u64,
    /// FNV-1a digest over every completed `(index, node, class)` tuple —
    /// latency-free, so it is *fault-invariant*: faults, retries,
    /// re-splits, and failovers shift latencies but must never move this
    /// digest (isolated sampling guarantees it).
    pub answer_digest: u64,
}

impl ServeReport {
    /// Counts of each recovery rung taken.
    pub fn recovery_counts(&self) -> ServeRecoveryCounts {
        ServeRecoveryCounts::from_events(&self.recovery)
    }

    /// The aggregate numbers as a JSON object (the `BENCH_serving.json`
    /// payload and `buffalo serve --json`). Per-request answers are not
    /// included; the digests pin them.
    pub fn to_json(&self, device_name: &str) -> Json {
        let (rc, l) = (self.recovery_counts(), &self.latency);
        let hex = |digest: u64| Json::Str(format!("{digest:016x}"));
        Json::Object(vec![
            ("experiment", "serving".into()),
            ("device", device_name.into()),
            ("budget_bytes", self.budget_bytes.into()),
            ("offered", self.num_admitted.into()),
            ("requests", self.requests.len().into()),
            ("shed", self.shed.len().into()),
            ("deadline_missed", self.deadline_missed.len().into()),
            ("batches", self.num_batches.into()),
            ("micro_batches", self.num_micro_batches.into()),
            ("effective_max_batch", self.effective_max_batch.into()),
            ("peak_mem_bytes", self.peak_mem_bytes.into()),
            ("span_seconds", Json::Float(self.span_seconds)),
            ("throughput_rps", Json::Float(self.throughput_rps)),
            (
                "latency_seconds",
                Json::Object(vec![
                    ("mean", Json::Float(l.mean)),
                    ("p50", Json::Float(l.p50)),
                    ("p95", Json::Float(l.p95)),
                    ("p99", Json::Float(l.p99)),
                    ("max", Json::Float(l.max)),
                ]),
            ),
            (
                "recovery",
                Json::Object(vec![
                    ("retries", rc.retries.into()),
                    ("degrades", rc.degrades.into()),
                    ("resplits", rc.resplits.into()),
                    ("failovers", rc.failovers.into()),
                ]),
            ),
            ("output_digest", hex(self.output_digest)),
            ("answer_digest", hex(self.answer_digest)),
        ])
    }
}

/// Replays `trace` against the engine's model under the device budget.
///
/// Requests pass an [`AdmissionQueue`] (deadline + capacity checks), then
/// coalesce in arrival order: a batch opens at its first request's
/// arrival and dispatches when it fills (the current effective width) or
/// its window closes (`max_wait`, capped by the deadline so the window
/// itself never expires its own members), whichever is first — but never
/// before the device finishes the previous batch (one simulated device
/// pool, in-order dispatch). Immediately before dispatch, members whose
/// deadline has passed are dropped as missed, so no device time is spent
/// on dead work. Duplicate nodes in a batch are answered by one shared
/// query and fanned back out.
///
/// Each dispatch samples the queried nodes' neighborhoods **in
/// isolation** ([`BatchSampler::sample_isolated`], seeded by
/// `trace.seed`) and runs [`Engine::infer_with_base`] through the serving recovery
/// ladder: the same Prepare/Execute pipeline as training, with the
/// bucket scheduler splitting any dispatch whose footprint exceeds the
/// budget, and transient OOMs / device losses climbing the ladder
/// instead of aborting the run.
///
/// # Errors
///
/// * [`TrainError::InvalidConfig`] for an empty trace, an invalid
///   [`ServeConfig`] (see `ServeConfig::validate`), or a query for a
///   node outside the dataset.
/// * [`TrainError::RecoveryExhausted`] when every ladder rung failed
///   for one dispatch (or any [`Engine::infer_with_base`] failure with recovery
///   disabled).
pub fn serve_trace(
    engine: &Engine,
    ds: &Dataset,
    device: &dyn Device,
    cost: &CostModel,
    trace: &RequestTrace,
    cfg: &ServeConfig,
) -> Result<ServeReport, TrainError> {
    cfg.validate()?;
    if trace.requests.is_empty() {
        return Err(TrainError::InvalidConfig("empty request trace".into()));
    }
    let num_nodes = ds.graph.num_nodes();
    if let Some(r) = trace
        .requests
        .iter()
        .find(|r| (r.node as usize) >= num_nodes)
    {
        return Err(TrainError::InvalidConfig(format!(
            "request for node {} outside dataset of {num_nodes} nodes",
            r.node
        )));
    }
    let sampler = BatchSampler::new(engine.config().fanouts.clone());
    let mut queue = AdmissionQueue::new(cfg.queue_depth, cfg.shed_policy);
    let mut served: Vec<ServedRequest> = Vec::with_capacity(trace.requests.len());
    let mut events: Vec<RecoveryEvent> = Vec::new();
    let mut effective_max_batch = cfg.max_batch;
    let mut device_free = 0.0f64;
    let mut peak_mem = 0u64;
    let mut num_batches = 0usize;
    let mut num_micro_batches = 0usize;
    // The window a batch may stay open: the configured wait, but never so
    // long that the batch's own oldest member times out waiting for it.
    let window = match cfg.deadline {
        Some(d) => cfg.max_wait.min(d),
        None => cfg.max_wait,
    };
    let mut i = 0usize; // next trace arrival to offer
    let n = trace.requests.len();
    while i < n || !queue.is_empty() {
        if queue.is_empty() {
            let r = trace.requests[i];
            queue.offer(
                QueueEntry {
                    index: i,
                    node: r.node,
                    arrival: r.arrival,
                },
                device_free,
                cfg.deadline,
            );
            i += 1;
            continue;
        }
        // Decide the next dispatch from the queue front: how many queued
        // entries fall inside the open window, and when they'd go.
        let (close, take, last_taken_arrival) = {
            let mut it = queue.entries();
            let front = match it.next() {
                Some(f) => *f,
                None => continue,
            };
            let close = front.arrival + window;
            let mut take = 1usize;
            let mut last = front.arrival;
            for e in it {
                if take >= effective_max_batch || e.arrival > close {
                    break;
                }
                take += 1;
                last = e.arrival;
            }
            (close, take, last)
        };
        // A full batch is ready at its last arrival; an unfilled one waits
        // out its window. Either way the device must be free first.
        let ready = if take == effective_max_batch {
            last_taken_arrival
        } else {
            close
        };
        let t_dispatch = ready.max(device_free);
        // Any arrival at or before the dispatch instant joins the queue
        // first — it may still make this batch, and under `ShedOldest` it
        // may evict the current front, so recompute from scratch.
        if i < n && trace.requests[i].arrival <= t_dispatch {
            let r = trace.requests[i];
            queue.offer(
                QueueEntry {
                    index: i,
                    node: r.node,
                    arrival: r.arrival,
                },
                device_free,
                cfg.deadline,
            );
            i += 1;
            continue;
        }
        // Dispatch: pop the window, then drop members whose deadline
        // passed while they queued (the device never executes dead work).
        let group = queue.take_front(take);
        let mut live: Vec<QueueEntry> = Vec::with_capacity(group.len());
        for e in group {
            if let Some(d) = cfg.deadline {
                if t_dispatch > e.arrival + d {
                    queue.missed.push(e.index);
                    continue;
                }
            }
            live.push(e);
        }
        if live.is_empty() {
            continue;
        }
        // Coalesce duplicate nodes: one query per unique node, answers
        // fanned back out below.
        let mut seeds: Vec<NodeId> = live.iter().map(|e| e.node).collect();
        seeds.sort_unstable();
        seeds.dedup();
        let mut degraded = false;
        let out = infer_with_recovery(
            &DispatchCtx {
                engine,
                ds,
                sampler: &sampler,
                sample_seed: trace.seed,
                device,
                cost,
                policy: &cfg.recovery,
                batch_idx: num_batches,
            },
            &seeds,
            num_micro_batches,
            0,
            &mut degraded,
            &mut LadderState {
                effective_max_batch: &mut effective_max_batch,
                events: &mut events,
            },
        )?;
        peak_mem = peak_mem.max(out.peak_mem_bytes);
        num_micro_batches += out.num_micro_batches;
        let classes: BTreeMap<NodeId, u32> = out.predictions.iter().copied().collect();
        let done = t_dispatch + out.service_seconds + out.penalty_seconds;
        for e in &live {
            let class = classes.get(&e.node).copied().ok_or_else(|| {
                TrainError::InvalidConfig(format!(
                    "inference returned no class for node {}",
                    e.node
                ))
            })?;
            served.push(ServedRequest {
                index: e.index,
                node: e.node,
                class,
                arrival: e.arrival,
                latency: done - e.arrival,
            });
        }
        device_free = done;
        num_batches += 1;
    }
    let latencies: Vec<f64> = served.iter().map(|r| r.latency).collect();
    let latency = LatencySummary::from_latencies(&latencies);
    let (span_seconds, throughput_rps) = if served.is_empty() {
        (0.0, 0.0)
    } else {
        let span = device_free - trace.requests[0].arrival;
        (span, served.len() as f64 / span)
    };
    let mut answers = Fnv::new();
    for r in &served {
        answers.u64(r.index as u64);
        answers.u64(r.node as u64);
        answers.u64(r.class as u64);
    }
    let mut output = Fnv::new();
    for r in &served {
        output.u64(r.index as u64);
        output.u64(r.node as u64);
        output.u64(r.class as u64);
        output.u64(r.latency.to_bits());
    }
    for &idx in &queue.shed {
        output.u64(idx as u64);
    }
    for &idx in &queue.missed {
        output.u64(idx as u64);
    }
    Ok(ServeReport {
        num_admitted: n,
        num_batches,
        num_micro_batches,
        peak_mem_bytes: peak_mem,
        budget_bytes: device.budget(),
        span_seconds,
        throughput_rps,
        latency,
        recovery: events,
        effective_max_batch,
        output_digest: output.0,
        answer_digest: answers.0,
        shed: queue.shed,
        deadline_missed: queue.missed,
        requests: served,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{Engine, RecoveryAction, TrainConfig};
    use buffalo_graph::datasets::{self, DatasetName};
    use buffalo_memsim::{AggregatorKind, DeviceMemory, DevicePool, FaultPlan, GnnShape};
    use buffalo_par::Parallelism;
    use proptest::prelude::*;

    fn engine_and_ds() -> (Engine, Dataset) {
        let ds = datasets::load(DatasetName::Cora, 7);
        let config = TrainConfig {
            shape: GnnShape::new(
                ds.spec.feat_dim,
                16,
                2,
                ds.spec.num_classes,
                AggregatorKind::Mean,
            ),
            fanouts: vec![5, 5],
            lr: 0.01,
            seed: 99,
            parallelism: Parallelism::auto(),
        };
        (Engine::buffalo(config, 0.24), ds)
    }

    fn answers(r: &ServeReport) -> Vec<(usize, NodeId, u32)> {
        r.requests
            .iter()
            .map(|q| (q.index, q.node, q.class))
            .collect()
    }

    #[test]
    fn serve_is_deterministic_across_runs() {
        let (engine, ds) = engine_and_ds();
        let device = DeviceMemory::with_gib(24.0);
        let cost = CostModel::rtx6000();
        let trace = RequestTrace::poisson(96, 200.0, ds.graph.num_nodes(), 13).unwrap();
        let cfg = ServeConfig::default();
        let a = serve_trace(&engine, &ds, &device, &cost, &trace, &cfg).unwrap();
        let b = serve_trace(&engine, &ds, &device, &cost, &trace, &cfg).unwrap();
        assert_eq!(a.output_digest, b.output_digest);
        assert_eq!(a.answer_digest, b.answer_digest);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.throughput_rps.to_bits(), b.throughput_rps.to_bits());
        assert_eq!(a.latency.p99.to_bits(), b.latency.p99.to_bits());
        // Every request answered, in trace order; nothing shed or missed.
        assert_eq!(a.requests.len(), trace.requests.len());
        assert_eq!(a.num_admitted, trace.requests.len());
        assert!(a.shed.is_empty());
        assert!(a.deadline_missed.is_empty());
        assert!(a.recovery.is_empty(), "no faults, no recovery");
        assert!(a.requests.iter().enumerate().all(|(i, r)| r.index == i));
        assert!(a.latency.p50 <= a.latency.p95);
        assert!(a.latency.p95 <= a.latency.p99);
        assert!(a.latency.p99 <= a.latency.max);
        assert!(a.throughput_rps > 0.0);
    }

    #[test]
    fn coalescing_respects_max_batch_and_window() {
        let (engine, ds) = engine_and_ds();
        let device = DeviceMemory::with_gib(24.0);
        let cost = CostModel::rtx6000();
        let trace = RequestTrace::poisson(40, 500.0, ds.graph.num_nodes(), 21).unwrap();
        let singles = serve_trace(
            &engine,
            &ds,
            &device,
            &cost,
            &trace,
            &ServeConfig {
                max_batch: 1,
                max_wait: 10.0,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(singles.num_batches, 40, "max_batch=1 forbids coalescing");
        let coalesced = serve_trace(
            &engine,
            &ds,
            &device,
            &cost,
            &trace,
            &ServeConfig {
                max_batch: 40,
                max_wait: 10.0,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(coalesced.num_batches, 1, "wide window coalesces everything");
        assert!(
            coalesced.span_seconds < singles.span_seconds,
            "batching must beat per-request dispatch: {} vs {}",
            coalesced.span_seconds,
            singles.span_seconds
        );
    }

    #[test]
    fn answers_are_composition_independent() {
        let (engine, ds) = engine_and_ds();
        let device = DeviceMemory::with_gib(24.0);
        let cost = CostModel::rtx6000();
        let trace = RequestTrace::poisson(48, 400.0, ds.graph.num_nodes(), 19).unwrap();
        let wide = serve_trace(
            &engine,
            &ds,
            &device,
            &cost,
            &trace,
            &ServeConfig {
                max_batch: 64,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let narrow = serve_trace(
            &engine,
            &ds,
            &device,
            &cost,
            &trace,
            &ServeConfig {
                max_batch: 1,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        assert!(wide.num_batches < narrow.num_batches);
        // Different batch compositions, bitwise-identical answers: the
        // whole point of isolated per-request sampling.
        assert_eq!(answers(&wide), answers(&narrow));
        assert_eq!(wide.answer_digest, narrow.answer_digest);
        // Latency-bearing digests legitimately differ.
        assert_ne!(wide.output_digest, narrow.output_digest);
    }

    #[test]
    fn serving_respects_a_tight_budget_by_splitting() {
        let (engine, ds) = engine_and_ds();
        let cost = CostModel::rtx6000();
        // Probe the single-batch footprint, then serve under 60% of it.
        let probe = DeviceMemory::with_gib(24.0);
        let trace = RequestTrace::poisson(64, 1e6, ds.graph.num_nodes(), 3).unwrap();
        let cfg = ServeConfig {
            max_batch: 64,
            max_wait: 1.0,
            ..ServeConfig::default()
        };
        let wide = serve_trace(&engine, &ds, &probe, &cost, &trace, &cfg).unwrap();
        assert_eq!(wide.num_batches, 1);
        let budget = wide.peak_mem_bytes * 3 / 5;
        let tight = DeviceMemory::new(budget);
        let report = serve_trace(&engine, &ds, &tight, &cost, &trace, &cfg).unwrap();
        assert!(
            report.num_micro_batches > report.num_batches,
            "tight budget should split the dispatch"
        );
        assert!(report.peak_mem_bytes <= budget);
        assert_eq!(report.budget_bytes, budget);
        // Same queries, same model: answers must match the roomy run.
        assert_eq!(answers(&wide), answers(&report));
        assert_eq!(wide.answer_digest, report.answer_digest);
    }

    #[test]
    fn overload_sheds_exactly_and_accounts() {
        let (engine, ds) = engine_and_ds();
        let device = DeviceMemory::with_gib(24.0);
        let cost = CostModel::rtx6000();
        // A hard burst: everything arrives almost at once, far beyond the
        // queue. Small max_batch so the queue drains slowly.
        let trace = RequestTrace::poisson(64, 100_000.0, ds.graph.num_nodes(), 23).unwrap();
        let unshed = serve_trace(
            &engine,
            &ds,
            &device,
            &cost,
            &trace,
            &ServeConfig {
                max_batch: 4,
                max_wait: 0.001,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        assert!(unshed.shed.is_empty());
        for policy in [ShedPolicy::RejectNewest, ShedPolicy::ShedOldest] {
            let r = serve_trace(
                &engine,
                &ds,
                &device,
                &cost,
                &trace,
                &ServeConfig {
                    max_batch: 4,
                    max_wait: 0.001,
                    queue_depth: 6,
                    shed_policy: policy,
                    ..ServeConfig::default()
                },
            )
            .unwrap();
            assert!(!r.shed.is_empty(), "{policy}: burst must shed");
            assert!(r.deadline_missed.is_empty(), "no deadline configured");
            assert_eq!(
                r.num_admitted,
                r.requests.len() + r.shed.len() + r.deadline_missed.len(),
                "{policy}: accounting must be exact"
            );
            // No index appears twice across the three ledgers, and every
            // trace index is explained.
            let mut all: Vec<usize> = r.requests.iter().map(|q| q.index).collect();
            all.extend(&r.shed);
            all.extend(&r.deadline_missed);
            all.sort_unstable();
            let before = all.len();
            all.dedup();
            assert_eq!(all.len(), before, "{policy}: ledgers must be disjoint");
            assert_eq!(all, (0..64).collect::<Vec<_>>());
            // Completed answers match the unshed run's, per index.
            let full: BTreeMap<usize, (NodeId, u32)> = unshed
                .requests
                .iter()
                .map(|q| (q.index, (q.node, q.class)))
                .collect();
            for q in &r.requests {
                assert_eq!(
                    full.get(&q.index),
                    Some(&(q.node, q.class)),
                    "{policy}: shedding must not change surviving answers"
                );
            }
        }
    }

    #[test]
    fn deadlines_drop_unmeetable_requests_exactly() {
        let (engine, ds) = engine_and_ds();
        let device = DeviceMemory::with_gib(24.0);
        let cost = CostModel::rtx6000();
        let trace = RequestTrace::poisson(64, 100_000.0, ds.graph.num_nodes(), 29).unwrap();
        let cfg = ServeConfig {
            max_batch: 4,
            max_wait: 0.001,
            deadline: Some(0.005),
            ..ServeConfig::default()
        };
        let r = serve_trace(&engine, &ds, &device, &cost, &trace, &cfg).unwrap();
        assert!(
            !r.deadline_missed.is_empty(),
            "a burst behind a slow device must miss deadlines"
        );
        assert!(r.shed.is_empty(), "queue is unbounded here");
        assert_eq!(
            r.num_admitted,
            r.requests.len() + r.shed.len() + r.deadline_missed.len()
        );
        // Deterministic replay, drops included.
        let r2 = serve_trace(&engine, &ds, &device, &cost, &trace, &cfg).unwrap();
        assert_eq!(r.output_digest, r2.output_digest);
        assert_eq!(r.deadline_missed, r2.deadline_missed);
    }

    #[test]
    fn transient_faults_do_not_move_answers() {
        let (engine, ds) = engine_and_ds();
        let cost = CostModel::rtx6000();
        let trace = RequestTrace::poisson(64, 300.0, ds.graph.num_nodes(), 31).unwrap();
        let cfg = ServeConfig::default();
        let clean_dev = DeviceMemory::with_gib(24.0);
        let clean = serve_trace(&engine, &ds, &clean_dev, &cost, &trace, &cfg).unwrap();
        let plan = FaultPlan::parse("transient:p=0.2,seed=11").unwrap();
        let faulty = DevicePool::homogeneous(1, 24 << 30, &plan).unwrap();
        let chaos = serve_trace(&engine, &ds, &faulty, &cost, &trace, &cfg).unwrap();
        assert_eq!(
            chaos.requests.len(),
            trace.requests.len(),
            "every admitted request completes despite faults"
        );
        assert_eq!(answers(&clean), answers(&chaos));
        assert_eq!(clean.answer_digest, chaos.answer_digest);
        let rc = chaos.recovery_counts();
        assert!(rc.retries > 0, "p=0.2 over this many allocs must retry");
        // Latency pays for the retries.
        assert!(chaos.latency.max >= clean.latency.max);
    }

    #[test]
    fn device_loss_fails_over_without_moving_answers() {
        let (engine, ds) = engine_and_ds();
        let cost = CostModel::rtx6000();
        let trace = RequestTrace::poisson(64, 300.0, ds.graph.num_nodes(), 31).unwrap();
        let cfg = ServeConfig::default();
        let clean_dev = DeviceMemory::with_gib(24.0);
        let clean = serve_trace(&engine, &ds, &clean_dev, &cost, &trace, &cfg).unwrap();
        let budget = clean_dev.budget();
        // Serving allocs once per micro-batch, so device 1 (every other
        // dispatch in the 2-member rotation) dies at its second one.
        let plan = FaultPlan::parse("lose:1,2").unwrap();
        let pool = DevicePool::homogeneous(2, budget, &plan).unwrap();
        let chaos = serve_trace(&engine, &ds, &pool, &cost, &trace, &cfg).unwrap();
        assert_eq!(chaos.requests.len(), trace.requests.len());
        let rc = chaos.recovery_counts();
        assert!(rc.failovers >= 1, "device 1 must be lost and failed over");
        assert_eq!(pool.dead(), vec![1]);
        assert_eq!(answers(&clean), answers(&chaos));
        assert_eq!(clean.answer_digest, chaos.answer_digest);
    }

    #[test]
    fn a_budget_shrink_resplits_and_completes() {
        let (engine, ds) = engine_and_ds();
        let cost = CostModel::rtx6000();
        let trace = RequestTrace::poisson(64, 300.0, ds.graph.num_nodes(), 31).unwrap();
        let cfg = ServeConfig::default();
        let clean_dev = DeviceMemory::with_gib(24.0);
        let clean = serve_trace(&engine, &ds, &clean_dev, &cost, &trace, &cfg).unwrap();
        // The third allocation finds the budget cut to a fifth: that
        // dispatch was planned against the whole budget, so its one
        // micro-batch is refused and the ladder halves it.
        let plan = FaultPlan::parse("shrink:at=3,factor=0.2,restore=4").unwrap();
        let shrinking = DevicePool::homogeneous(1, clean.peak_mem_bytes * 2, &plan).unwrap();
        let r = serve_trace(&engine, &ds, &shrinking, &cost, &trace, &cfg).unwrap();
        let rc = r.recovery_counts();
        assert!(rc.resplits > 0, "{:?}", r.recovery);
        assert_eq!(r.requests.len(), trace.requests.len());
        assert_eq!(answers(&clean), answers(&r));
        // A re-splitting run replays bit for bit, latencies included.
        assert_eq!(r.answer_digest, 0x9ae1_1f6e_3795_51a1);
        assert_eq!(r.output_digest, 0x40c0_dcad_1de6_bca9);
    }

    #[test]
    fn exhausted_ladder_is_a_structured_error() {
        let (engine, ds) = engine_and_ds();
        let cost = CostModel::rtx6000();
        let trace = RequestTrace::poisson(8, 1e6, ds.graph.num_nodes(), 37).unwrap();
        // Every alloc fails transiently: retries burn out, the degrade and
        // re-split rungs cannot help, the ladder exhausts.
        let spec = {
            let nths: Vec<String> = (1..=400).map(|i| format!("nth={i}")).collect();
            format!("transient:{}", nths.join(","))
        };
        let plan = FaultPlan::parse(&spec).unwrap();
        let faulty = DevicePool::homogeneous(1, 24 << 30, &plan).unwrap();
        let err = serve_trace(
            &engine,
            &ds,
            &faulty,
            &cost,
            &trace,
            &ServeConfig::default(),
        )
        .unwrap_err();
        match err {
            TrainError::RecoveryExhausted { events, .. } => {
                assert!(matches!(
                    events.last().map(|e| &e.action),
                    Some(RecoveryAction::Exhausted)
                ));
                let rc = ServeRecoveryCounts::from_events(&events);
                assert!(rc.retries > 0, "retries must have been attempted");
                assert!(rc.resplits > 0, "re-split must have been attempted");
                assert!(rc.degrades > 0, "degrade must have fired");
            }
            other => panic!("expected RecoveryExhausted, got {other:?}"),
        }
    }

    #[test]
    fn a_lone_lost_device_exhausts_like_a_pool_of_one() {
        // Regression: a lone device that died used to report one live
        // device forever, so the dispatch "failed over" onto it without
        // end. A pool of one leaves no survivor: the trail is one
        // `Exhausted` event.
        let (engine, ds) = engine_and_ds();
        let cost = CostModel::rtx6000();
        let trace = RequestTrace::poisson(16, 300.0, ds.graph.num_nodes(), 31).unwrap();
        let plan = FaultPlan::parse("lose:0,2").unwrap();
        let pool = DevicePool::homogeneous(1, 24 << 30, &plan).unwrap();
        // Narrow batches: one allocation per dispatch, several dispatches.
        let cfg = ServeConfig {
            max_batch: 4,
            ..ServeConfig::default()
        };
        let events = match serve_trace(&engine, &ds, &pool, &cost, &trace, &cfg) {
            Err(TrainError::RecoveryExhausted { events, last }) => {
                assert!(last.device_lost);
                events
            }
            other => panic!("expected RecoveryExhausted, got {other:?}"),
        };
        assert_eq!(events.len(), 1, "trail grew: {events:?}");
        assert_eq!(events[0].action, RecoveryAction::Exhausted);
        assert_eq!(events[0].index, 1, "the second dispatch hit the loss");
    }

    #[test]
    fn disabled_recovery_propagates_the_raw_oom() {
        let (engine, ds) = engine_and_ds();
        let cost = CostModel::rtx6000();
        let trace = RequestTrace::poisson(8, 1e6, ds.graph.num_nodes(), 37).unwrap();
        let plan = FaultPlan::parse("transient:nth=1").unwrap();
        let faulty = DevicePool::homogeneous(1, 24 << 30, &plan).unwrap();
        let cfg = ServeConfig {
            recovery: RecoveryPolicy::disabled(),
            ..ServeConfig::default()
        };
        assert!(matches!(
            serve_trace(&engine, &ds, &faulty, &cost, &trace, &cfg),
            Err(TrainError::Oom(_))
        ));
    }

    #[test]
    fn report_json_carries_the_headline_numbers() {
        let (engine, ds) = engine_and_ds();
        let device = DeviceMemory::with_gib(24.0);
        let cost = CostModel::rtx6000();
        let trace = RequestTrace::poisson(16, 100.0, ds.graph.num_nodes(), 5).unwrap();
        let report = serve_trace(
            &engine,
            &ds,
            &device,
            &cost,
            &trace,
            &ServeConfig::default(),
        )
        .unwrap();
        let json = report.to_json("rtx6000");
        let field = |key: &str| json.get(key).cloned();
        let int = |v: usize| Some(Json::Int(v as u64));
        let Json::Object(fields) = &json else {
            panic!("not an object: {json:?}")
        };
        assert_eq!(fields.len(), 17, "{json:?}");
        assert_eq!(field("experiment"), Some("serving".into()));
        assert_eq!(field("device"), Some("rtx6000".into()));
        assert_eq!(field("budget_bytes"), Some(Json::Int(device.budget())));
        assert_eq!(field("offered"), int(16));
        assert_eq!(field("requests"), int(16));
        assert_eq!(field("shed"), int(0));
        assert_eq!(field("deadline_missed"), int(0));
        assert_eq!(field("batches"), int(report.num_batches));
        assert_eq!(field("micro_batches"), int(report.num_micro_batches));
        assert_eq!(field("effective_max_batch"), int(64));
        assert_eq!(
            field("peak_mem_bytes"),
            Some(Json::Int(report.peak_mem_bytes))
        );
        assert_eq!(
            field("span_seconds"),
            Some(Json::Float(report.span_seconds))
        );
        assert_eq!(
            field("throughput_rps"),
            Some(Json::Float(report.throughput_rps))
        );
        assert_eq!(
            json.get("latency_seconds").and_then(|l| l.get("p99")),
            Some(&Json::Float(report.latency.p99))
        );
        assert_eq!(
            json.get("recovery").and_then(|r| r.get("failovers")),
            Some(&Json::Int(0))
        );
        let hex = |d: u64| Some(Json::Str(format!("{d:016x}")));
        assert_eq!(field("output_digest"), hex(report.output_digest));
        assert_eq!(field("answer_digest"), hex(report.answer_digest));
    }

    #[test]
    fn percentile_edge_cases_are_exact() {
        // Empty: all zeros, no NaN.
        let empty = LatencySummary::from_latencies(&[]);
        assert_eq!(empty.mean, 0.0);
        assert_eq!(empty.p50, 0.0);
        assert_eq!(empty.p95, 0.0);
        assert_eq!(empty.p99, 0.0);
        assert_eq!(empty.max, 0.0);
        // Single sample: every percentile is that sample.
        let one = LatencySummary::from_latencies(&[0.25]);
        assert_eq!(one.mean, 0.25);
        assert_eq!(one.p50, 0.25);
        assert_eq!(one.p95, 0.25);
        assert_eq!(one.p99, 0.25);
        assert_eq!(one.max, 0.25);
        // All identical: flat distribution.
        let flat = LatencySummary::from_latencies(&[0.5; 37]);
        assert_eq!(flat.p50, 0.5);
        assert_eq!(flat.p95, 0.5);
        assert_eq!(flat.p99, 0.5);
        assert_eq!(flat.max, 0.5);
        // Known distribution 1..=100 (unsorted input): nearest-rank
        // percentiles are hand-computable — rank = ceil(q * 100).
        let mut known: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        known.reverse();
        let k = LatencySummary::from_latencies(&known);
        assert_eq!(k.p50, 50.0);
        assert_eq!(k.p95, 95.0);
        assert_eq!(k.p99, 99.0);
        assert_eq!(k.max, 100.0);
        assert!((k.mean - 50.5).abs() < 1e-12);
        // Small known sample: 10 values — p50 = ceil(5)th, p95/p99 round
        // up to the 10th.
        let ten: Vec<f64> = (1..=10).map(|v| v as f64).collect();
        let t = LatencySummary::from_latencies(&ten);
        assert_eq!(t.p50, 5.0);
        assert_eq!(t.p95, 10.0);
        assert_eq!(t.p99, 10.0);
    }

    #[test]
    fn bad_configs_are_rejected_not_panicked() {
        let (engine, ds) = engine_and_ds();
        let device = DeviceMemory::with_gib(24.0);
        let cost = CostModel::rtx6000();
        let trace = RequestTrace::poisson(4, 10.0, ds.graph.num_nodes(), 1).unwrap();
        let run =
            |t: &RequestTrace, cfg: &ServeConfig| serve_trace(&engine, &ds, &device, &cost, t, cfg);
        let empty = RequestTrace {
            requests: Vec::new(),
            seed: 0,
        };
        assert!(matches!(
            run(&empty, &ServeConfig::default()),
            Err(TrainError::InvalidConfig(_))
        ));
        for bad in [
            ServeConfig {
                max_batch: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                queue_depth: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                max_wait: 0.0,
                ..ServeConfig::default()
            },
            ServeConfig {
                max_wait: -1.0,
                ..ServeConfig::default()
            },
            ServeConfig {
                max_wait: f64::NAN,
                ..ServeConfig::default()
            },
            ServeConfig {
                deadline: Some(0.0),
                ..ServeConfig::default()
            },
            ServeConfig {
                deadline: Some(f64::INFINITY),
                ..ServeConfig::default()
            },
        ] {
            assert!(
                matches!(run(&trace, &bad), Err(TrainError::InvalidConfig(_))),
                "{bad:?} must be rejected"
            );
        }
        let alien = RequestTrace {
            requests: vec![Request {
                arrival: 0.0,
                node: u32::MAX,
            }],
            seed: 0,
        };
        assert!(matches!(
            run(&alien, &ServeConfig::default()),
            Err(TrainError::InvalidConfig(_))
        ));
    }

    /// `sample_isolated` asserts non-empty, in-range, duplicate-free
    /// seeds. Serving checks every id against the dataset up front and
    /// sorts + dedups each dispatch, so no request id reaches those
    /// asserts: repeats share one query, and the first id past the end is
    /// a structured error like any other.
    #[test]
    fn request_ids_cannot_reach_the_sampler_asserts() {
        let (engine, ds) = engine_and_ds();
        let device = DeviceMemory::with_gib(24.0);
        let cost = CostModel::rtx6000();
        let at = |node: NodeId| Request { arrival: 0.0, node };
        let repeats = RequestTrace {
            requests: vec![at(5), at(5), at(3), at(5)],
            seed: 4,
        };
        let cfg = ServeConfig::default();
        let r = serve_trace(&engine, &ds, &device, &cost, &repeats, &cfg).unwrap();
        assert_eq!(r.requests.len(), 4);
        assert_eq!(
            r.num_batches, 1,
            "one window, one dispatch of two unique nodes"
        );
        assert_eq!(r.requests[0].class, r.requests[1].class);
        assert_eq!(r.requests[0].class, r.requests[3].class);
        let past_the_end = RequestTrace {
            requests: vec![at(5), at(ds.graph.num_nodes() as NodeId)],
            seed: 4,
        };
        assert!(matches!(
            serve_trace(&engine, &ds, &device, &cost, &past_the_end, &cfg),
            Err(TrainError::InvalidConfig(_))
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Admission accounting under any coalescing width, queue bound,
        /// shed policy, deadline and trace: every offered request is
        /// completed, shed or missed — exactly one of the three — and a
        /// completed request's class is the one an unconstrained run gives
        /// it.
        #[test]
        fn admission_accounts_for_every_request(
            max_batch in 1usize..16,
            queue in (0usize..2, 1usize..12),
            shed_oldest in 0usize..2,
            deadline in (0usize..2, 5u64..201),
            (n, rate, seed) in (1usize..65, 100.0f64..100_000.0, 0u64..1_000),
        ) {
            let (engine, ds) = engine_and_ds();
            let device = DeviceMemory::with_gib(24.0);
            let cost = CostModel::rtx6000();
            let trace = RequestTrace::poisson(n, rate, ds.graph.num_nodes(), seed).unwrap();
            let cfg = ServeConfig {
                max_batch,
                max_wait: 0.001,
                queue_depth: if queue.0 == 0 { usize::MAX } else { queue.1 },
                shed_policy: [ShedPolicy::RejectNewest, ShedPolicy::ShedOldest][shed_oldest],
                deadline: (deadline.0 == 1).then_some(deadline.1 as f64 / 1_000.0),
                ..ServeConfig::default()
            };
            let r = serve_trace(&engine, &ds, &device, &cost, &trace, &cfg).unwrap();
            let unconstrained = ServeConfig::default();
            let free = serve_trace(&engine, &ds, &device, &cost, &trace, &unconstrained).unwrap();
            prop_assert_eq!(
                r.num_admitted,
                r.requests.len() + r.shed.len() + r.deadline_missed.len()
            );
            let mut ledgers: Vec<usize> = r.requests.iter().map(|q| q.index).collect();
            ledgers.extend(r.shed.iter().chain(&r.deadline_missed));
            ledgers.sort_unstable();
            prop_assert_eq!(ledgers, (0..n).collect::<Vec<_>>());
            let class: BTreeMap<usize, u32> =
                free.requests.iter().map(|q| (q.index, q.class)).collect();
            for q in &r.requests {
                prop_assert_eq!(class.get(&q.index), Some(&q.class), "index {}", q.index);
            }
        }
    }
}
