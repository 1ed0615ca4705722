//! The staged micro-batch pipeline engine.
//!
//! One training iteration is split into two stages:
//!
//! * **Prepare** (CPU): block generation straight from the sampled batch
//!   (one walk per micro-batch) → feature/label gather, one `Prepared`
//!   per micro-batch. The gather copies every input-layer source row as
//!   f32, except for mean GraphSAGE: there it computes layer 0's
//!   self-term rows and neighbour mean itself, reading a bf16 table in
//!   place, and Execute's forward starts at that layer's GEMMs (see
//!   [`crate::models`]). When the pipeline is enabled this stage runs on
//!   a worker thread feeding a bounded channel.
//! * **Execute** (simulated device): allocate → forward/backward → free,
//!   consuming prepared micro-batches strictly in submission order on the
//!   caller's thread.
//!
//! Because Execute is in-order and single-threaded, gradient accumulation
//! happens in exactly the same order as the serial path — pipelined and
//! serial training produce **bit-identical** losses. The pipeline only
//! changes *when* CPU preparation happens (overlapped with device compute
//! of the previous micro-batch) and *how long* micro-batch tensors stay
//! resident on the simulated device (double-buffered: the previous
//! allocation is released only after the next one lands, falling back to
//! serial residency when both do not fit).
//!
//! Execute is also where OOM **recovery** lives: the device allocation
//! happens *before* any forward/backward work, so a refused micro-batch
//! has contributed nothing to the gradients and every rung of the recovery
//! ladder (degrade double-buffering → bounded retries → re-split →
//! fail over a lost device) is free
//! to re-attempt it without perturbing the math. A retry-only recovery is
//! bit-identical to an undisturbed run; a re-split changes the micro-batch
//! partition (and hence f32 summation order) but still trains every seed
//! exactly once with the original gradient divisor.
//!
//! When the device handle is a *pool* ([`Device::pool`]), Execute
//! routes each top-level micro-batch to a pool member — round-robin over
//! the live devices, see [`DevicePool::begin_micro_batch`] — and a
//! permanent whole-device loss climbs the failover rung: the dead
//! device is excluded from routing, the in-flight micro-batch replays on
//! a survivor, and the math is unchanged because execution stays in-order
//! on the caller's thread, so gradient accumulation order is independent
//! of which device an allocation landed on.
//!
//! [`DevicePool::begin_micro_batch`]: buffalo_memsim::DevicePool::begin_micro_batch
//!
//! The staging itself is written once, in `run_staged`, which takes
//! Prepare and Execute as parameters. Training and inference prepare
//! alike (the walk, then the gather) and differ in their Execute. The
//! simulation (`crate::sim`) prepares the walk alone, or Betty's
//! restrict-then-check, and executes *costed*: measure, allocate, release
//! and book the simulated seconds into the same [`Ledger`] training
//! books into, with no dense math.

use crate::models::GnnModel;
use crate::train::recovery::{
    exhausted, fail_over, HeadroomCalibrator, RecoveryAction, RecoveryEvent, RecoveryPolicy,
};
use crate::train::{gather, Gathered, InferenceStats, IterationStats};
use crate::TrainError;
use buffalo_blocks::{Block, BlockWalker};
use buffalo_bucketing::{BuffaloScheduler, SchedulePlan};
use buffalo_graph::datasets::Dataset;
use buffalo_graph::NodeId;
use buffalo_memsim::{measure, AllocId, CostModel, Device, DeviceTimeline, GnnShape, StageTimings};
use buffalo_sampling::Batch;
use buffalo_tensor::softmax_cross_entropy;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How a trainer schedules its Prepare and Execute stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Whether preparation of micro-batch *i + 1* overlaps device
    /// execution of micro-batch *i*.
    pub enabled: bool,
}

/// Micro-batches in flight between prepare-start and device completion
/// when the stages overlap: double buffering.
pub(crate) const OVERLAP_DEPTH: usize = 2;

impl PipelineConfig {
    /// Strictly serial staging — the classic one-micro-batch-at-a-time
    /// loop. This is the default.
    pub fn serial() -> Self {
        PipelineConfig { enabled: false }
    }

    /// Double-buffered overlap of Prepare and Execute.
    pub fn overlapped() -> Self {
        PipelineConfig { enabled: true }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig::serial()
    }
}

/// One pass over a sampled batch, as both stages and both Execute
/// closures see it: the data source, the plan, the execution environment.
pub(crate) struct Staged<'a> {
    /// The dataset supplying features and labels.
    pub ds: &'a Dataset,
    /// The sampled batch the plan's seed ids refer into.
    pub batch: &'a Batch,
    /// One micro-batch per non-empty group, in gradient-accumulation
    /// order. Whole-batch execution is a plan of one group holding every
    /// seed.
    pub plan: &'a SchedulePlan,
    /// Model shape (for memory/cost accounting).
    pub shape: &'a GnnShape,
    /// The simulated device to allocate on.
    pub device: &'a dyn Device,
    /// The device cost model.
    pub cost: &'a CostModel,
    /// Staging mode.
    pub pipeline: PipelineConfig,
}

/// One micro-batch as Prepare hands it to Execute: owned buffers, moved
/// across the channel, never copied. `D` is what Prepare read from the
/// dataset: the gather for training and inference, nothing for the
/// simulation, whose Execute is costed.
pub(crate) struct Prepared<D> {
    /// The per-layer blocks, input layer first; node ids are the batch's.
    pub blocks: Vec<Block>,
    /// What the blocks read from the dataset.
    pub data: D,
    /// Wall-clock seconds the block walk took.
    pub block_gen_s: f64,
    /// Wall-clock seconds of Prepare's other step: the gather (Betty's
    /// connection check in the simulation, which gathers nothing).
    pub gather_s: f64,
}

/// Prepare's walk alone, as a closure owning its [`BlockWalker`]: the
/// blocks of the micro-batch whose output nodes are `group`, in one walk
/// of the batch graph.
pub(crate) fn walk_blocks(
    batch: &Batch,
    num_layers: usize,
) -> impl FnMut(&[NodeId]) -> Prepared<()> + Send + '_ {
    let mut walker = BlockWalker::default();
    move |group| {
        // lint:allow(wallclock-taint): StageTimings telemetry; overlap accounting never alters numerics (suppresses chain: walk_blocks → Instant::now)
        let t0 = Instant::now();
        let blocks = walker.micro_batch(&batch.graph, batch.num_seeds, group, num_layers);
        Prepared {
            blocks,
            data: (),
            block_gen_s: t0.elapsed().as_secs_f64(),
            gather_s: 0.0,
        }
    }
}

/// The Prepare stage of training and inference, as a closure: the walk,
/// then the gather.
fn walk_and_gather<'a>(
    req: &Staged<'a>,
) -> impl FnMut(&[NodeId]) -> Prepared<Gathered> + Send + 'a {
    let (ds, batch, aggregator) = (req.ds, req.batch, req.shape.aggregator);
    let mut walk = walk_blocks(batch, req.shape.num_layers);
    move |group| {
        let walked = walk(group);
        // lint:allow(wallclock-taint): StageTimings telemetry; gathered features and labels are clock-independent (suppresses chain: walk_and_gather → Instant::now)
        let t1 = Instant::now();
        let data = gather(ds, batch, &walked.blocks, aggregator);
        Prepared {
            data,
            gather_s: t1.elapsed().as_secs_f64(),
            blocks: walked.blocks,
            block_gen_s: walked.block_gen_s,
        }
    }
}

/// One prepared micro-batch queued for execution.
pub(crate) struct MicroWork<'s, W = Prepared<Gathered>> {
    pub prepared: W,
    /// The seed group it was prepared from — what the re-split rung of
    /// the recovery ladder divides.
    seeds: &'s [NodeId],
    /// Index among the pass's top-level micro-batches — the round-robin
    /// shard key a device pool routes by. Re-split sub-groups inherit
    /// their parent's index so they execute on the device the parent was
    /// assigned to.
    assign_idx: usize,
}

/// A plan of `groups` with no estimates and no planning time, as a
/// partitioner's output reaches the staged driver.
pub(crate) fn unestimated(groups: Vec<Vec<NodeId>>) -> SchedulePlan {
    SchedulePlan {
        k: groups.len(),
        groups,
        group_estimates: Vec::new(),
        split_explosion: false,
        scheduling_time: Duration::ZERO,
    }
}

/// Algorithm 3's `K = 1` exit ("treat the original subgraph as the
/// micro-batch"): one group holding every seed.
pub(crate) fn whole_batch_plan(num_seeds: usize) -> SchedulePlan {
    unestimated(vec![(0..num_seeds as NodeId).collect()])
}

/// A plan's micro-batches: every non-empty group.
fn micro_batches(plan: &SchedulePlan) -> impl Iterator<Item = &[NodeId]> {
    plan.groups
        .iter()
        .filter(|group| !group.is_empty())
        .map(Vec::as_slice)
}

/// The staged driver, the one place an iteration's loop is written:
/// `prepare`s the plan's micro-batches in order and hands each to
/// `execute` on the caller's thread, in that order.
///
/// Serial staging prepares and executes in turn. Overlapped staging runs
/// Prepare on a scoped worker thread behind a bounded channel, so the
/// producer stays at most `OVERLAP_DEPTH - 1` prepared-but-unconsumed
/// micro-batches ahead (host-side staging; device residency is capped
/// separately at two allocations by [`Residency`]). Either way `prepare`
/// owns its scratch (a [`BlockWalker`], whose contents between walks
/// never reach the numerics) and never touches the device, so when
/// `execute` routes its micro-batch (`DevicePool::begin_micro_batch`)
/// relative to the preparation is unobservable.
pub(crate) fn run_staged<'a, W, P, E>(
    plan: &'a SchedulePlan,
    depth: usize,
    mut prepare: P,
    mut execute: E,
) -> Result<(), TrainError>
where
    W: Send,
    P: FnMut(&'a [NodeId]) -> W + Send,
    E: FnMut(MicroWork<'a, W>) -> Result<(), TrainError>,
{
    let mut prepared = micro_batches(plan)
        .enumerate()
        .map(move |(assign_idx, seeds)| MicroWork {
            prepared: prepare(seeds),
            seeds,
            assign_idx,
        });
    if depth <= 1 {
        return prepared.try_for_each(execute);
    }
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::sync_channel(depth - 1);
        s.spawn(move || {
            for work in prepared {
                // The consumer hit an error and hung up: stop preparing.
                if tx.send(work).is_err() {
                    break;
                }
            }
        });
        rx.into_iter().try_for_each(&mut execute)
    })
}

/// The staging depth for `req`: 1 (serial) unless the pipeline is enabled
/// and there is a second micro-batch to overlap with.
fn staging_depth(req: &Staged<'_>) -> usize {
    if req.pipeline.enabled {
        OVERLAP_DEPTH.min(micro_batches(req.plan).count().max(1))
    } else {
        1
    }
}

/// Device residency policy for the Execute stage.
///
/// Serial: each micro-batch's allocation is released as soon as its
/// backward pass finishes. Double-buffered: the allocation is held until
/// the *next* micro-batch's allocation succeeds (its tensors land while
/// the previous one computes), so two prepared micro-batches are resident
/// at once; when both do not fit the budget, the policy degrades to serial
/// residency for that handoff instead of faulting.
pub(crate) struct Residency<'d> {
    device: &'d dyn Device,
    double_buffer: bool,
    held: Option<AllocId>,
}

impl<'d> Residency<'d> {
    pub(crate) fn new(device: &'d dyn Device, double_buffer: bool) -> Self {
        Residency {
            device,
            double_buffer,
            held: None,
        }
    }

    pub(crate) fn acquire(&mut self, bytes: u64) -> Result<(), TrainError> {
        let id = match self.device.alloc(bytes) {
            Ok(id) => id,
            Err(first) => {
                // Both micro-batches do not fit together (serial residency
                // holds nothing here): release the previous one first and
                // retry once, serial-style.
                let Some(prev) = self.held.take() else {
                    return Err(first.into());
                };
                self.device.free(prev);
                self.device.alloc(bytes).map_err(|mut second| {
                    // Attribute both attempts: the caller sees the
                    // solo-allocation failure, with the co-resident
                    // attempt's numbers chained.
                    second.first_attempt = Some(Box::new(first));
                    TrainError::from(second)
                })?
            }
        };
        // The double-buffered handoff: the new allocation landed, so the
        // previous one goes.
        self.finish();
        self.held = Some(id);
        Ok(())
    }

    /// Drops double-buffering for the rest of the iteration, freeing any
    /// held allocation. Returns `false` when already serial (so callers
    /// can tell whether this rung of the recovery ladder did anything).
    fn degrade_to_serial(&mut self) -> bool {
        if !self.double_buffer {
            return false;
        }
        self.double_buffer = false;
        self.finish();
        true
    }

    pub(crate) fn release_after_step(&mut self) {
        if !self.double_buffer {
            self.finish();
        }
    }

    /// Frees the held allocation, if any.
    fn finish(&mut self) {
        if let Some(id) = self.held.take() {
            self.device.free(id);
        }
    }
}

/// The accounts every executed micro-batch is booked into, in execution
/// order: the staged timeline and the per-stage sums. Training and the
/// simulation's costed Execute book through it alike.
pub(crate) struct Ledger {
    timeline: DeviceTimeline,
    timings: StageTimings,
}

impl Ledger {
    /// A ledger for a pass staged at `depth` behind a serial prefix of
    /// `schedule_seconds` (the plan must exist before anything is
    /// prepared).
    pub(crate) fn new(depth: usize, schedule_seconds: f64) -> Self {
        Ledger {
            timeline: DeviceTimeline::new(depth),
            timings: StageTimings {
                schedule_seconds,
                ..StageTimings::default()
            },
        }
    }

    /// Books one micro-batch's Prepare seconds and, when it is `costed`
    /// (a training micro-batch that reached the device), its simulated
    /// device seconds, which it returns; `None` books a preparation that
    /// never reached the device.
    pub(crate) fn book<D>(
        &mut self,
        p: &Prepared<D>,
        costed: Option<(&CostModel, &GnnShape)>,
    ) -> f64 {
        let (compute, transfer) = costed.map_or((0.0, 0.0), |(cost, shape)| {
            let bytes = measure::transfer_bytes(&p.blocks, shape) as f64;
            (
                cost.training_seconds(&p.blocks, shape),
                cost.transfer_seconds(bytes),
            )
        });
        self.timeline
            .record(p.block_gen_s + p.gather_s, compute + transfer);
        self.timings.block_gen_seconds += p.block_gen_s;
        self.timings.gather_seconds += p.gather_s;
        self.timings.sim_compute_seconds += compute;
        self.timings.sim_transfer_seconds += transfer;
        compute + transfer
    }

    /// The stage sums with the makespan of everything booked.
    pub(crate) fn finish(self) -> StageTimings {
        StageTimings {
            overlapped_makespan: self.timings.schedule_seconds + self.timeline.makespan(),
            ..self.timings
        }
    }
}

/// The scheduler the re-split rung re-plans with, and the headroom
/// calibration that genuine refusals feed.
pub(crate) type Replan<'a> = (&'a BuffaloScheduler, &'a mut HeadroomCalibrator);

/// The training Execute stage: its recovery limits and its accumulators.
struct ExecState<'a> {
    policy: &'a RecoveryPolicy,
    replan: Option<Replan<'a>>,
    residency: Residency<'a>,
    ledger: Ledger,
    loss_sum: f64,
    correct: usize,
    micro_batches: usize,
    events: Vec<RecoveryEvent>,
}

impl ExecState<'_> {
    fn record_event(&mut self, action: RecoveryAction, oom: &buffalo_memsim::OomError) {
        self.events
            .push(RecoveryEvent::new(self.micro_batches, action, oom));
    }
}

/// Executes one prepared micro-batch, climbing the recovery ladder on
/// device refusal. `depth` is the re-split recursion depth.
fn consume_one(
    model: &mut GnnModel,
    req: &Staged<'_>,
    st: &mut ExecState<'_>,
    work: MicroWork<'_>,
    depth: usize,
) -> Result<(), TrainError> {
    let MicroWork {
        prepared,
        seeds,
        assign_idx,
    } = work;
    let bytes = measure::training_memory(&prepared.blocks, req.shape).total();
    let mut attempt = 0usize;
    let mut observed_oom = false;
    let oom = loop {
        match st.residency.acquire(bytes) {
            Ok(()) => break None,
            Err(TrainError::Oom(oom)) => {
                if !st.policy.enabled {
                    return Err(TrainError::Oom(oom));
                }
                // Failover rung: re-route this micro-batch (and, via
                // round-robin over the survivors, every unfinished group
                // the dead device would have taken) and replay the
                // allocation.
                if oom.device_lost {
                    fail_over(
                        req.device,
                        &mut st.events,
                        st.micro_batches,
                        assign_idx,
                        oom,
                    )?;
                    // Fresh device, fresh retry budget.
                    attempt = 0;
                    continue;
                }
                // A genuine refusal (not an injected transient fault) is
                // evidence that plans need more room: grow the safety
                // margin so subsequent scheduling leaves headroom. One
                // incident is one piece of evidence — retries of the same
                // refusal do not compound it.
                if !oom.transient && !observed_oom {
                    observed_oom = true;
                    if let Some((_, cal)) = st.replan.as_mut() {
                        cal.observe_oom();
                    }
                }
                // Rung 1: stop holding two micro-batches resident.
                if st.residency.degrade_to_serial() {
                    st.record_event(RecoveryAction::DegradeSerial, &oom);
                    continue;
                }
                // Rung 2: bounded pure retries. Allocation precedes all
                // compute, so a retry repeats no work and perturbs no
                // gradient.
                if attempt < st.policy.max_retries {
                    attempt += 1;
                    st.record_event(RecoveryAction::Retry { attempt }, &oom);
                    continue;
                }
                // Rung 3: re-split this micro-batch into smaller groups.
                break Some(oom);
            }
            Err(other) => return Err(other),
        }
    };
    if let Some(oom) = oom {
        let replanned = match &st.replan {
            Some((scheduler, cal)) if depth < st.policy.max_resplits && seeds.len() > 1 => {
                let constraint = cal.constrain(req.device.budget());
                scheduler
                    .resplit_group(&req.batch.graph, seeds, constraint)
                    .ok()
            }
            _ => None,
        };
        let Some(plan) = replanned else {
            return Err(exhausted(&mut st.events, st.micro_batches, oom));
        };
        st.record_event(
            RecoveryAction::Resplit {
                seeds: seeds.len(),
                into: plan.groups.len(),
            },
            &oom,
        );
        // The discarded preparation still happened: account for it as
        // prepare-only pipeline time.
        st.ledger.book(&prepared, None);
        // The one place the Execute thread prepares: the sub-groups run
        // serially, on the device their parent was routed to.
        return run_staged(&plan, 1, walk_and_gather(req), |sub| {
            let sub = MicroWork { assign_idx, ..sub };
            consume_one(model, req, st, sub, depth + 1)
        });
    }
    // Allocation landed: forward, loss, backward.
    st.ledger.book(&prepared, Some((req.cost, req.shape)));
    let Prepared { blocks, data, .. } = prepared;
    let (logits, cache) = model.forward_features(&blocks, data.features);
    let out = softmax_cross_entropy(&logits, &data.labels, Some(req.batch.num_seeds));
    model.backward(&blocks, &cache, &out.dlogits);
    st.residency.release_after_step();
    st.loss_sum += out.loss as f64 * data.labels.len() as f64;
    st.correct += out.correct;
    st.micro_batches += 1;
    Ok(())
}

/// Runs one iteration's micro-batches through the Prepare/Execute
/// pipeline, accumulating gradients into `model` in plan order; the loss
/// gradient is divided by the batch's seed count, and so are the
/// reported loss and accuracy. `replan` enables the re-split rung and
/// headroom calibration (`None`: an execution-time refusal can only be
/// retried).
pub(crate) fn run_pipeline(
    model: &mut GnnModel,
    req: &Staged<'_>,
    policy: &RecoveryPolicy,
    replan: Option<Replan<'_>>,
) -> Result<IterationStats, TrainError> {
    let depth = staging_depth(req);
    let mut st = ExecState {
        policy,
        replan,
        residency: Residency::new(req.device, depth > 1),
        ledger: Ledger::new(depth, req.plan.scheduling_time.as_secs_f64()),
        loss_sum: 0.0,
        correct: 0,
        micro_batches: 0,
        events: Vec::new(),
    };
    run_staged(req.plan, depth, walk_and_gather(req), |work| {
        // Route this micro-batch's allocations: a device pool
        // round-robins over its live members.
        if let Some(pool) = req.device.pool() {
            pool.begin_micro_batch(work.assign_idx);
        }
        consume_one(model, req, &mut st, work, 0)
    })?;
    st.residency.finish();
    let total = req.batch.num_seeds;
    Ok(IterationStats {
        loss: (st.loss_sum / total as f64) as f32,
        accuracy: st.correct as f32 / total as f32,
        num_micro_batches: st.micro_batches,
        peak_mem_bytes: req.device.peak(),
        timings: st.ledger.finish(),
        recovery: st.events,
    })
}

/// Deterministic argmax: the first class whose logit is strictly greater
/// than every earlier one (ties break toward the lower class id).
fn argmax_row(row: &[f32]) -> u32 {
    let mut best = 0usize;
    for (j, &x) in row.iter().enumerate().skip(1) {
        if x > row[best] {
            best = j;
        }
    }
    best as u32
}

/// Executes one prepared micro-batch forward-only: allocate, forward,
/// argmax, release.
fn infer_one(
    model: &GnnModel,
    req: &Staged<'_>,
    residency: &mut Residency<'_>,
    out: &mut InferenceStats,
    prepared: Prepared<Gathered>,
) -> Result<(), TrainError> {
    let Prepared { blocks, data, .. } = prepared;
    // Admission uses the same footprint the bucket scheduler's estimator
    // plans against, keeping serving consistent with training admission.
    let bytes = measure::training_memory(&blocks, req.shape).total();
    residency.acquire(bytes)?;
    let logits = model.logits(&blocks, data.features);
    let classes = logits.cols();
    let rows = logits.data();
    for (i, node) in data.output_globals.into_iter().enumerate() {
        out.predictions
            .push((node, argmax_row(&rows[i * classes..(i + 1) * classes])));
    }
    residency.release_after_step();
    let compute = req.cost.inference_seconds(&blocks, req.shape);
    let transfer = req
        .cost
        .transfer_seconds(measure::transfer_bytes(&blocks, req.shape) as f64);
    out.service_seconds += compute + transfer;
    out.num_micro_batches += 1;
    Ok(())
}

/// Runs a forward-only pass over the plan's micro-batches through the
/// same staged driver as training: CPU preparation (optionally overlapped
/// on a worker thread), in-order device execution with the same residency
/// policy. Service seconds are simulated (forward compute + transfer, from
/// the [`CostModel`]), never the wall clock. Forward-only — no recovery policy (an OOM propagates so the
/// serving driver can account the rejection) — and `&GnnModel`: the pass
/// cannot touch parameters or optimizer state by construction.
///
/// `micro_base` is added to each micro-batch's index when assigning it to
/// a pool member (`DevicePool::begin_micro_batch`). Serving passes its
/// run-cumulative micro-batch count so successive dispatches round-robin
/// across a pool instead of all landing on member 0.
pub(crate) fn run_inference(
    model: &GnnModel,
    req: &Staged<'_>,
    micro_base: usize,
) -> Result<InferenceStats, TrainError> {
    let depth = staging_depth(req);
    let mut residency = Residency::new(req.device, depth > 1);
    let mut out = InferenceStats {
        predictions: Vec::new(),
        num_micro_batches: 0,
        peak_mem_bytes: 0,
        service_seconds: 0.0,
    };
    run_staged(req.plan, depth, walk_and_gather(req), |work| {
        if let Some(pool) = req.device.pool() {
            pool.begin_micro_batch(micro_base + work.assign_idx);
        }
        infer_one(model, req, &mut residency, &mut out, work.prepared)
    })?;
    residency.finish();
    out.peak_mem_bytes = req.device.peak();
    Ok(out)
}
