//! The shared training/serving engine.
//!
//! [`Engine`] owns every piece of long-lived state the Prepare/Execute
//! pipeline needs — the [`GnnModel`] with its Adam moments, the
//! [`BuffaloScheduler`] (in scheduled mode), the [`PipelineConfig`],
//! [`RecoveryPolicy`], and [`HeadroomCalibrator`] — and exposes the three
//! things a *driver* can do with that state:
//!
//! * [`train_iteration`](Engine::train_iteration) — one gradient step
//!   (whole-batch or bucket-scheduled, depending on how the engine was
//!   built), exactly the math the paper's Algorithms 1 and 2 specify;
//! * [`infer`](Engine::infer) — a forward-only pass over a sampled batch
//!   through the same pipeline and (in scheduled mode) the same bucket
//!   scheduler for admission under the device budget, touching no
//!   parameter or optimizer state;
//! * [`capture_state`](Engine::capture_state) /
//!   [`restore_state`](Engine::restore_state) — the single bit-exact
//!   snapshot implementation the checkpoint subsystem targets.
//!
//! The epoch loop in [`epoch`](crate::train::epoch) and the serving loop
//! in [`serve`](crate::serve) are the engine's two drivers; the golden
//! trail in `tests/golden/` pins its numerics bit for bit.

use crate::checkpoint::{CheckpointError, ParamState, TrainerState};
use crate::models::GnnModel;
use crate::train::pipeline::{run_inference, run_pipeline, Staged};
use crate::train::recovery::{HeadroomCalibrator, RecoveryPolicy};
use crate::train::{IterationStats, PipelineConfig, TrainConfig};
use crate::TrainError;
use buffalo_bucketing::{BuffaloScheduler, SchedulePlan};
use buffalo_graph::datasets::Dataset;
use buffalo_graph::NodeId;
use buffalo_memsim::{CostModel, Device};
use buffalo_sampling::Batch;
use buffalo_tensor::{Adam, Optimizer};
use std::time::Duration;

/// Result of a forward-only inference pass (see [`Engine::infer`]).
#[derive(Debug, Clone)]
pub struct InferenceStats {
    /// `(dataset node id, predicted class)` for every output node, in
    /// execution order (micro-batch by micro-batch).
    pub predictions: Vec<(NodeId, u32)>,
    /// Micro-batches executed (1 in whole-batch mode).
    pub num_micro_batches: usize,
    /// Peak simulated device memory over the pass, bytes.
    pub peak_mem_bytes: u64,
    /// Simulated device service seconds (compute + transfer, costed by
    /// the [`CostModel`]). Deterministic — no wall clock feeds it — so
    /// serving latency distributions replay bit-identically.
    pub service_seconds: f64,
}

/// The long-lived core shared by every driver: model + optimizer state,
/// the bucket scheduler, and the pipeline/recovery configuration.
///
/// Built in one of two modes:
///
/// * [`Engine::full_batch`] — no scheduler; a batch trains or serves as
///   one micro-batch (Algorithm 1, the DGL/PyG strategy).
/// * [`Engine::buffalo`] — the [`BuffaloScheduler`] splits every batch
///   into memory-balanced bucket groups under the device budget
///   (Algorithm 2).
///
/// The modes differ in one step only — where the iteration's plan comes
/// from: Algorithm 1 is Algorithm 2 on a plan of one group holding every
/// seed.
///
/// State-ownership rule: the engine owns everything that must survive
/// across iterations and requests; drivers own only per-call inputs (the
/// dataset, the sampled batch, the device handle, the cost model) and
/// borrow the engine for each call.
#[derive(Debug)]
pub struct Engine {
    config: TrainConfig,
    model: GnnModel,
    opt: Adam,
    /// The scheduler and the headroom calibration of its constraints:
    /// `Some` in scheduled (Buffalo) mode, `None` in whole-batch mode,
    /// where nothing is planned and so nothing is calibrated.
    scheduler: Option<(BuffaloScheduler, HeadroomCalibrator)>,
    pipeline: PipelineConfig,
    recovery: RecoveryPolicy,
}

impl Engine {
    fn new(config: TrainConfig, scheduler: Option<BuffaloScheduler>) -> Self {
        let model = GnnModel::for_shape(&config.shape, config.seed);
        let opt = Adam::new(config.lr);
        Engine {
            config,
            model,
            opt,
            scheduler: scheduler.map(|s| (s, HeadroomCalibrator::default())),
            pipeline: PipelineConfig::serial(),
            recovery: RecoveryPolicy::disabled(),
        }
    }

    /// Creates a whole-batch engine (Algorithm 1): no scheduler, a batch
    /// is one micro-batch, and an over-budget batch fails with
    /// [`TrainError::Oom`] — the paper's OOM cells.
    pub fn full_batch(config: TrainConfig) -> Self {
        Engine::new(config, None)
    }

    /// Creates a bucket-scheduled engine (Algorithm 2). `clustering` is
    /// the dataset's average clustering coefficient `C` (Table II),
    /// consumed by the redundancy-aware memory estimator.
    pub fn buffalo(config: TrainConfig, clustering: f64) -> Self {
        let scheduler =
            BuffaloScheduler::new(config.shape.clone(), config.fanouts.clone(), clustering);
        Engine::new(config, Some(scheduler))
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// The model this engine owns.
    pub fn model(&self) -> &GnnModel {
        &self.model
    }

    /// Sets the pipeline configuration.
    pub fn with_pipeline(mut self, pipeline: PipelineConfig) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Sets the OOM recovery policy. In scheduled mode this re-seeds the
    /// headroom calibrator from the policy's `headroom` floor; in
    /// whole-batch mode there is no calibrator to seed (the whole-batch
    /// path cannot re-schedule, so only the retry rungs apply).
    pub fn set_recovery(&mut self, recovery: RecoveryPolicy) {
        if let Some((_, calibrator)) = &mut self.scheduler {
            *calibrator = HeadroomCalibrator::new(recovery.headroom);
        }
        self.recovery = recovery;
    }

    /// Builder-style [`set_recovery`](Self::set_recovery).
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.set_recovery(recovery);
        self
    }

    /// The calibrator's current headroom multiplier: scheduling
    /// constraints are `budget / multiplier`. Always `1.0` in whole-batch
    /// mode (nothing is scheduled, so nothing is calibrated).
    pub fn headroom_multiplier(&self) -> f64 {
        self.scheduler
            .as_ref()
            .map_or(1.0, |(_, calibrator)| calibrator.multiplier())
    }

    /// Ensures the headroom multiplier is at least `multiplier` — the
    /// rollback rung calls this with a compounding boost so each rollback
    /// schedules more conservatively than the last. A no-op in
    /// whole-batch mode: with no scheduler there is no plan to make more
    /// conservative (kept bit-compatible with the goldens — see the
    /// drift regression test below).
    pub fn force_headroom(&mut self, multiplier: f64) {
        if let Some((_, calibrator)) = &mut self.scheduler {
            if multiplier > calibrator.multiplier() {
                calibrator.set_multiplier(multiplier);
            }
        }
    }

    /// Captures model, optimizer, and calibrator state for a checkpoint.
    /// This is the single snapshot implementation the checkpoint
    /// subsystem targets; whole-batch mode reports a multiplier of `1.0`.
    pub fn capture_state(&mut self) -> TrainerState {
        TrainerState {
            adam_t: self.opt.t(),
            headroom_multiplier: self.headroom_multiplier(),
            params: capture_params(&mut self.model),
        }
    }

    /// Restores captured state bit-exactly. In scheduled mode the
    /// calibrator's multiplier is restored too; whole-batch mode ignores
    /// it (it has no calibrated plan — the historical behavior).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::StateMismatch`] if the snapshot's parameters do
    /// not fit this model.
    pub fn restore_state(&mut self, state: &TrainerState) -> Result<(), CheckpointError> {
        restore_params(&mut self.model, &state.params)?;
        self.opt.set_t(state.adam_t);
        if let Some((_, calibrator)) = &mut self.scheduler {
            calibrator.set_multiplier(state.headroom_multiplier);
        }
        Ok(())
    }

    /// The one plan step of an iteration or inference pass. Scheduled
    /// mode runs Algorithm 3 against the calibrated constraint —
    /// `budget / multiplier`, the plain budget until the calibrator has
    /// seen an under-prediction — of the *schedule* budget, the tightest
    /// live member of a device pool, so every group fits whichever device
    /// it is routed to. Whole-batch mode is that algorithm's `K = 1` exit
    /// taken unconditionally ("treat the original subgraph as the
    /// micro-batch"): one group holding every seed, with no estimate and
    /// no planning time.
    fn plan(&self, batch: &Batch, device: &dyn Device) -> Result<SchedulePlan, TrainError> {
        let Some((scheduler, calibrator)) = &self.scheduler else {
            return Ok(SchedulePlan {
                groups: vec![(0..batch.num_seeds as NodeId).collect()],
                group_estimates: Vec::new(),
                k: 1,
                split_explosion: false,
                scheduling_time: Duration::ZERO,
            });
        };
        let constraint = calibrator.constrain(device.schedule_budget());
        Ok(scheduler.schedule(&batch.graph, batch.num_seeds, constraint)?)
    }

    /// Trains one iteration on `batch` under the device budget: plan,
    /// run every micro-batch through the Prepare/Execute pipeline
    /// accumulating gradients, then step the optimizer once.
    ///
    /// # Errors
    ///
    /// * [`TrainError::Schedule`] if no feasible grouping exists
    ///   (scheduled mode only).
    /// * [`TrainError::Oom`] if a micro-batch exceeds the budget and
    ///   recovery is disabled.
    /// * [`TrainError::RecoveryExhausted`] if recovery is enabled and
    ///   every rung of the ladder failed.
    pub fn train_iteration(
        &mut self,
        ds: &Dataset,
        batch: &Batch,
        device: &dyn Device,
        cost: &CostModel,
    ) -> Result<IterationStats, TrainError> {
        self.config.parallelism.install();
        device.free_all();
        device.reset_peak();
        let plan = self.plan(batch, device)?;
        let staged = Staged {
            ds,
            batch,
            plan: &plan,
            shape: &self.config.shape,
            device,
            cost,
            pipeline: self.pipeline,
        };
        // Re-splitting and calibration are rungs of the recovery ladder.
        let replan = match &mut self.scheduler {
            Some((scheduler, calibrator)) if self.recovery.enabled => {
                Some((&*scheduler, calibrator))
            }
            _ => None,
        };
        self.model.zero_grad();
        let outcome = run_pipeline(&mut self.model, &staged, &self.recovery, replan)?;
        // One optimizer step after all partial gradients accumulated
        // (Algorithm 2 line 13; trivially one micro-batch in whole-batch
        // mode).
        self.opt.step(&mut self.model.params_mut());
        let total = batch.num_seeds;
        Ok(IterationStats {
            loss: (outcome.loss_sum / total as f64) as f32,
            accuracy: outcome.correct as f32 / total as f32,
            num_micro_batches: outcome.micro_batches,
            peak_mem_bytes: device.peak(),
            timings: outcome.timings,
            recovery: outcome.recovery,
        })
    }

    /// Forward-only inference over `batch`: the same Prepare/Execute
    /// pipeline and (in scheduled mode) the same bucket scheduler for
    /// admission under the device budget, but no loss, no gradients, no
    /// optimizer step. Takes `&self` — the type system guarantees serving
    /// cannot perturb training state.
    ///
    /// Micro-batch allocations use the training-memory footprint, the
    /// same quantity the scheduler's estimator plans against, so
    /// admission-control decisions are consistent between training and
    /// serving.
    ///
    /// # Errors
    ///
    /// * [`TrainError::Schedule`] if no feasible grouping exists
    ///   (scheduled mode only).
    /// * [`TrainError::Oom`] if a micro-batch exceeds the budget.
    pub fn infer(
        &self,
        ds: &Dataset,
        batch: &Batch,
        device: &dyn Device,
        cost: &CostModel,
    ) -> Result<InferenceStats, TrainError> {
        self.infer_with_base(ds, batch, device, cost, 0)
    }

    /// [`Self::infer`] with an explicit micro-batch numbering base. The
    /// serving loop passes its run-cumulative micro-batch count so
    /// successive dispatches keep rotating across [`DevicePool`] members
    /// instead of re-starting at member 0 every call.
    ///
    /// [`DevicePool`]: crate::train::DevicePool
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::infer`].
    pub fn infer_with_base(
        &self,
        ds: &Dataset,
        batch: &Batch,
        device: &dyn Device,
        cost: &CostModel,
        micro_base: usize,
    ) -> Result<InferenceStats, TrainError> {
        self.config.parallelism.install();
        device.free_all();
        device.reset_peak();
        let plan = self.plan(batch, device)?;
        let staged = Staged {
            ds,
            batch,
            plan: &plan,
            shape: &self.config.shape,
            device,
            cost,
            pipeline: self.pipeline,
        };
        let outcome = run_inference(&self.model, &staged, micro_base)?;
        Ok(InferenceStats {
            predictions: outcome.predictions,
            num_micro_batches: outcome.micro_batches,
            peak_mem_bytes: device.peak(),
            service_seconds: outcome.device_seconds,
        })
    }

    /// Forward-only evaluation: classification accuracy of the engine's
    /// model on `nodes`, sampling their neighborhoods with the engine's
    /// configured fanouts.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn evaluate(&self, ds: &Dataset, nodes: &[NodeId], seed: u64) -> f32 {
        crate::train::evaluate(&self.model, ds, nodes, &self.config.fanouts, seed)
    }
}

/// Copies every parameter's value and Adam moments out of `model`, in the
/// model's canonical parameter order. Gradients are not captured: state is
/// taken between iterations, where they are dead.
fn capture_params(model: &mut GnnModel) -> Vec<ParamState> {
    model
        .params_mut()
        .iter()
        .map(|p| ParamState {
            rows: p.value.rows() as u32,
            cols: p.value.cols() as u32,
            value: p.value.data().to_vec(),
            m: p.m.data().to_vec(),
            v: p.v.data().to_vec(),
        })
        .collect()
}

/// Writes captured parameter state back into `model` bit-exactly.
///
/// # Errors
///
/// [`CheckpointError::StateMismatch`] if the parameter count or any
/// tensor shape differs — the snapshot belongs to a different model.
fn restore_params(model: &mut GnnModel, params: &[ParamState]) -> Result<(), CheckpointError> {
    let mut live = model.params_mut();
    if live.len() != params.len() {
        return Err(CheckpointError::StateMismatch {
            reason: format!(
                "snapshot has {} parameters, model has {}",
                params.len(),
                live.len()
            ),
        });
    }
    for (i, (p, s)) in live.iter_mut().zip(params).enumerate() {
        if p.value.rows() != s.rows as usize || p.value.cols() != s.cols as usize {
            return Err(CheckpointError::StateMismatch {
                reason: format!(
                    "parameter {i} is {}x{}, snapshot has {}x{}",
                    p.value.rows(),
                    p.value.cols(),
                    s.rows,
                    s.cols
                ),
            });
        }
        p.value.data_mut().copy_from_slice(&s.value);
        p.m.data_mut().copy_from_slice(&s.m);
        p.v.data_mut().copy_from_slice(&s.v);
        p.zero_grad();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnv::Fnv;
    use buffalo_graph::datasets::{self, DatasetName};
    use buffalo_memsim::{AggregatorKind, DeviceMemory, GnnShape};
    use buffalo_par::Parallelism;
    use buffalo_sampling::BatchSampler;

    fn small_setup() -> (Dataset, Batch, TrainConfig) {
        let ds = datasets::load(DatasetName::Cora, 7);
        let seeds: Vec<u32> = (0..64).collect();
        let batch = BatchSampler::new(vec![5, 5]).sample(&ds.graph, &seeds, 3);
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
        (ds, batch, config)
    }

    /// A budget that forces the scheduler to split `batch`.
    fn splitting_budget(batch: &Batch, shape: &GnnShape) -> u64 {
        use buffalo_blocks::{generate_blocks_fast, GenerateOptions};
        let blocks =
            generate_blocks_fast(&batch.graph, batch.num_seeds, 2, GenerateOptions::default());
        buffalo_memsim::measure::training_memory(&blocks, shape).total() * 3 / 4
    }

    /// FNV-1a over every parameter byte plus the Adam moments — the
    /// "nothing moved" witness for read-only paths.
    fn param_fingerprint(state: &TrainerState) -> u64 {
        let mut h = Fnv::new();
        h.u64(state.adam_t);
        for p in &state.params {
            for x in p.value.iter().chain(&p.m).chain(&p.v) {
                h.u64(x.to_bits() as u64);
            }
        }
        h.0
    }

    /// Drift audit: the two modes disagree on headroom bookkeeping, and
    /// the goldens pin both. Whole-batch mode has no calibrated plan, so
    /// it always captures a multiplier of 1.0, ignores the snapshot's
    /// multiplier on restore, and ignores `force_headroom`; only
    /// scheduled mode re-seeds a calibrator in `set_recovery`.
    #[test]
    fn headroom_drift_between_modes_is_preserved() {
        let (_, _, config) = small_setup();
        // Whole-batch mode: headroom is inert end to end.
        let mut full = Engine::full_batch(config.clone());
        full.set_recovery(RecoveryPolicy {
            headroom: 2.0,
            ..RecoveryPolicy::default()
        });
        full.force_headroom(3.0);
        assert_eq!(full.headroom_multiplier(), 1.0);
        assert_eq!(full.capture_state().headroom_multiplier, 1.0);
        let mut snap = full.capture_state();
        snap.headroom_multiplier = 7.5;
        full.restore_state(&snap).unwrap();
        assert_eq!(full.headroom_multiplier(), 1.0, "restore must ignore it");
        // Scheduled mode: set_recovery seeds the calibrator floor,
        // force_headroom ratchets, restore_state restores.
        let mut buf = Engine::buffalo(config, 0.24);
        buf.set_recovery(RecoveryPolicy {
            headroom: 1.5,
            ..RecoveryPolicy::default()
        });
        assert_eq!(buf.headroom_multiplier(), 1.5);
        buf.force_headroom(2.5);
        assert_eq!(buf.headroom_multiplier(), 2.5);
        buf.force_headroom(2.0); // ratchet: never lowers
        assert_eq!(buf.headroom_multiplier(), 2.5);
        let snap = buf.capture_state();
        buf.force_headroom(4.0);
        buf.restore_state(&snap).unwrap();
        assert_eq!(buf.headroom_multiplier(), 2.5);
    }

    #[test]
    fn infer_is_read_only_and_deterministic() {
        let (ds, batch, config) = small_setup();
        let cost = CostModel::rtx6000();
        let device = DeviceMemory::with_gib(24.0);
        let mut engine = Engine::buffalo(config, 0.24);
        // Train a little so the parameters are not at init.
        for _ in 0..3 {
            engine.train_iteration(&ds, &batch, &device, &cost).unwrap();
        }
        let before = param_fingerprint(&engine.capture_state());
        let a = engine.infer(&ds, &batch, &device, &cost).unwrap();
        let b = engine.infer(&ds, &batch, &device, &cost).unwrap();
        let after = param_fingerprint(&engine.capture_state());
        assert_eq!(before, after, "inference touched parameter state");
        assert_eq!(a.predictions, b.predictions);
        assert_eq!(
            a.service_seconds.to_bits(),
            b.service_seconds.to_bits(),
            "simulated service time must be deterministic"
        );
        assert_eq!(a.predictions.len(), batch.num_seeds);
        // Every seed answered exactly once, by its dataset node id.
        let mut nodes: Vec<NodeId> = a.predictions.iter().map(|&(n, _)| n).collect();
        nodes.sort_unstable();
        let mut expected: Vec<NodeId> = (0..batch.num_seeds).map(|l| batch.global_ids[l]).collect();
        expected.sort_unstable();
        assert_eq!(nodes, expected);
    }

    #[test]
    fn infer_splits_under_tight_budget_and_respects_it() {
        let (ds, batch, config) = small_setup();
        let cost = CostModel::rtx6000();
        let budget = splitting_budget(&batch, &config.shape);
        let device = DeviceMemory::new(budget);
        let engine = Engine::buffalo(config, 0.24);
        let stats = engine.infer(&ds, &batch, &device, &cost).unwrap();
        assert!(stats.num_micro_batches > 1, "budget did not force split");
        assert!(stats.peak_mem_bytes <= budget);
        assert_eq!(stats.predictions.len(), batch.num_seeds);
        assert!(stats.service_seconds > 0.0);
    }

    #[test]
    fn overlapped_inference_equals_serial() {
        // The threaded arm of the staged driver under its inference
        // Execute: same answers in the same order, same micro-batches,
        // same simulated service time as the serial arm.
        let (ds, batch, config) = small_setup();
        let cost = CostModel::rtx6000();
        let budget = splitting_budget(&batch, &config.shape);
        let run = |pipeline: PipelineConfig| {
            let device = DeviceMemory::new(budget);
            let mut engine = Engine::buffalo(config.clone(), 0.24).with_pipeline(pipeline);
            engine.train_iteration(&ds, &batch, &device, &cost).unwrap();
            engine.infer(&ds, &batch, &device, &cost).unwrap()
        };
        let serial = run(PipelineConfig::serial());
        let overlapped = run(PipelineConfig::overlapped());
        assert!(serial.num_micro_batches > 1, "budget did not force split");
        assert_eq!(serial.num_micro_batches, overlapped.num_micro_batches);
        assert_eq!(serial.predictions.len(), batch.num_seeds);
        assert_eq!(serial.predictions, overlapped.predictions);
        assert_eq!(
            serial.service_seconds.to_bits(),
            overlapped.service_seconds.to_bits()
        );
        assert!(overlapped.peak_mem_bytes <= budget);
    }

    #[test]
    fn whole_batch_is_the_scheduled_engine_at_k_1() {
        // Algorithm 1 is Algorithm 2 on a plan of one group holding every
        // seed: on a roomy device the two engines are the same computation,
        // bit for bit.
        let (ds, batch, config) = small_setup();
        let cost = CostModel::rtx6000();
        let device = DeviceMemory::with_gib(24.0);
        let mut full = Engine::full_batch(config.clone());
        let mut buffalo = Engine::buffalo(config, 0.24);
        for i in 0..4 {
            let a = full.train_iteration(&ds, &batch, &device, &cost).unwrap();
            let b = buffalo
                .train_iteration(&ds, &batch, &device, &cost)
                .unwrap();
            assert_eq!((a.num_micro_batches, b.num_micro_batches), (1, 1));
            assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "iter {i}");
            assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits(), "iter {i}");
            assert_eq!(a.peak_mem_bytes, b.peak_mem_bytes, "iter {i}");
        }
        let a = full.infer(&ds, &batch, &device, &cost).unwrap();
        let b = buffalo.infer(&ds, &batch, &device, &cost).unwrap();
        assert_eq!(a.predictions, b.predictions);
        assert_eq!(a.service_seconds.to_bits(), b.service_seconds.to_bits());
        assert_eq!(
            param_fingerprint(&full.capture_state()),
            param_fingerprint(&buffalo.capture_state())
        );
    }
}
