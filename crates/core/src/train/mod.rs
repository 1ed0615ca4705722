//! Trainers: Algorithm 1 (whole-batch, DGL-style) and Algorithm 2
//! (Buffalo micro-batch training with gradient accumulation), plus an
//! epoch-level driver with held-out evaluation ([`run_epochs`]).
//!
//! All long-lived state — the model with its Adam moments, the bucket
//! scheduler, the pipeline/recovery configuration — lives in the
//! [`Engine`]: [`Engine::full_batch`] is Algorithm 1, [`Engine::buffalo`]
//! Algorithm 2. The epoch loop here and the serving loop in
//! [`serve`](crate::serve) are its two *drivers*.
//!
//! Every driver runs on the staged pipeline: a CPU **Prepare**
//! stage (block generation, feature/label gather) and an
//! in-order **Execute** stage (allocate, forward/backward, free) against
//! the simulated device. With [`PipelineConfig::overlapped`], preparation
//! of micro-batch *i + 1* runs on a worker thread while micro-batch *i*
//! executes — same math, same gradient-accumulation order, bit-identical
//! losses, smaller iteration makespan.

mod device_pool;
mod engine;
mod epoch;
pub(crate) mod pipeline;
pub(crate) mod recovery;

pub use device_pool::DevicePool;
pub use engine::{Engine, InferenceStats};
pub use epoch::{evaluate, run_epochs, run_epochs_checkpointed, EpochConfig, EpochStats, TrainRun};
pub use pipeline::PipelineConfig;
pub use recovery::{HeadroomCalibrator, RecoveryAction, RecoveryEvent, RecoveryPolicy};

use buffalo_blocks::Block;
use buffalo_graph::datasets::Dataset;
use buffalo_graph::NodeId;
use buffalo_memsim::{GnnShape, StageTimings};
use buffalo_par::Parallelism;
use buffalo_sampling::Batch;
use buffalo_tensor::Tensor;

/// Configuration of an [`Engine`], whole-batch or scheduled.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Model shape (depth must match `fanouts.len()`).
    pub shape: GnnShape,
    /// Sampling fanouts, output layer first.
    pub fanouts: Vec<usize>,
    /// Adam learning rate.
    pub lr: f32,
    /// Weight-initialization seed.
    pub seed: u64,
    /// CPU kernel parallelism, installed process-wide at the start of
    /// every iteration. Results are bit-identical for any setting (kernels
    /// partition by disjoint output rows); only wall-clock time changes.
    pub parallelism: Parallelism,
}

/// Per-iteration result of a real training step.
#[derive(Debug, Clone)]
pub struct IterationStats {
    /// Mean loss over all output nodes of the batch.
    pub loss: f32,
    /// Fraction of output nodes classified correctly.
    pub accuracy: f32,
    /// Number of micro-batches trained (1 for the full-batch path).
    pub num_micro_batches: usize,
    /// Peak simulated device memory over the iteration, bytes.
    pub peak_mem_bytes: u64,
    /// Per-stage timing breakdown, including the overlapped makespan.
    pub timings: StageTimings,
    /// Recovery actions taken this iteration, in order. Empty unless a
    /// [`RecoveryPolicy`] is enabled and the device refused an allocation.
    pub recovery: Vec<RecoveryEvent>,
}

/// What the blocks of one (micro-)batch read from the dataset.
pub(crate) struct Gathered {
    /// Feature rows of the input layer's sources.
    pub features: Tensor,
    /// One label per output node.
    pub labels: Vec<u32>,
    /// Dataset id per output node, in the same order: training ignores
    /// them, inference keys its predictions by them.
    pub output_globals: Vec<NodeId>,
}

/// Capacity for a buffer of `len` elements that is allocated and dropped
/// once per micro-batch: `len` rounded up to one of eight size classes per
/// power of two (at most 12.5 % over, never touched, so never resident).
///
/// Successive batches differ by a fraction of a percent in row count. Asked
/// for the exact sizes, the allocator sees a slightly different ~30 MB
/// request every iteration, and a request larger than any it has mapped and
/// unmapped before is mapped afresh *beside* a heap that already holds the
/// previous iteration's freed buffer whenever that heap ends a few KB short
/// — peak RSS 70 or 99 MB for the same commit, decided by the order of the
/// seed's batch sizes and by heap layout. One size per workload is recycled
/// in place.
fn size_class(len: usize) -> usize {
    match len.checked_ilog2() {
        Some(log) if log > 3 => len.next_multiple_of(1 << (log - 3)),
        _ => len,
    }
}

/// The one feature/label gather: `blocks` are a (micro-)batch's layers,
/// input layer first, with node ids local to `batch`.
pub(crate) fn gather(ds: &Dataset, batch: &Batch, blocks: &[Block]) -> Gathered {
    let global = |&l: &NodeId| batch.global_ids[l as usize];
    // A block walk returns exactly `depth >= 1` layers.
    let sources: Vec<NodeId> = blocks[0].src_nodes().iter().map(global).collect();
    let dim = ds.spec.feat_dim;
    let len = sources.len() * dim;
    // Zeroed at the class size, not grown to it: freshly mapped memory
    // comes zeroed for free, a `resize` would write it all.
    let mut rows = vec![0.0f32; size_class(len)];
    rows.truncate(len);
    ds.gather_features(&sources, &mut rows);
    let outputs = blocks[blocks.len() - 1].dst_nodes();
    let output_globals: Vec<NodeId> = outputs.iter().map(global).collect();
    Gathered {
        features: Tensor::from_vec(sources.len(), dim, rows),
        labels: output_globals.iter().map(|&g| ds.label(g)).collect(),
        output_globals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::GnnModel;
    use crate::TrainError;
    use buffalo_blocks::{generate_blocks_fast, GenerateOptions};
    use buffalo_graph::datasets::{self, DatasetName};
    use buffalo_memsim::{measure, AggregatorKind, CostModel, Device, DeviceMemory};
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

    /// A budget that forces the Buffalo scheduler to split this batch.
    fn splitting_budget(batch: &Batch, shape: &GnnShape) -> u64 {
        let blocks =
            generate_blocks_fast(&batch.graph, batch.num_seeds, 2, GenerateOptions::default());
        measure::training_memory(&blocks, shape).total() * 3 / 4
    }

    #[test]
    fn size_classes_cover_nearby_lengths_with_one_capacity() {
        // The arxiv benchmark's feature buffers: 59 014 … 59 984 rows of
        // 128 floats across seeds and batches, one 30 MiB class.
        for rows in [59_014usize, 59_451, 59_763, 59_984] {
            assert_eq!(size_class(rows * 128) * 4, 30 << 20);
        }
        for len in (0..4096).chain([1 << 20, (1 << 20) + 1, usize::MAX >> 4]) {
            let class = size_class(len);
            assert!(class >= len && class - len <= len / 8, "{len} -> {class}");
            assert_eq!(size_class(class), class, "classes are fixed points");
        }
    }

    #[test]
    fn full_batch_trains_and_reduces_loss() {
        let (ds, batch, config) = small_setup();
        let device = DeviceMemory::with_gib(24.0);
        let cost = CostModel::rtx6000();
        let mut trainer = Engine::full_batch(config);
        let first = trainer
            .train_iteration(&ds, &batch, &device, &cost)
            .unwrap();
        let mut last = first.clone();
        for _ in 0..15 {
            last = trainer
                .train_iteration(&ds, &batch, &device, &cost)
                .unwrap();
        }
        assert!(
            last.loss < first.loss,
            "loss should fall: {} -> {}",
            first.loss,
            last.loss
        );
        assert_eq!(last.num_micro_batches, 1);
        assert!(last.peak_mem_bytes > 0);
        // A single micro-batch cannot overlap with anything.
        assert!((last.timings.overlapped_makespan - last.timings.serial_sum()).abs() < 1e-12);
    }

    #[test]
    fn full_batch_ooms_on_tiny_device() {
        let (ds, batch, config) = small_setup();
        let device = DeviceMemory::new(1 << 16); // 64 KiB
        let cost = CostModel::rtx6000();
        let mut trainer = Engine::full_batch(config);
        let err = trainer
            .train_iteration(&ds, &batch, &device, &cost)
            .unwrap_err();
        assert!(matches!(err, TrainError::Oom(_)));
    }

    #[test]
    fn buffalo_matches_full_batch_losses() {
        let (ds, batch, config) = small_setup();
        let cost = CostModel::rtx6000();
        let big = DeviceMemory::with_gib(24.0);
        let mut full = Engine::full_batch(config.clone());
        let mut buffalo = Engine::buffalo(config, 0.24);
        // Force Buffalo into multiple micro-batches with a small budget
        // that the full batch would not fit.
        let small = DeviceMemory::new(splitting_budget(&batch, &full.config().shape));
        for i in 0..5 {
            let sf = full.train_iteration(&ds, &batch, &big, &cost).unwrap();
            let sb = buffalo.train_iteration(&ds, &batch, &small, &cost).unwrap();
            if i == 0 {
                assert!(sb.num_micro_batches > 1, "budget did not force split");
            }
            // Same math modulo f32 association: losses must track closely.
            assert!(
                (sf.loss - sb.loss).abs() < 0.05 * sf.loss.abs().max(1.0),
                "iter {i}: full {} vs buffalo {}",
                sf.loss,
                sb.loss
            );
        }
    }

    #[test]
    fn pipelined_losses_are_bit_identical_to_serial() {
        // Satellite requirement: the pipelined trainer must match the
        // serial path bit-for-bit on losses and accuracy over >= 5
        // iterations — in-order Execute preserves the gradient
        // accumulation order exactly.
        let (ds, batch, config) = small_setup();
        let cost = CostModel::rtx6000();
        let budget = splitting_budget(&batch, &config.shape);
        let mut serial = Engine::buffalo(config.clone(), 0.24);
        let mut pipelined =
            Engine::buffalo(config, 0.24).with_pipeline(PipelineConfig::overlapped());
        let dev_s = DeviceMemory::new(budget);
        let dev_p = DeviceMemory::new(budget);
        for i in 0..6 {
            let a = serial.train_iteration(&ds, &batch, &dev_s, &cost).unwrap();
            let b = pipelined
                .train_iteration(&ds, &batch, &dev_p, &cost)
                .unwrap();
            assert!(a.num_micro_batches > 1, "budget did not force split");
            assert_eq!(a.num_micro_batches, b.num_micro_batches, "iter {i}");
            assert_eq!(
                a.loss.to_bits(),
                b.loss.to_bits(),
                "iter {i}: serial loss {} != pipelined loss {}",
                a.loss,
                b.loss
            );
            assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits(), "iter {i}");
        }
    }

    #[test]
    fn pipelined_makespan_beats_serial_sum() {
        let (ds, batch, config) = small_setup();
        let cost = CostModel::rtx6000();
        let budget = splitting_budget(&batch, &config.shape);
        let device = DeviceMemory::new(budget);
        let mut trainer = Engine::buffalo(config, 0.24).with_pipeline(PipelineConfig::overlapped());
        let stats = trainer
            .train_iteration(&ds, &batch, &device, &cost)
            .unwrap();
        assert!(stats.num_micro_batches > 1);
        let t = &stats.timings;
        assert!(
            t.overlapped_makespan < t.serial_sum(),
            "overlap {} should beat serial {}",
            t.overlapped_makespan,
            t.serial_sum()
        );
        assert!(t.overlapped_makespan >= t.max_stage() - 1e-12);
    }

    #[test]
    fn double_buffering_keeps_two_micro_batches_resident() {
        // Drive run_pipeline with a hand-made plan on a roomy device:
        // the overlapped executor holds the previous micro-batch until the
        // next one lands, so its peak must show two resident micro-batches
        // where serial residency shows one.
        let (ds, batch, config) = small_setup();
        let cost = CostModel::rtx6000();
        let groups: Vec<Vec<u32>> = (0u32..4)
            .map(|g| (g * 16..(g + 1) * 16).collect())
            .collect();
        let plan = buffalo_bucketing::SchedulePlan {
            k: groups.len(),
            groups,
            group_estimates: Vec::new(),
            split_explosion: false,
            scheduling_time: std::time::Duration::ZERO,
        };
        let run = |cfg: PipelineConfig| {
            let device = DeviceMemory::with_gib(24.0);
            let mut model = GnnModel::for_shape(&config.shape, config.seed);
            model.zero_grad();
            let staged = pipeline::Staged {
                ds: &ds,
                batch: &batch,
                plan: &plan,
                shape: &config.shape,
                device: &device,
                cost: &cost,
                pipeline: cfg,
            };
            pipeline::run_pipeline(&mut model, &staged, &RecoveryPolicy::disabled(), None).unwrap();
            device.peak()
        };
        let serial_peak = run(PipelineConfig::serial());
        let overlapped_peak = run(PipelineConfig::overlapped());
        assert!(
            overlapped_peak > serial_peak,
            "double-buffered peak {overlapped_peak} should exceed serial peak {serial_peak}"
        );
        assert!(overlapped_peak <= DeviceMemory::with_gib(24.0).budget());
    }

    #[test]
    fn pipelined_oom_falls_back_to_serial_residency() {
        // With a budget that fits each micro-batch but not two at once,
        // the double-buffered executor must degrade gracefully instead of
        // faulting — and still match serial losses bit-for-bit.
        let (ds, batch, config) = small_setup();
        let cost = CostModel::rtx6000();
        let budget = splitting_budget(&batch, &config.shape);
        let dev_s = DeviceMemory::new(budget);
        let dev_p = DeviceMemory::new(budget);
        let mut serial = Engine::buffalo(config.clone(), 0.24);
        let mut pipelined =
            Engine::buffalo(config, 0.24).with_pipeline(PipelineConfig::overlapped());
        let a = serial.train_iteration(&ds, &batch, &dev_s, &cost).unwrap();
        let b = pipelined
            .train_iteration(&ds, &batch, &dev_p, &cost)
            .unwrap();
        assert!(b.num_micro_batches > 1);
        assert_eq!(a.loss.to_bits(), b.loss.to_bits());
        assert!(b.peak_mem_bytes <= dev_p.budget());
    }

    #[test]
    fn buffalo_peak_respects_budget_better_than_full() {
        let (ds, batch, config) = small_setup();
        let cost = CostModel::rtx6000();
        let big = DeviceMemory::with_gib(24.0);
        let mut full = Engine::full_batch(config.clone());
        let full_stats = full.train_iteration(&ds, &batch, &big, &cost).unwrap();
        let mut buffalo = Engine::buffalo(config, 0.24);
        let small = DeviceMemory::new(full_stats.peak_mem_bytes * 3 / 4);
        let b_stats = buffalo.train_iteration(&ds, &batch, &small, &cost).unwrap();
        assert!(b_stats.peak_mem_bytes <= small.budget());
        assert!(b_stats.peak_mem_bytes < full_stats.peak_mem_bytes);
    }

    #[test]
    fn transient_faults_recover_bitwise_identical_to_fault_free() {
        // Acceptance: under injected transient faults handled by the
        // retry-only path, training completes with bit-identical losses to
        // the fault-free run — allocation precedes all compute, so a retry
        // repeats no work.
        use buffalo_memsim::{FaultPlan, FaultyDevice};
        let (ds, batch, config) = small_setup();
        let cost = CostModel::rtx6000();
        let budget = splitting_budget(&batch, &config.shape);
        let clean = DeviceMemory::new(budget);
        let faulty = FaultyDevice::new(
            DeviceMemory::new(budget),
            FaultPlan::parse("transient:nth=1,nth=3,nth=7,nth=12").unwrap(),
        );
        let mut a = Engine::buffalo(config.clone(), 0.24);
        let mut b = Engine::buffalo(config, 0.24).with_recovery(RecoveryPolicy::default());
        let mut recovered = 0usize;
        for i in 0..5 {
            let sa = a.train_iteration(&ds, &batch, &clean, &cost).unwrap();
            let sb = b.train_iteration(&ds, &batch, &faulty, &cost).unwrap();
            assert_eq!(sa.loss.to_bits(), sb.loss.to_bits(), "iter {i}");
            assert_eq!(sa.accuracy.to_bits(), sb.accuracy.to_bits(), "iter {i}");
            assert_eq!(sa.num_micro_batches, sb.num_micro_batches, "iter {i}");
            assert!(sa.recovery.is_empty());
            recovered += sb.recovery.len();
        }
        assert!(
            recovered >= 4,
            "expected >= 4 recovery events, saw {recovered}"
        );
        assert_eq!(faulty.counters().injected, 4);
        // Transient faults say nothing about the estimator: headroom must
        // stay at the floor so scheduling is unchanged.
        assert_eq!(b.headroom_multiplier(), 1.0);
    }

    #[test]
    fn budget_shrink_triggers_resplit_and_completes() {
        // Acceptance: a mid-iteration budget shrink must not let an
        // `OomError` escape — the ladder re-splits the offending
        // micro-batch and every seed still trains exactly once.
        use buffalo_memsim::{FaultPlan, FaultyDevice};
        let (ds, batch, config) = small_setup();
        let cost = CostModel::rtx6000();
        let budget = splitting_budget(&batch, &config.shape);
        let faulty = FaultyDevice::new(
            DeviceMemory::new(budget),
            FaultPlan::parse("shrink:at=2,factor=0.55").unwrap(),
        );
        let baseline_k = {
            let clean = DeviceMemory::new(budget);
            let mut t = Engine::buffalo(config.clone(), 0.24);
            t.train_iteration(&ds, &batch, &clean, &cost)
                .unwrap()
                .num_micro_batches
        };
        let mut trainer = Engine::buffalo(config, 0.24).with_recovery(RecoveryPolicy::default());
        let stats = trainer
            .train_iteration(&ds, &batch, &faulty, &cost)
            .unwrap();
        assert!(
            stats
                .recovery
                .iter()
                .any(|e| matches!(e.action, RecoveryAction::Resplit { .. })),
            "expected a re-split event, got {:?}",
            stats.recovery
        );
        assert!(
            stats.num_micro_batches > baseline_k,
            "re-split should add micro-batches: {} vs baseline {baseline_k}",
            stats.num_micro_batches
        );
        // All seeds trained exactly once: accuracy is a valid fraction and
        // the loss is a finite mean over the full seed set.
        assert!(stats.loss.is_finite());
        assert!((0.0..=1.0).contains(&stats.accuracy));
        // Peak never exceeded the budget in force at allocation time: the
        // first micro-batch landed under the original budget, everything
        // after the shrink fit the reduced one.
        assert!(faulty.inner().peak() <= budget);
    }

    #[test]
    fn exhausted_recovery_surfaces_the_event_trail() {
        use buffalo_memsim::{FaultPlan, FaultyDevice};
        let (ds, batch, config) = small_setup();
        let cost = CostModel::rtx6000();
        let budget = splitting_budget(&batch, &config.shape);
        // Shrink to 1% of budget at the first allocation: nothing fits,
        // re-splitting cannot help, recovery must exhaust.
        let faulty = FaultyDevice::new(
            DeviceMemory::new(budget),
            FaultPlan::parse("shrink:at=1,factor=0.01").unwrap(),
        );
        let policy = RecoveryPolicy {
            max_retries: 2,
            ..RecoveryPolicy::default()
        };
        let mut trainer = Engine::buffalo(config, 0.24).with_recovery(policy);
        let err = trainer
            .train_iteration(&ds, &batch, &faulty, &cost)
            .unwrap_err();
        match err {
            TrainError::RecoveryExhausted {
                ref events,
                ref last,
            } => {
                assert!(events.len() >= 3, "trail too short: {events:?}");
                assert!(events
                    .iter()
                    .any(|e| matches!(e.action, RecoveryAction::Retry { .. })));
                assert!(matches!(
                    events.last().unwrap().action,
                    RecoveryAction::Exhausted
                ));
                assert!(!last.transient);
                assert!(last.requested > last.budget);
            }
            other => panic!("expected RecoveryExhausted, got {other:?}"),
        }
        // The chain is inspectable through std::error::Error.
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn fault_plans_replay_identical_event_logs() {
        // Acceptance: the same fault spec produces identical RecoveryEvent
        // logs across runs — full determinism from the seed.
        use buffalo_memsim::{FaultPlan, FaultyDevice};
        let (ds, batch, config) = small_setup();
        let cost = CostModel::rtx6000();
        let budget = splitting_budget(&batch, &config.shape);
        let run = || {
            let faulty = FaultyDevice::new(
                DeviceMemory::new(budget),
                FaultPlan::parse("transient:p=0.12,seed=11").unwrap(),
            );
            let mut trainer = Engine::buffalo(config.clone(), 0.24).with_recovery(RecoveryPolicy {
                max_retries: 8,
                ..RecoveryPolicy::default()
            });
            let mut events = Vec::new();
            let mut losses = Vec::new();
            for _ in 0..4 {
                let s = trainer
                    .train_iteration(&ds, &batch, &faulty, &cost)
                    .unwrap();
                losses.push(s.loss.to_bits());
                events.extend(s.recovery);
            }
            (events, losses, faulty.counters())
        };
        let (ev_a, loss_a, c_a) = run();
        let (ev_b, loss_b, c_b) = run();
        assert!(
            !ev_a.is_empty(),
            "p=0.12 over 4 iterations injected nothing"
        );
        assert_eq!(ev_a, ev_b, "event logs must replay identically");
        assert_eq!(loss_a, loss_b);
        assert_eq!(c_a, c_b);
    }

    #[test]
    fn pipelined_recovery_degrades_then_matches_serial_losses() {
        // A transient fault while double-buffered climbs the DegradeSerial
        // rung first; the math is residency-independent, so losses still
        // match the clean serial run bit-for-bit.
        use buffalo_memsim::{FaultPlan, FaultyDevice};
        let (ds, batch, config) = small_setup();
        let cost = CostModel::rtx6000();
        let budget = splitting_budget(&batch, &config.shape);
        let clean = DeviceMemory::new(budget);
        let faulty = FaultyDevice::new(
            DeviceMemory::new(budget),
            FaultPlan::parse("transient:nth=1").unwrap(),
        );
        let mut serial = Engine::buffalo(config.clone(), 0.24);
        let mut pipelined = Engine::buffalo(config, 0.24)
            .with_pipeline(PipelineConfig::overlapped())
            .with_recovery(RecoveryPolicy::default());
        let a = serial.train_iteration(&ds, &batch, &clean, &cost).unwrap();
        let b = pipelined
            .train_iteration(&ds, &batch, &faulty, &cost)
            .unwrap();
        assert_eq!(a.loss.to_bits(), b.loss.to_bits());
        assert!(
            b.recovery
                .iter()
                .any(|e| matches!(e.action, RecoveryAction::DegradeSerial)),
            "first-alloc fault under double buffering should degrade: {:?}",
            b.recovery
        );
    }

    #[test]
    fn device_loss_fails_over_bitwise_identical_to_fault_free() {
        // Acceptance (tentpole): a 2-device run that loses device 1
        // mid-epoch completes via the failover rung — no rollback, no
        // abort — with per-iteration losses bitwise identical to the
        // fault-free 2-device run. Execute is in-order, so re-routing the
        // dead device's micro-batches onto the survivor changes nothing
        // about the accumulation order.
        use buffalo_memsim::FaultPlan;
        let (ds, batch, config) = small_setup();
        let cost = CostModel::rtx6000();
        let budget = splitting_budget(&batch, &config.shape);
        let clean = DevicePool::homogeneous(2, budget, &FaultPlan::none()).unwrap();
        let faulty =
            DevicePool::homogeneous(2, budget, &FaultPlan::parse("lose:1,3").unwrap()).unwrap();
        let mut a = Engine::buffalo(config.clone(), 0.24).with_recovery(RecoveryPolicy::default());
        let mut b = Engine::buffalo(config, 0.24).with_recovery(RecoveryPolicy::default());
        let mut events = Vec::new();
        for i in 0..5 {
            let sa = a.train_iteration(&ds, &batch, &clean, &cost).unwrap();
            let sb = b.train_iteration(&ds, &batch, &faulty, &cost).unwrap();
            assert!(sa.num_micro_batches > 1, "budget did not force split");
            assert_eq!(sa.loss.to_bits(), sb.loss.to_bits(), "iter {i}");
            assert_eq!(sa.accuracy.to_bits(), sb.accuracy.to_bits(), "iter {i}");
            assert_eq!(sa.num_micro_batches, sb.num_micro_batches, "iter {i}");
            assert!(sa.recovery.is_empty());
            events.extend(sb.recovery);
        }
        // Exactly one loss, handled by the failover rung alone.
        let lost: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.action, RecoveryAction::DeviceLost { .. }))
            .collect();
        assert_eq!(lost.len(), 1, "events: {events:?}");
        assert!(matches!(
            lost[0].action,
            RecoveryAction::DeviceLost {
                device: 1,
                survivors: 1
            }
        ));
        assert!(
            !events
                .iter()
                .any(|e| matches!(e.action, RecoveryAction::Exhausted)),
            "failover must complete without exhausting: {events:?}"
        );
        assert_eq!(faulty.dead(), vec![1]);
        assert_eq!(clean.dead(), Vec::<usize>::new());
        // The clean run sharded across both members; the faulty run's
        // survivor absorbed everything after the loss.
        assert!(clean.device(1).unwrap().counters().allocs > 0);
        // A device loss says nothing about the memory estimator.
        assert_eq!(b.headroom_multiplier(), 1.0);
    }

    #[test]
    fn losing_every_device_exhausts_recovery() {
        use buffalo_memsim::FaultPlan;
        let (ds, batch, config) = small_setup();
        let cost = CostModel::rtx6000();
        let budget = splitting_budget(&batch, &config.shape);
        let pool =
            DevicePool::homogeneous(2, budget, &FaultPlan::parse("lose:0,2;lose:1,2").unwrap())
                .unwrap();
        let mut trainer = Engine::buffalo(config, 0.24).with_recovery(RecoveryPolicy::default());
        let err = trainer
            .train_iteration(&ds, &batch, &pool, &cost)
            .unwrap_err();
        match err {
            TrainError::RecoveryExhausted {
                ref events,
                ref last,
            } => {
                assert!(last.device_lost);
                assert!(events
                    .iter()
                    .any(|e| matches!(e.action, RecoveryAction::DeviceLost { .. })));
                assert!(matches!(
                    events.last().unwrap().action,
                    RecoveryAction::Exhausted
                ));
            }
            other => panic!("expected RecoveryExhausted, got {other:?}"),
        }
        assert_eq!(pool.dead(), vec![0, 1]);
    }

    #[test]
    fn a_lone_lost_device_exhausts_like_a_pool_of_one() {
        // Regression: the `Device` defaults used to answer "one live
        // device" after a lone device died, so this iteration took the
        // failover rung forever, one `DeviceLost` event per spin. A
        // single device is a pool of one: same error, same one-event
        // trail.
        use buffalo_memsim::{FaultPlan, FaultyDevice};
        let (ds, batch, config) = small_setup();
        let cost = CostModel::rtx6000();
        let budget = splitting_budget(&batch, &config.shape);
        let plan = FaultPlan::parse("lose:0,2").unwrap();
        let lone = FaultyDevice::new(DeviceMemory::new(budget), plan.clone());
        let pool = DevicePool::homogeneous(1, budget, &plan).unwrap();
        let trails = [&lone as &dyn Device, &pool].map(|device| {
            let mut engine =
                Engine::buffalo(config.clone(), 0.24).with_recovery(RecoveryPolicy::default());
            match engine.train_iteration(&ds, &batch, device, &cost) {
                Err(TrainError::RecoveryExhausted { events, last }) => {
                    assert!(last.device_lost);
                    events
                }
                other => panic!("expected RecoveryExhausted, got {other:?}"),
            }
        });
        assert_eq!(trails[0], trails[1]);
        assert_eq!(trails[0].len(), 1, "trail grew: {:?}", trails[0]);
        assert_eq!(trails[0][0].action, RecoveryAction::Exhausted);
        assert_eq!(trails[0][0].index, 1, "the second micro-batch hit the loss");
    }

    #[test]
    fn multi_device_resume_restores_the_dead_set() {
        // A 2-device run that loses device 1, crashes mid-save, and
        // resumes in a "new process" (fresh pool, same fault plan) must
        // re-mark the dead member and produce the fault-free trail.
        use buffalo_memsim::{CrashPoint, FaultPlan};
        let ds = datasets::load(DatasetName::Cora, 9);
        let cost = CostModel::rtx6000();
        let config = TrainConfig {
            shape: GnnShape::new(
                ds.spec.feat_dim,
                16,
                2,
                ds.spec.num_classes,
                AggregatorKind::Mean,
            ),
            fanouts: vec![4, 4],
            lr: 0.05,
            seed: 3,
            parallelism: Parallelism::auto(),
        };
        let cfg = EpochConfig {
            batch_size: 64,
            epochs: 2,
            train_nodes: 256,
            eval_nodes: 0,
            seed: 1,
        };
        let dir = std::env::temp_dir().join(format!("buffalo-pool-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Per-device budget that splits each batch across the pool.
        let seeds: Vec<u32> = (0..64).collect();
        let probe = BatchSampler::new(vec![4, 4]).sample(&ds.graph, &seeds, 3);
        let budget = splitting_budget(&probe, &config.shape);
        let fresh_pool = |spec: &str| {
            DevicePool::homogeneous(2, budget, &FaultPlan::parse(spec).unwrap()).unwrap()
        };
        let fresh_trainer =
            || Engine::buffalo(config.clone(), 0.24).with_recovery(RecoveryPolicy::default());
        let reference = {
            let pool = fresh_pool("");
            let mut t = fresh_trainer();
            run_epochs_checkpointed(&mut t, &ds, &pool, &cost, &cfg, None, false).unwrap()
        };
        let opts = crate::checkpoint::CheckpointOptions {
            every: 2,
            crash: Some(CrashPoint {
                at_save: 3,
                after_bytes: None,
                torn: true,
            }),
            ..crate::checkpoint::CheckpointOptions::new(&dir)
        };
        {
            let pool = fresh_pool("lose:1,2");
            let mut t = fresh_trainer();
            let err = run_epochs_checkpointed(&mut t, &ds, &pool, &cost, &cfg, Some(&opts), false)
                .unwrap_err();
            assert!(matches!(err, TrainError::Checkpoint(_)), "{err:?}");
            assert_eq!(pool.dead(), vec![1], "loss must precede the crash");
        }
        let resumed = {
            let pool = fresh_pool("lose:1,2");
            let mut t = fresh_trainer();
            let opts = crate::checkpoint::CheckpointOptions {
                every: 2,
                ..crate::checkpoint::CheckpointOptions::new(&dir)
            };
            let run = run_epochs_checkpointed(&mut t, &ds, &pool, &cost, &cfg, Some(&opts), true)
                .unwrap();
            assert_eq!(pool.dead(), vec![1], "resume must restore the dead set");
            run
        };
        assert!(resumed.resumed_at.is_some());
        let bits =
            |run: &TrainRun| -> Vec<u32> { run.loss_trail.iter().map(|l| l.to_bits()).collect() };
        assert_eq!(bits(&reference), bits(&resumed));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn buffalo_schedule_error_on_absurd_budget() {
        let (ds, batch, config) = small_setup();
        let cost = CostModel::rtx6000();
        let device = DeviceMemory::new(16); // 16 bytes
        let mut buffalo = Engine::buffalo(config, 0.24);
        let err = buffalo
            .train_iteration(&ds, &batch, &device, &cost)
            .unwrap_err();
        assert!(matches!(err, TrainError::Schedule(_)));
    }
}
