//! Epoch-level training: mini-batch iteration over a shuffled seed set
//! with per-epoch loss/accuracy tracking and held-out evaluation.

use crate::checkpoint::{
    config_fingerprint, CheckpointError, CheckpointOptions, CheckpointRing, TrainSnapshot,
};
use crate::models::GnnModel;
use crate::train::{gather, Engine, RecoveryEvent};
use crate::TrainError;
use buffalo_blocks::BlockWalker;
use buffalo_graph::datasets::Dataset;
use buffalo_graph::NodeId;
use buffalo_memsim::{CostModel, Device, DevicePool, StageTimings};
use buffalo_sampling::{BatchSampler, SeedBatches};
use buffalo_tensor::softmax_cross_entropy;

/// Epoch-driver configuration.
#[derive(Debug, Clone)]
pub struct EpochConfig {
    /// Seeds per mini-batch.
    pub batch_size: usize,
    /// Number of epochs to run.
    pub epochs: usize,
    /// Nodes used for training (the "train split"); the driver shuffles
    /// and chunks them each epoch.
    pub train_nodes: usize,
    /// Held-out nodes evaluated after each epoch (taken from the id range
    /// immediately after the training nodes).
    pub eval_nodes: usize,
    /// Shuffling/sampling seed.
    pub seed: u64,
}

/// Per-epoch metrics.
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch's iterations.
    pub mean_loss: f32,
    /// Training accuracy over the epoch.
    pub train_accuracy: f32,
    /// Held-out accuracy after the epoch (`None` when `eval_nodes == 0`).
    pub val_accuracy: Option<f32>,
    /// Iterations (mini-batches) run.
    pub iterations: usize,
    /// Stage timings accumulated over the epoch's iterations.
    pub timings: StageTimings,
    /// Recovery actions taken across the epoch's iterations, in order.
    /// Empty unless the trainer has an enabled `RecoveryPolicy` and the
    /// device refused an allocation.
    pub recovery: Vec<RecoveryEvent>,
}

/// Result of a (possibly checkpointed) multi-epoch run.
#[derive(Debug, Clone)]
pub struct TrainRun {
    /// Per-epoch stats for every epoch *completed by this process* — a
    /// resumed run reports only the epochs it finished itself (the
    /// snapshot carries the partial epoch's sums, so the first reported
    /// epoch is still exact).
    pub epochs: Vec<EpochStats>,
    /// Per-iteration training losses for the *whole* run, including
    /// iterations from before a resume. This is the bit-identity trail: a
    /// crashed-and-resumed run produces exactly the bits of an
    /// uninterrupted one.
    pub loss_trail: Vec<f32>,
    /// The global iteration the run resumed from, when `--resume` found a
    /// valid snapshot.
    pub resumed_at: Option<u64>,
    /// Times the rollback rung fired on `RecoveryExhausted`.
    pub rollbacks: u64,
    /// Snapshots successfully written by this process.
    pub snapshots_written: u64,
}

/// The live position of a [`run_epochs_checkpointed`] run — everything a
/// snapshot must pin down beyond trainer state. All random streams are
/// keyed off these indices (epoch shuffle by `seed ^ f(epoch)`, sampling
/// by `seed + epoch_iter`, device faults by allocation count), which is
/// why restoring the cursor restores the streams.
struct Cursor {
    epoch: u64,
    epoch_iter: u64,
    global_iter: u64,
    loss_sum: f64,
    acc_sum: f64,
    rollbacks: u64,
}

/// Runs `cfg.epochs` epochs with optional checkpointing, resume, and
/// rollback-on-exhaustion.
///
/// With `ckpt` set, a base snapshot is written before the first
/// iteration, one after every `ckpt.every` completed iterations, and one
/// at each epoch end. With `resume`, the newest valid snapshot in
/// `ckpt.dir` is restored first: trainer state bit-exactly, the device's
/// fault stream fast-forwarded to the recorded allocation count, and the
/// cursor moved so the continued loss trail is bit-identical to an
/// uninterrupted run. When a [`TrainError::RecoveryExhausted`] surfaces
/// and `ckpt.max_rollbacks` allows, the run rolls back to the latest
/// snapshot with a compounding headroom boost (×1.25 per rollback, capped)
/// instead of aborting — the fourth rung of the recovery ladder.
///
/// Timings and recovery trails in [`EpochStats`] cover only work done
/// after the last restore within that epoch; sums, losses, and accuracy
/// are exact across restores.
///
/// # Errors
///
/// * Any unrecovered [`TrainError`] from an iteration.
/// * [`TrainError::Checkpoint`] for snapshot I/O or integrity failures,
///   a configuration mismatch on resume, or an injected crash.
///
/// # Panics
///
/// Panics if `train_nodes + eval_nodes` exceeds the dataset size or
/// `batch_size == 0`.
pub fn run_epochs_checkpointed(
    trainer: &mut Engine,
    ds: &Dataset,
    device: &dyn Device,
    cost: &CostModel,
    cfg: &EpochConfig,
    ckpt: Option<&CheckpointOptions>,
    resume: bool,
) -> Result<TrainRun, TrainError> {
    assert!(cfg.batch_size > 0, "batch_size must be positive");
    assert!(
        cfg.train_nodes + cfg.eval_nodes <= ds.graph.num_nodes(),
        "train + eval split exceeds dataset size"
    );
    let fingerprint = config_fingerprint(trainer.config(), cfg);
    let fanouts = trainer.config().fanouts.clone();
    let sampler = BatchSampler::new(fanouts.clone());

    let mut ring = match ckpt {
        Some(o) => {
            let mut r = CheckpointRing::create(&o.dir, o.keep).map_err(TrainError::Checkpoint)?;
            r.set_crash(o.crash);
            Some(r)
        }
        None => None,
    };

    let mut cur = Cursor {
        epoch: 0,
        epoch_iter: 0,
        global_iter: 0,
        loss_sum: 0.0,
        acc_sum: 0.0,
        rollbacks: 0,
    };
    let mut loss_trail: Vec<f32> = Vec::new();
    let mut timings = StageTimings::default();
    let mut recovery: Vec<RecoveryEvent> = Vec::new();
    let mut resumed_at = None;
    let mut snapshots_written = 0u64;

    if resume {
        let opts = ckpt.ok_or_else(|| {
            TrainError::InvalidConfig("resume requested without checkpoint options".into())
        })?;
        let (snap, _path) =
            CheckpointRing::load_latest(&opts.dir).map_err(TrainError::Checkpoint)?;
        if snap.config_hash != fingerprint {
            return Err(TrainError::Checkpoint(CheckpointError::ConfigMismatch {
                expected: fingerprint,
                found: snap.config_hash,
            }));
        }
        trainer
            .restore_state(&snap.trainer)
            .map_err(TrainError::Checkpoint)?;
        if let Some(pool) = device.pool() {
            pool.restore_position(&snap.device_allocs, &snap.dead_devices);
        }
        cur = Cursor {
            epoch: snap.epoch,
            epoch_iter: snap.epoch_iter,
            global_iter: snap.global_iter,
            loss_sum: snap.epoch_loss_sum,
            acc_sum: snap.epoch_acc_sum,
            rollbacks: snap.rollbacks,
        };
        loss_trail = snap.loss_trail;
        resumed_at = Some(snap.global_iter);
    } else if let Some(r) = ring.as_mut() {
        // Base snapshot: the rollback rung always has somewhere to land,
        // even if the first iteration exhausts recovery.
        save_snapshot(r, trainer, device, fingerprint, &cur, &loss_trail)?;
        snapshots_written += 1;
    }

    let mut out = Vec::new();
    while cur.epoch < cfg.epochs as u64 {
        let batches = SeedBatches::new(
            cfg.train_nodes,
            cfg.batch_size,
            cfg.seed ^ cur.epoch.wrapping_mul(0x9E37_79B9),
        );
        let nb = batches.num_batches() as u64;
        while cur.epoch_iter < nb {
            let i = cur.epoch_iter;
            let batch = sampler.sample(&ds.graph, batches.batch(i as usize), cfg.seed + i);
            match trainer.train_iteration(ds, &batch, device, cost) {
                Ok(stats) => {
                    cur.loss_sum += stats.loss as f64;
                    cur.acc_sum += stats.accuracy as f64;
                    timings.accumulate(&stats.timings);
                    recovery.extend(stats.recovery);
                    loss_trail.push(stats.loss);
                    cur.epoch_iter += 1;
                    cur.global_iter += 1;
                    if let Some(r) = ring.as_mut() {
                        let every = ckpt.map_or(0, |o| o.every) as u64;
                        if every > 0 && cur.global_iter.is_multiple_of(every) {
                            save_snapshot(r, trainer, device, fingerprint, &cur, &loss_trail)?;
                            snapshots_written += 1;
                        }
                    }
                }
                Err(TrainError::RecoveryExhausted { events, last }) => {
                    // Rollback rung: recovery code must not itself panic,
                    // so the checkpoint options are matched out rather
                    // than unwrapped (`ring` exists only when `ckpt` does,
                    // but the compiler cannot see that).
                    let allowed = ckpt.map_or(0, |o| o.max_rollbacks) as u64;
                    let opts = match ckpt {
                        Some(o) if ring.is_some() && cur.rollbacks < allowed => o,
                        _ => return Err(TrainError::RecoveryExhausted { events, last }),
                    };
                    let (snap, _path) =
                        CheckpointRing::load_latest(&opts.dir).map_err(TrainError::Checkpoint)?;
                    trainer
                        .restore_state(&snap.trainer)
                        .map_err(TrainError::Checkpoint)?;
                    // The device is NOT rewound: its shrunken budget and
                    // consumed fault events are facts of the world the
                    // retried iterations must live with.
                    cur = Cursor {
                        epoch: snap.epoch,
                        epoch_iter: snap.epoch_iter,
                        global_iter: snap.global_iter,
                        loss_sum: snap.epoch_loss_sum,
                        acc_sum: snap.epoch_acc_sum,
                        rollbacks: cur.rollbacks + 1,
                    };
                    loss_trail = snap.loss_trail;
                    timings = StageTimings::default();
                    recovery = Vec::new();
                    // Compounding headroom: each rollback schedules more
                    // conservatively than the snapshot did, so the replay
                    // cannot exhaust the same way forever.
                    let boost = snap.trainer.headroom_multiplier
                        * 1.25f64.powi(cur.rollbacks.min(i32::MAX as u64) as i32);
                    trainer.force_headroom(boost);
                    break; // re-enter the epoch loop at the restored cursor
                }
                Err(e) => return Err(e),
            }
        }
        if cur.epoch_iter < nb {
            continue; // rolled back: recompute the epoch's seed batches
        }
        let val_accuracy = (cfg.eval_nodes > 0).then(|| {
            let eval: Vec<NodeId> =
                (cfg.train_nodes as NodeId..(cfg.train_nodes + cfg.eval_nodes) as NodeId).collect();
            evaluate(trainer.model(), ds, &eval, &fanouts, cfg.seed ^ 0xE7A1)
        });
        out.push(EpochStats {
            epoch: cur.epoch as usize,
            mean_loss: (cur.loss_sum / nb.max(1) as f64) as f32,
            train_accuracy: (cur.acc_sum / nb.max(1) as f64) as f32,
            val_accuracy,
            iterations: nb as usize,
            timings: std::mem::take(&mut timings),
            recovery: std::mem::take(&mut recovery),
        });
        cur.epoch += 1;
        cur.epoch_iter = 0;
        cur.loss_sum = 0.0;
        cur.acc_sum = 0.0;
        if let Some(r) = ring.as_mut() {
            save_snapshot(r, trainer, device, fingerprint, &cur, &loss_trail)?;
            snapshots_written += 1;
        }
    }
    Ok(TrainRun {
        epochs: out,
        loss_trail,
        resumed_at,
        rollbacks: cur.rollbacks,
        snapshots_written,
    })
}

fn save_snapshot(
    ring: &mut CheckpointRing,
    trainer: &mut Engine,
    device: &dyn Device,
    config_hash: u64,
    cur: &Cursor,
    loss_trail: &[f32],
) -> Result<(), TrainError> {
    // A plain device is a lone device whose stream never moves.
    let (device_allocs, dead_devices) = device
        .pool()
        .map_or_else(|| (vec![0], Vec::new()), DevicePool::snapshot_position);
    let snap = TrainSnapshot {
        config_hash,
        epoch: cur.epoch,
        epoch_iter: cur.epoch_iter,
        global_iter: cur.global_iter,
        device_allocs,
        dead_devices,
        rollbacks: cur.rollbacks,
        epoch_loss_sum: cur.loss_sum,
        epoch_acc_sum: cur.acc_sum,
        loss_trail: loss_trail.to_vec(),
        trainer: trainer.capture_state(),
    };
    ring.save(&snap).map_err(TrainError::Checkpoint)?;
    Ok(())
}

/// Forward-only evaluation: classification accuracy of `model` on
/// `nodes`, sampling their neighborhoods with `fanouts`.
///
/// # Panics
///
/// Panics if `nodes` is empty.
pub fn evaluate(
    model: &GnnModel,
    ds: &Dataset,
    nodes: &[NodeId],
    fanouts: &[usize],
    seed: u64,
) -> f32 {
    assert!(!nodes.is_empty(), "evaluation set must be non-empty");
    let batch = BatchSampler::new(fanouts.to_vec()).sample(&ds.graph, nodes, seed);
    let blocks = BlockWalker::default().whole_batch(&batch.graph, batch.num_seeds, fanouts.len());
    let data = gather(ds, &batch, &blocks);
    let logits = model.logits(&blocks, &data.features);
    let out = softmax_cross_entropy(&logits, &data.labels, None);
    out.correct as f32 / data.labels.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::TrainConfig;
    use buffalo_graph::datasets::{self, DatasetName};
    use buffalo_memsim::{AggregatorKind, DeviceMemory, GnnShape};

    fn config(ds: &Dataset) -> TrainConfig {
        TrainConfig {
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
            parallelism: buffalo_par::Parallelism::auto(),
        }
    }

    #[test]
    fn epochs_improve_validation_accuracy() {
        let ds = datasets::load(DatasetName::Cora, 9);
        let device = DeviceMemory::with_gib(24.0);
        let cost = CostModel::rtx6000();
        let mut trainer = Engine::full_batch(config(&ds));
        let cfg = EpochConfig {
            batch_size: 128,
            epochs: 5,
            train_nodes: 512,
            eval_nodes: 256,
            seed: 1,
        };
        let stats = run_epochs_checkpointed(&mut trainer, &ds, &device, &cost, &cfg, None, false)
            .unwrap()
            .epochs;
        assert_eq!(stats.len(), 5);
        assert!(stats.iter().all(|s| s.iterations == 4));
        let first = stats.first().unwrap();
        let last = stats.last().unwrap();
        assert!(last.mean_loss < first.mean_loss, "loss should fall");
        let (f, l) = (first.val_accuracy.unwrap(), last.val_accuracy.unwrap());
        // The synthetic task can saturate within the first epoch, so the
        // requirement is non-regression plus a decisively-above-chance end
        // state.
        assert!(l >= f, "val accuracy regressed: {f} -> {l}");
        assert!(l > 0.6, "final val accuracy {l} too low");
    }

    #[test]
    fn both_engine_modes_run_the_same_epochs() {
        let ds = datasets::load(DatasetName::Cora, 9);
        let device = DeviceMemory::with_gib(24.0);
        let cost = CostModel::rtx6000();
        let cfg = EpochConfig {
            batch_size: 64,
            epochs: 1,
            train_nodes: 128,
            eval_nodes: 0,
            seed: 1,
        };
        let mut full = Engine::full_batch(config(&ds));
        let mut buffalo = Engine::buffalo(config(&ds), 0.24);
        let a = run_epochs_checkpointed(&mut full, &ds, &device, &cost, &cfg, None, false)
            .unwrap()
            .epochs;
        let b = run_epochs_checkpointed(&mut buffalo, &ds, &device, &cost, &cfg, None, false)
            .unwrap()
            .epochs;
        assert_eq!(a[0].iterations, b[0].iterations);
        assert!(a[0].val_accuracy.is_none());
        // Identical computation -> identical epoch losses.
        assert!((a[0].mean_loss - b[0].mean_loss).abs() < 1e-4);
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d =
            std::env::temp_dir().join(format!("buffalo-epoch-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn epoch_cfg() -> EpochConfig {
        EpochConfig {
            batch_size: 64,
            epochs: 2,
            train_nodes: 256,
            eval_nodes: 128,
            seed: 1,
        }
    }

    #[test]
    fn checkpointed_run_matches_plain_run_bitwise() {
        // Writing snapshots must not perturb the math at all.
        let ds = datasets::load(DatasetName::Cora, 9);
        let cost = CostModel::rtx6000();
        let cfg = epoch_cfg();
        let dir = tmpdir("noperturb");
        let reference = {
            let device = DeviceMemory::with_gib(24.0);
            let mut t = Engine::buffalo(config(&ds), 0.24);
            run_epochs_checkpointed(&mut t, &ds, &device, &cost, &cfg, None, false).unwrap()
        };
        let checkpointed = {
            let device = DeviceMemory::with_gib(24.0);
            let mut t = Engine::buffalo(config(&ds), 0.24);
            let opts = crate::checkpoint::CheckpointOptions {
                every: 2,
                ..crate::checkpoint::CheckpointOptions::new(&dir)
            };
            run_epochs_checkpointed(&mut t, &ds, &device, &cost, &cfg, Some(&opts), false).unwrap()
        };
        assert_eq!(trail_bits(&reference), trail_bits(&checkpointed));
        assert!(checkpointed.snapshots_written >= 4);
        assert_eq!(checkpointed.rollbacks, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn trail_bits(run: &crate::train::TrainRun) -> Vec<u32> {
        run.loss_trail.iter().map(|l| l.to_bits()).collect()
    }

    #[test]
    fn crash_and_resume_trail_is_bit_identical() {
        // Acceptance: a run killed mid-checkpoint-write (torn final file,
        // so resume must also exercise the CRC fallback) and resumed in a
        // "new process" — fresh trainer, fresh fault device — produces a
        // per-iteration loss trail bitwise identical to an uninterrupted
        // run. Injected transient faults make the device stream
        // position-dependent, so this also proves the RNG fast-forward.
        use buffalo_memsim::FaultPlan;
        let ds = datasets::load(DatasetName::Cora, 9);
        let cost = CostModel::rtx6000();
        let cfg = epoch_cfg();
        let dir = tmpdir("resume");
        let fault_spec = "transient:p=0.15,seed=11";
        let budget = DeviceMemory::with_gib(24.0).budget();
        let plan = FaultPlan::parse(fault_spec).unwrap();
        let fresh_device = || DevicePool::homogeneous(1, budget, &plan).unwrap();
        let fresh_trainer = || {
            Engine::buffalo(config(&ds), 0.24).with_recovery(crate::train::RecoveryPolicy {
                max_retries: 8,
                ..crate::train::RecoveryPolicy::default()
            })
        };

        let reference = {
            let device = fresh_device();
            let mut t = fresh_trainer();
            run_epochs_checkpointed(&mut t, &ds, &device, &cost, &cfg, None, false).unwrap()
        };
        assert_eq!(reference.loss_trail.len(), 8);

        // Crashed run: the injected kill fires during the 3rd save and
        // leaves a torn file at the *final* path.
        let opts = crate::checkpoint::CheckpointOptions {
            every: 2,
            crash: Some(buffalo_memsim::CrashPoint {
                at_save: 3,
                after_bytes: None,
                torn: true,
            }),
            ..crate::checkpoint::CheckpointOptions::new(&dir)
        };
        {
            let device = fresh_device();
            let mut t = fresh_trainer();
            let err =
                run_epochs_checkpointed(&mut t, &ds, &device, &cost, &cfg, Some(&opts), false)
                    .unwrap_err();
            assert!(
                matches!(
                    err,
                    TrainError::Checkpoint(crate::checkpoint::CheckpointError::CrashInjected {
                        save_index: 3
                    })
                ),
                "{err:?}"
            );
        }

        // Resume in a "new process": fresh trainer, fresh device, same
        // fault plan. The torn snapshot is skipped, the previous ring
        // entry restores, and the trail comes out bit-identical.
        let resumed = {
            let device = fresh_device();
            let mut t = fresh_trainer();
            let opts = crate::checkpoint::CheckpointOptions {
                every: 2,
                ..crate::checkpoint::CheckpointOptions::new(&dir)
            };
            run_epochs_checkpointed(&mut t, &ds, &device, &cost, &cfg, Some(&opts), true).unwrap()
        };
        assert_eq!(
            resumed.resumed_at,
            Some(2),
            "torn save-3 file must be skipped"
        );
        assert_eq!(trail_bits(&reference), trail_bits(&resumed));
        // Epoch stats completed after the resume are exact too, including
        // the partially-pre-crash epoch 0 (sums restored from snapshot).
        assert_eq!(resumed.epochs.len(), 2);
        assert_eq!(
            reference.epochs[0].mean_loss.to_bits(),
            resumed.epochs[0].mean_loss.to_bits()
        );
        assert_eq!(
            reference.epochs[1].val_accuracy.unwrap().to_bits(),
            resumed.epochs[1].val_accuracy.unwrap().to_bits()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rejects_mismatched_configuration() {
        let ds = datasets::load(DatasetName::Cora, 9);
        let cost = CostModel::rtx6000();
        let cfg = epoch_cfg();
        let dir = tmpdir("mismatch");
        let opts = crate::checkpoint::CheckpointOptions::new(&dir);
        {
            let device = DeviceMemory::with_gib(24.0);
            let mut t = Engine::buffalo(config(&ds), 0.24);
            run_epochs_checkpointed(&mut t, &ds, &device, &cost, &cfg, Some(&opts), false).unwrap();
        }
        let device = DeviceMemory::with_gib(24.0);
        let mut other = config(&ds);
        other.lr = 0.123;
        let mut t = Engine::buffalo(other, 0.24);
        let err = run_epochs_checkpointed(&mut t, &ds, &device, &cost, &cfg, Some(&opts), true)
            .unwrap_err();
        assert!(
            matches!(
                err,
                TrainError::Checkpoint(crate::checkpoint::CheckpointError::ConfigMismatch { .. })
            ),
            "{err:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_from_empty_ring_is_structured_error() {
        let ds = datasets::load(DatasetName::Cora, 9);
        let cost = CostModel::rtx6000();
        let cfg = epoch_cfg();
        let dir = tmpdir("emptyring");
        std::fs::create_dir_all(&dir).unwrap();
        let opts = crate::checkpoint::CheckpointOptions::new(&dir);
        let device = DeviceMemory::with_gib(24.0);
        let mut t = Engine::buffalo(config(&ds), 0.24);
        let err = run_epochs_checkpointed(&mut t, &ds, &device, &cost, &cfg, Some(&opts), true)
            .unwrap_err();
        assert!(
            matches!(
                err,
                TrainError::Checkpoint(crate::checkpoint::CheckpointError::NoValidSnapshot { .. })
            ),
            "{err:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rollback_rung_completes_where_seed_aborted() {
        // Acceptance: a mid-epoch budget shrink with retries and re-splits
        // disabled exhausts the in-iteration ladder. Without checkpoints
        // that kills the epoch (the seed behavior); with the rollback rung
        // the run restores the last snapshot, schedules with boosted
        // headroom against the shrunken budget, and completes every epoch.
        use buffalo_memsim::FaultPlan;
        let ds = datasets::load(DatasetName::Cora, 9);
        let cost = CostModel::rtx6000();
        let cfg = epoch_cfg();
        // Probe the whole-batch peak so the shrink bites mid-iteration.
        let peak = {
            let device = DeviceMemory::with_gib(24.0);
            let mut t = Engine::buffalo(config(&ds), 0.24);
            run_epochs_checkpointed(&mut t, &ds, &device, &cost, &cfg, None, false).unwrap();
            device.peak()
        };
        let policy = crate::train::RecoveryPolicy {
            max_retries: 0,
            max_resplits: 0,
            ..crate::train::RecoveryPolicy::default()
        };
        let plan = FaultPlan::parse("shrink:at=3,factor=0.6").unwrap();
        // Seed behavior: recovery exhausts and the run dies.
        {
            let device = DevicePool::homogeneous(1, peak, &plan).unwrap();
            let mut t = Engine::buffalo(config(&ds), 0.24).with_recovery(policy);
            let err = run_epochs_checkpointed(&mut t, &ds, &device, &cost, &cfg, None, false)
                .unwrap_err();
            assert!(
                matches!(err, TrainError::RecoveryExhausted { .. }),
                "{err:?}"
            );
        }
        // Rollback rung: same fault, same policy, checkpoints on.
        let dir = tmpdir("rollback");
        let opts = crate::checkpoint::CheckpointOptions {
            every: 1,
            ..crate::checkpoint::CheckpointOptions::new(&dir)
        };
        let device = DevicePool::homogeneous(1, peak, &plan).unwrap();
        let mut t = Engine::buffalo(config(&ds), 0.24).with_recovery(policy);
        let run =
            run_epochs_checkpointed(&mut t, &ds, &device, &cost, &cfg, Some(&opts), false).unwrap();
        assert!(run.rollbacks >= 1, "rollback rung never fired");
        assert_eq!(run.epochs.len(), cfg.epochs);
        assert_eq!(run.loss_trail.len(), 8);
        assert!(run.loss_trail.iter().all(|l| l.is_finite()));
        assert!(
            t.headroom_multiplier() > 1.0,
            "rollback must boost headroom"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "split exceeds dataset size")]
    fn oversized_split_is_rejected() {
        let ds = datasets::load(DatasetName::Cora, 9);
        let device = DeviceMemory::with_gib(1.0);
        let cost = CostModel::rtx6000();
        let mut trainer = Engine::full_batch(config(&ds));
        let cfg = EpochConfig {
            batch_size: 64,
            epochs: 1,
            train_nodes: 2_500,
            eval_nodes: 2_500,
            seed: 1,
        };
        let _ = run_epochs_checkpointed(&mut trainer, &ds, &device, &cost, &cfg, None, false);
    }
}
