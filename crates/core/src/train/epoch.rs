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
use buffalo_graph::{CsrGraph, NodeId};
use buffalo_memsim::{CostModel, Device, DevicePool, StageTimings};
use buffalo_sampling::{Batch, BatchSampler, SeedBatches};
use buffalo_tensor::softmax_cross_entropy;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::Scope;

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

/// A batch's place in the run: `(epoch, epoch_iter)`.
type Position = (u64, u64);

/// The seed batches of `epoch`: the driver and the sampler thread shuffle
/// with this one seed.
fn epoch_batches(cfg: &EpochConfig, epoch: u64) -> SeedBatches {
    SeedBatches::new(
        cfg.train_nodes,
        cfg.batch_size,
        cfg.seed ^ epoch.wrapping_mul(0x9E37_79B9),
    )
}

/// The driver's end of the run's sampler thread, which samples the batch
/// at a position the driver asks for while the driver trains the current
/// one. At most one position is in flight.
struct SampleAhead {
    asks: Sender<Position>,
    replies: Receiver<(Position, Batch)>,
    in_flight: bool,
    epochs: u64,
    iters_per_epoch: u64,
}

impl SampleAhead {
    /// Starts the sampler thread in `scope`; it ends when this is dropped.
    fn spawn<'scope, 'env>(
        scope: &'scope Scope<'scope, 'env>,
        graph: &'env CsrGraph,
        cfg: &'env EpochConfig,
        sampler: &'env BatchSampler,
    ) -> Self {
        let (asks, positions) = mpsc::channel::<Position>();
        let (batches, replies) = mpsc::channel();
        scope.spawn(move || {
            for (epoch, i) in positions {
                let seeds = epoch_batches(cfg, epoch);
                // A panic ends the thread: the driver finds it gone,
                // samples this position itself and raises the same panic.
                let Ok(batch) = panic::catch_unwind(AssertUnwindSafe(|| {
                    sampler.sample(graph, seeds.batch(i as usize), cfg.seed + i)
                })) else {
                    break;
                };
                if batches.send(((epoch, i), batch)).is_err() {
                    break;
                }
            }
        });
        SampleAhead {
            asks,
            replies,
            in_flight: false,
            epochs: cfg.epochs as u64,
            iters_per_epoch: cfg.train_nodes.div_ceil(cfg.batch_size) as u64,
        }
    }

    /// Asks for the batch at `(epoch, i)`; a position past the run's end
    /// asks for nothing.
    fn ask(&mut self, (epoch, i): Position) {
        self.in_flight =
            epoch < self.epochs && i < self.iters_per_epoch && self.asks.send((epoch, i)).is_ok();
    }

    /// Takes the reply in flight: its batch when it was sampled for `at`,
    /// `None` when it was not (the driver rolled back), when nothing is in
    /// flight, or when the thread is gone.
    fn take(&mut self, at: Position) -> Option<Batch> {
        if !std::mem::take(&mut self.in_flight) {
            return None;
        }
        match self.replies.recv() {
            Ok((pos, batch)) if pos == at => Some(batch),
            _ => None,
        }
    }
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
/// Batches are sampled one ahead on a helper thread, one per call: before
/// iteration *i* trains, the driver asks that thread for the batch of the
/// next position (the next iteration of this epoch, or iteration 0 of the
/// next). At the top of iteration *i + 1* it uses the reply only if it
/// was sampled for the cursor's position. After a rollback it was not:
/// the reply is discarded and the batch sampled inline, as it is when
/// nothing is in flight (the call's first iteration) or the thread is
/// gone; the next position is asked for first, so the thread samples it
/// meanwhile. Sampling reads only the graph, the epoch's shuffle and
/// `cfg.seed + epoch_iter`, never the model, so either thread samples the
/// same batch and no bit of the run moves. A panic on the helper thread
/// surfaces as the inline sampler's panic on the caller's thread.
///
/// # Errors
///
/// * [`TrainError::InvalidConfig`] if `batch_size` or `train_nodes` is
///   zero, or `train_nodes + eval_nodes` exceeds the dataset size.
/// * Any unrecovered [`TrainError`] from an iteration.
/// * [`TrainError::Checkpoint`] for snapshot I/O or integrity failures,
///   a configuration mismatch on resume, or an injected crash.
pub fn run_epochs_checkpointed(
    trainer: &mut Engine,
    ds: &Dataset,
    device: &dyn Device,
    cost: &CostModel,
    cfg: &EpochConfig,
    ckpt: Option<&CheckpointOptions>,
    resume: bool,
) -> Result<TrainRun, TrainError> {
    let nodes = ds.graph.num_nodes();
    let split = cfg.train_nodes.saturating_add(cfg.eval_nodes);
    if cfg.batch_size == 0 || cfg.train_nodes == 0 || split > nodes {
        return Err(TrainError::InvalidConfig(format!(
            "batch size {} with {} train + {} eval nodes: both counts must be positive \
             and the split at most the dataset's {nodes} nodes",
            cfg.batch_size, cfg.train_nodes, cfg.eval_nodes
        )));
    }
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
        let snap = restore_latest(opts, fingerprint, trainer, &mut cur, &mut loss_trail, None)?;
        if let Some(pool) = device.pool() {
            pool.restore_position(&snap.device_allocs, &snap.dead_devices);
        }
        resumed_at = Some(snap.global_iter);
    } else if let Some(r) = ring.as_mut() {
        // Base snapshot: the rollback rung always has somewhere to land,
        // even if the first iteration exhausts recovery.
        save_snapshot(r, trainer, device, fingerprint, &cur, &loss_trail)?;
        snapshots_written += 1;
    }

    // One sampler thread for the whole run, not one per iteration: glibc
    // gives a thread that allocates beside others an arena of its own, and
    // a sampler spawned per iteration beside the pipeline's per-iteration
    // Prepare thread spread the run over more arenas, each keeping its
    // freed pages. It ends with the scope, after the last Prepare thread,
    // so that the next run's sampler gets its own arena back (DESIGN.md
    // "Host work across iterations").
    std::thread::scope(|scope| {
        let mut ahead = SampleAhead::spawn(scope, &ds.graph, cfg, &sampler);
        let mut out = Vec::new();
        while cur.epoch < cfg.epochs as u64 {
            let batches = epoch_batches(cfg, cur.epoch);
            let nb = batches.num_batches() as u64;
            while cur.epoch_iter < nb {
                let i = cur.epoch_iter;
                // Ask for the next batch before sampling this one inline
                // (when it is not in hand), so that a new thread's slow
                // first batch also overlaps the driver's work.
                let ready = ahead.take((cur.epoch, i));
                ahead.ask(if i + 1 < nb {
                    (cur.epoch, i + 1)
                } else {
                    (cur.epoch + 1, 0)
                });
                let batch = ready.unwrap_or_else(|| {
                    sampler.sample(&ds.graph, batches.batch(i as usize), cfg.seed + i)
                });
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
                        // Rollback rung: recovery code must not itself
                        // panic, so the checkpoint options are matched out
                        // rather than unwrapped (`ring` exists only when
                        // `ckpt` does, but the compiler cannot see that).
                        let allowed = ckpt.map_or(0, |o| o.max_rollbacks) as u64;
                        let opts = match ckpt {
                            Some(o) if ring.is_some() && cur.rollbacks < allowed => o,
                            _ => return Err(TrainError::RecoveryExhausted { events, last }),
                        };
                        // The device is NOT rewound: its shrunken budget and
                        // consumed fault events are facts of the world the
                        // retried iterations must live with.
                        let rollbacks = Some(cur.rollbacks + 1);
                        let snap = restore_latest(
                            opts,
                            fingerprint,
                            trainer,
                            &mut cur,
                            &mut loss_trail,
                            rollbacks,
                        )?;
                        timings = StageTimings::default();
                        recovery = Vec::new();
                        // Compounding headroom: each rollback schedules
                        // more conservatively than the snapshot did, so the
                        // replay cannot exhaust the same way forever.
                        let boost = snap.trainer.headroom_multiplier
                            * 1.25f64.powi(cur.rollbacks.min(i32::MAX as u64) as i32);
                        trainer.force_headroom(boost);
                        // Re-enter the epoch loop at the restored cursor;
                        // the batch in flight is for the abandoned one and
                        // is discarded when it arrives.
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
            if cur.epoch_iter < nb {
                continue; // rolled back: recompute the epoch's seed batches
            }
            let val_accuracy = (cfg.eval_nodes > 0).then(|| {
                let eval: Vec<NodeId> = (cfg.train_nodes as NodeId
                    ..(cfg.train_nodes + cfg.eval_nodes) as NodeId)
                    .collect();
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
    })
}

/// Restores `trainer`, `cur` and `loss_trail` from the newest snapshot in
/// the ring, which a run with `fingerprint` must have written. The cursor
/// counts `rollbacks` if given, else the snapshot's own count. Returns the
/// snapshot, its loss trail moved out, for what only one caller reads.
fn restore_latest(
    opts: &CheckpointOptions,
    fingerprint: u64,
    trainer: &mut Engine,
    cur: &mut Cursor,
    loss_trail: &mut Vec<f32>,
    rollbacks: Option<u64>,
) -> Result<TrainSnapshot, TrainError> {
    let (mut snap, _path) =
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
    *cur = Cursor {
        epoch: snap.epoch,
        epoch_iter: snap.epoch_iter,
        global_iter: snap.global_iter,
        loss_sum: snap.epoch_loss_sum,
        acc_sum: snap.epoch_acc_sum,
        rollbacks: rollbacks.unwrap_or(snap.rollbacks),
    };
    *loss_trail = std::mem::take(&mut snap.loss_trail);
    Ok(snap)
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
    let data = gather(ds, &batch, &blocks, model.aggregator());
    let logits = model.logits(&blocks, data.features);
    let out = softmax_cross_entropy(&logits, &data.labels, None);
    out.correct as f32 / data.labels.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{PipelineConfig, TrainConfig};
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
            lr: 0.001,
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
        // Each rollback discards the batch sampled ahead for the position
        // it abandoned; these are the bits of the run that sampled every
        // batch inline.
        assert_eq!(
            trail_bits(&run),
            [
                0x400ab546, 0x3fa449a7, 0x3f75893b, 0x3f360dba, 0x3f0140ea, 0x3ec070e6, 0x3e8f1f0a,
                0x3e49b367
            ]
        );
        assert!(
            t.headroom_multiplier() > 1.0,
            "rollback must boost headroom"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Trains `engine` on batches sampled inline, in the driver's order,
    /// by bare `train_iteration` calls: the run the sampler thread must
    /// not move a bit of. Returns the loss bits and each iteration's
    /// micro-batch count and peak device bytes.
    fn inline_reference(
        ds: &Dataset,
        cfg: &EpochConfig,
        mut engine: Engine,
        budget: u64,
    ) -> (Vec<u32>, Vec<usize>, Vec<u64>) {
        let device = DeviceMemory::new(budget);
        let cost = CostModel::rtx6000();
        let sampler = BatchSampler::new(engine.config().fanouts.clone());
        let (mut bits, mut ks, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
        for epoch in 0..cfg.epochs as u64 {
            let shuffle = cfg.seed ^ epoch.wrapping_mul(0x9E37_79B9);
            let batches = SeedBatches::new(cfg.train_nodes, cfg.batch_size, shuffle);
            for i in 0..batches.num_batches() {
                let batch = sampler.sample(&ds.graph, batches.batch(i), cfg.seed + i as u64);
                let stats = engine.train_iteration(ds, &batch, &device, &cost).unwrap();
                bits.push(stats.loss.to_bits());
                ks.push(stats.num_micro_batches);
                peaks.push(stats.peak_mem_bytes);
            }
        }
        (bits, ks, peaks)
    }

    #[test]
    fn sampling_ahead_keeps_the_inline_trail_bit_for_bit() {
        // Three iterations an epoch over two epochs, so the sampler thread
        // samples within an epoch and across its boundary; both staging
        // modes; a budget with K = 1 and one that splits every batch.
        let ds = datasets::load(DatasetName::Cora, 9);
        let cost = CostModel::rtx6000();
        let cfg = EpochConfig {
            batch_size: 64,
            epochs: 2,
            train_nodes: 192,
            eval_nodes: 64,
            seed: 1,
        };
        let roomy = DeviceMemory::with_gib(24.0).budget();
        let engine = |pipeline| Engine::buffalo(config(&ds), 0.24).with_pipeline(pipeline);
        let (_, _, peaks) = inline_reference(&ds, &cfg, engine(PipelineConfig::serial()), roomy);
        let splitting = peaks.iter().min().unwrap() * 3 / 4;
        for pipeline in [PipelineConfig::serial(), PipelineConfig::overlapped()] {
            for budget in [roomy, splitting] {
                let (want, ks, _) = inline_reference(&ds, &cfg, engine(pipeline), budget);
                assert_eq!(want.len(), 6);
                let split = budget == splitting;
                assert!(
                    ks.iter().all(|&k| (k > 1) == split),
                    "K per iteration {ks:?}"
                );
                let device = DeviceMemory::new(budget);
                let run = run_epochs_checkpointed(
                    &mut engine(pipeline),
                    &ds,
                    &device,
                    &cost,
                    &cfg,
                    None,
                    false,
                )
                .unwrap();
                assert_eq!(trail_bits(&run), want, "{pipeline:?}, budget {budget}");
            }
        }
    }

    #[test]
    fn sampler_thread_replies_only_for_the_asked_position() {
        let ds = datasets::load(DatasetName::Cora, 9);
        let cfg = epoch_cfg();
        let sampler = BatchSampler::new(vec![4, 4]);
        let inline = |epoch, i: u64| {
            let seeds = epoch_batches(&cfg, epoch);
            sampler.sample(&ds.graph, seeds.batch(i as usize), cfg.seed + i)
        };
        std::thread::scope(|s| {
            let mut ahead = SampleAhead::spawn(s, &ds.graph, &cfg, &sampler);
            ahead.ask((1, 2));
            let batch = ahead.take((1, 2)).unwrap();
            assert_eq!(batch.global_ids, inline(1, 2).global_ids);
            // A reply for another position (a rollback moved the cursor)
            // is discarded; nothing in flight takes nothing.
            ahead.ask((0, 1));
            assert!(ahead.take((0, 0)).is_none());
            assert!(ahead.take((0, 1)).is_none());
            // Past the run's end nothing is asked.
            ahead.ask((cfg.epochs as u64, 0));
            assert!(ahead.take((cfg.epochs as u64, 0)).is_none());
        });
        // A panic on the sampler thread ends the thread, not the scope:
        // the driver takes nothing and samples inline, where the same
        // panic is raised on its own thread.
        let oversized = EpochConfig {
            train_nodes: ds.graph.num_nodes() + 64,
            ..epoch_cfg()
        };
        let last = (oversized.train_nodes / oversized.batch_size) as u64;
        std::thread::scope(|s| {
            let mut ahead = SampleAhead::spawn(s, &ds.graph, &oversized, &sampler);
            let out_of_range = (0..=last)
                .find(|&i| {
                    let seeds = epoch_batches(&oversized, 0);
                    seeds
                        .batch(i as usize)
                        .iter()
                        .any(|&v| v as usize >= ds.graph.num_nodes())
                })
                .unwrap();
            ahead.ask((0, out_of_range));
            assert!(ahead.take((0, out_of_range)).is_none());
            // The thread is gone: asking fails and taking never blocks.
            ahead.ask((0, 0));
            assert!(ahead.take((0, 0)).is_none());
        });
    }

    #[test]
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
        // A zero batch size, zero train nodes and an oversized split: each
        // is refused before anything trains.
        for cfg in [
            EpochConfig {
                batch_size: 0,
                train_nodes: 256,
                ..cfg.clone()
            },
            EpochConfig {
                train_nodes: 0,
                eval_nodes: 0,
                ..cfg.clone()
            },
            cfg,
        ] {
            let err = run_epochs_checkpointed(&mut trainer, &ds, &device, &cost, &cfg, None, false)
                .unwrap_err();
            assert!(matches!(err, TrainError::InvalidConfig(_)), "{err:?}");
        }
        assert_eq!(device.peak(), 0, "nothing may train");
    }
}
