//! Crash-consistent checkpoint/resume for training runs.
//!
//! A [`TrainSnapshot`] captures everything a run needs to continue
//! bit-identically: model parameters with Adam moments and step count,
//! the epoch/iteration cursor, the device's allocation-stream position,
//! the headroom calibrator's multiplier, and the per-iteration loss trail
//! so far. Because every random stream in the system is keyed off the
//! cursor (epoch shuffles by `seed ^ f(epoch)`, batch sampling by
//! `seed + i`, device faults by allocation index), restoring the cursor
//! and fast-forwarding the fault stream restores every stream exactly —
//! no RNG state needs to be serialized beyond the positions themselves.
//!
//! Snapshots are written with the classic atomicity protocol — encode to
//! a hidden temp file, `fsync`, rename over the final name, `fsync` the
//! directory — and carry a CRC32 footer, so a reader either sees a whole
//! valid snapshot or detects the damage. [`CheckpointRing`] keeps the
//! last *N* snapshots and `CheckpointRing::load_latest` walks them
//! newest-first, skipping any that fail the integrity check.

mod codec;
mod ring;

pub use ring::CheckpointRing;

use crate::fnv::Fnv;
use crate::train::{EpochConfig, TrainConfig};
use buffalo_memsim::CrashPoint;
use std::fmt;
use std::path::PathBuf;

/// Current snapshot format version, stored after the magic and checked on
/// load. Bump when the layout changes; old snapshots are then rejected
/// with [`CheckpointError::Corrupt`] rather than misread.
pub const SNAPSHOT_VERSION: u32 = 2;

/// One parameter tensor's persistent state: value plus Adam moments.
/// Gradients are not captured — snapshots are taken between iterations,
/// where gradients are dead (zeroed at the start of every iteration).
#[derive(Debug, Clone, PartialEq)]
pub struct ParamState {
    /// Tensor rows.
    pub rows: u32,
    /// Tensor columns.
    pub cols: u32,
    /// Parameter values, row-major.
    pub value: Vec<f32>,
    /// Adam first moments, row-major.
    pub m: Vec<f32>,
    /// Adam second moments, row-major.
    pub v: Vec<f32>,
}

/// The engine-owned state of a [`TrainSnapshot`]: everything
/// [`Engine::capture_state`](crate::train::Engine::capture_state)
/// captures and
/// `Engine::restore_state`
/// restores — the single snapshot implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainerState {
    /// Adam's step counter (bias correction depends on it).
    pub adam_t: u64,
    /// The headroom calibrator's multiplier (1.0 in whole-batch mode,
    /// where the calibrator is inert).
    pub headroom_multiplier: f64,
    /// All trainable parameters, in the model's canonical order.
    pub params: Vec<ParamState>,
}

/// A complete, versioned training snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainSnapshot {
    /// Fingerprint of the training + epoch configuration (see
    /// [`config_fingerprint`]); resume refuses a snapshot taken under a
    /// different configuration.
    pub config_hash: u64,
    /// Epoch the cursor sits in (0-based).
    pub epoch: u64,
    /// Completed iterations within that epoch.
    pub epoch_iter: u64,
    /// Completed iterations across the whole run.
    pub global_iter: u64,
    /// Per-device allocation-call counts at snapshot time; resume
    /// fast-forwards each device's fault stream to its position. A plain
    /// single device stores one entry.
    pub device_allocs: Vec<u64>,
    /// Indices of devices that were permanently lost before the snapshot;
    /// resume marks them dead again so the round-robin shard assignment
    /// (and therefore every downstream stream) replays identically.
    pub dead_devices: Vec<u64>,
    /// Recovery rollbacks performed so far; the compounding headroom
    /// boost continues from here after a resume.
    pub rollbacks: u64,
    /// Sum of per-iteration losses within the current epoch (f64, so the
    /// resumed epoch's mean is bit-identical to an uninterrupted run).
    pub epoch_loss_sum: f64,
    /// Sum of per-iteration accuracies within the current epoch.
    pub epoch_acc_sum: f64,
    /// Per-iteration losses for the whole run, as stored bit patterns.
    pub loss_trail: Vec<f32>,
    /// Model, optimizer, and calibrator state.
    pub trainer: TrainerState,
}

/// Checkpointing knobs for the epoch driver.
#[derive(Debug, Clone)]
pub struct CheckpointOptions {
    /// Directory holding the snapshot ring.
    pub dir: PathBuf,
    /// Snapshot after every `every` completed iterations (a base snapshot
    /// at iteration 0 and one at each epoch end are always written).
    pub every: usize,
    /// Snapshots retained in the ring.
    pub keep: usize,
    /// How many times a `RecoveryExhausted` may roll back to the latest
    /// snapshot before the error is surfaced. `0` disables the rollback
    /// rung entirely.
    pub max_rollbacks: usize,
    /// Injected crash for fault testing (see
    /// [`CrashPoint`]); `None` in production.
    pub crash: Option<CrashPoint>,
}

impl CheckpointOptions {
    /// Defaults: snapshot every 8 iterations, keep 3, allow 8 rollbacks.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointOptions {
            dir: dir.into(),
            every: 8,
            keep: 3,
            max_rollbacks: 8,
            crash: None,
        }
    }
}

/// FNV-1a fingerprint of everything that determines the training
/// computation: model shape, fanouts, learning rate, seeds, the epoch
/// driver's split sizes, and the SIMD backend (it selects the kernels'
/// rounding, so resuming under a different backend would fork the
/// numerics). `epochs` is deliberately excluded so a finished run can be
/// resumed with a larger epoch budget; thread counts and tile sizes are
/// excluded because they never change results under a fixed backend.
pub fn config_fingerprint(cfg: &TrainConfig, epoch_cfg: &EpochConfig) -> u64 {
    let mut h = Fnv::new();
    h.u64(cfg.shape.feat_dim as u64);
    h.u64(cfg.shape.hidden as u64);
    h.u64(cfg.shape.num_layers as u64);
    h.u64(cfg.shape.num_classes as u64);
    h.u64(cfg.shape.aggregator as u64);
    h.u64(cfg.fanouts.len() as u64);
    for &f in &cfg.fanouts {
        h.u64(f as u64);
    }
    h.u64(cfg.lr.to_bits() as u64);
    h.u64(cfg.seed);
    h.u64(epoch_cfg.batch_size as u64);
    h.u64(epoch_cfg.train_nodes as u64);
    h.u64(epoch_cfg.eval_nodes as u64);
    h.u64(epoch_cfg.seed);
    h.u64(cfg.parallelism.simd as u64);
    h.0
}

/// Errors from the checkpoint subsystem.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum CheckpointError {
    /// A filesystem operation failed.
    Io {
        /// Path the operation targeted.
        path: PathBuf,
        /// The operation (`"create"`, `"write"`, `"rename"`, ...).
        op: &'static str,
        /// The underlying error, stringified (kept `Clone`).
        message: String,
    },
    /// A snapshot file failed the integrity check (bad magic, version,
    /// CRC, or truncated payload).
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What failed.
        reason: String,
    },
    /// No snapshot in the ring survived the integrity check.
    NoValidSnapshot {
        /// The ring directory.
        dir: PathBuf,
        /// How many candidate files were rejected as corrupt.
        corrupt: usize,
    },
    /// The snapshot was taken under a different configuration.
    ConfigMismatch {
        /// Fingerprint of the current configuration.
        expected: u64,
        /// Fingerprint stored in the snapshot.
        found: u64,
    },
    /// The snapshot does not fit the trainer (wrong parameter count or
    /// tensor shapes).
    StateMismatch {
        /// What failed to line up.
        reason: String,
    },
    /// An injected [`CrashPoint`] fired
    /// mid-write: the simulated process is dead. Surfacing this as an
    /// error lets tests and the CLI observe the "kill" without aborting
    /// the host process.
    CrashInjected {
        /// 1-based save index at which the crash fired.
        save_index: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, op, message } => {
                write!(
                    f,
                    "checkpoint {op} failed for {}: {message}",
                    path.display()
                )
            }
            CheckpointError::Corrupt { path, reason } => {
                write!(f, "corrupt snapshot {}: {reason}", path.display())
            }
            CheckpointError::NoValidSnapshot { dir, corrupt } => write!(
                f,
                "no valid snapshot in {} ({corrupt} corrupt candidates rejected)",
                dir.display()
            ),
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "snapshot was taken under a different configuration \
                 (fingerprint {found:#018x}, current {expected:#018x})"
            ),
            CheckpointError::StateMismatch { reason } => {
                write!(f, "snapshot does not fit this trainer: {reason}")
            }
            CheckpointError::CrashInjected { save_index } => {
                write!(f, "injected crash during checkpoint save #{save_index}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

#[cfg(test)]
mod tests {
    use super::*;
    use buffalo_memsim::{AggregatorKind, GnnShape};
    use buffalo_par::Parallelism;

    fn cfgs() -> (TrainConfig, EpochConfig) {
        (
            TrainConfig {
                shape: GnnShape::new(8, 16, 2, 4, AggregatorKind::Mean),
                fanouts: vec![5, 5],
                lr: 0.01,
                seed: 9,
                parallelism: Parallelism::auto(),
            },
            EpochConfig {
                batch_size: 64,
                epochs: 3,
                train_nodes: 256,
                eval_nodes: 64,
                seed: 1,
            },
        )
    }

    #[test]
    fn fingerprint_ignores_epoch_budget_but_not_math() {
        let (tc, ec) = cfgs();
        let base = config_fingerprint(&tc, &ec);
        let mut more_epochs = ec.clone();
        more_epochs.epochs = 100;
        assert_eq!(
            base,
            config_fingerprint(&tc, &more_epochs),
            "extending the epoch budget must not invalidate snapshots"
        );
        let mut other_lr = tc.clone();
        other_lr.lr = 0.02;
        assert_ne!(base, config_fingerprint(&other_lr, &ec));
        let mut other_batch = ec.clone();
        other_batch.batch_size = 32;
        assert_ne!(base, config_fingerprint(&tc, &other_batch));
        let mut other_fanouts = tc.clone();
        other_fanouts.fanouts = vec![5, 4];
        assert_ne!(base, config_fingerprint(&other_fanouts, &ec));
        // The SIMD backend selects the numerics; a snapshot must not
        // resume under a different one. Thread count stays excluded.
        let mut other_simd = tc.clone();
        other_simd.parallelism.simd = buffalo_par::SimdBackend::Avx2;
        assert_ne!(base, config_fingerprint(&other_simd, &ec));
        let mut other_threads = tc.clone();
        other_threads.parallelism.threads += 3;
        assert_eq!(base, config_fingerprint(&other_threads, &ec));
    }

    /// The fingerprint hashes `backend as u64`, so renumbering a backend
    /// would stop every existing snapshot from resuming. These values
    /// were computed before `SimdBackend::Sse` (code 1) was removed.
    #[test]
    fn fingerprint_is_pinned_per_backend() {
        use buffalo_par::SimdBackend;
        let (mut tc, ec) = cfgs();
        for (backend, want) in [
            (SimdBackend::Scalar, 0xa735_6552_b5c5_e6b6u64),
            (SimdBackend::Avx2, 0x693f_d740_9fe7_5274),
        ] {
            tc.parallelism.simd = backend;
            assert_eq!(config_fingerprint(&tc, &ec), want, "{backend:?}");
        }
    }

    #[test]
    fn errors_display_their_context() {
        let e = CheckpointError::NoValidSnapshot {
            dir: PathBuf::from("/tmp/ring"),
            corrupt: 2,
        };
        assert!(e.to_string().contains("2 corrupt"));
        let e = CheckpointError::CrashInjected { save_index: 3 };
        assert!(e.to_string().contains("save #3"));
        let e = CheckpointError::ConfigMismatch {
            expected: 1,
            found: 2,
        };
        assert!(e.to_string().contains("different configuration"));
    }
}
