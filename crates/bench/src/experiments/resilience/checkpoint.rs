//! `checkpoint` (`BENCH_checkpoint.json`): three measurements on one
//! small epoch run.
//!
//! 1. **Snapshots are inert** — the same run with and without a snapshot
//!    every K iterations must leave bitwise-identical loss trails; the
//!    snapshot count and size on disk are recorded.
//! 2. **Resume fidelity** — a torn crash is injected mid-snapshot (the
//!    rename "lost", leaving garbage at the final path); the resumed run
//!    must reject the torn file by CRC, fall back through the ring, and
//!    produce a loss trail bitwise identical to the uninterrupted run.
//! 3. **Rollback rung** — a mid-run budget shrink with retries and
//!    re-splits disabled exhausts the in-iteration recovery ladder. The
//!    seed behavior (no checkpoints) aborts with `RecoveryExhausted`;
//!    with the rollback rung the run restores the last snapshot under a
//!    boosted headroom and completes every epoch.

use super::{light_config, pool};
use crate::output::{check_artifact, print_document};
use buffalo_core::checkpoint::{CheckpointError, CheckpointOptions};
use buffalo_core::json::Json;
use buffalo_core::train::{run_epochs_checkpointed, Engine, EpochConfig, RecoveryPolicy, TrainRun};
use buffalo_core::TrainError;
use buffalo_graph::datasets::{self, DatasetName};
use buffalo_memsim::{CostModel, CrashPoint, Device, DeviceMemory};
use std::path::PathBuf;

const CLUSTERING: f64 = 0.24;
const EVERY: usize = 2;
const CRASH_AT_SAVE: u64 = 4;
const SHRINK: &str = "at=3,factor=0.6";

/// A fresh checkpoint directory under the system temp dir.
fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("buffalo-bench-ckpt-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn trail_bits(run: &TrainRun) -> Vec<u32> {
    run.loss_trail.iter().map(|l| l.to_bits()).collect()
}

/// Runs the checkpoint/resume experiment and checks (or, with
/// `write_bench`, rewrites) `BENCH_checkpoint.json`.
///
/// # Errors
///
/// See [`check_artifact`].
pub(crate) fn checkpoint(write_bench: bool) -> Result<(), String> {
    let ds = datasets::load(DatasetName::Cora, 9);
    let cost = CostModel::rtx6000();
    let cfg = EpochConfig {
        batch_size: 64,
        epochs: 2,
        train_nodes: 256,
        eval_nodes: 128,
        seed: 5,
    };
    // Every run starts from a fresh engine with identical seeds.
    let run = |device: &dyn Device,
               ckpt: Option<&CheckpointOptions>,
               resume: bool,
               policy: Option<RecoveryPolicy>| {
        let mut engine = Engine::buffalo(light_config(&ds.spec, &[5, 10]), CLUSTERING);
        if let Some(policy) = policy {
            engine = engine.with_recovery(policy);
        }
        run_epochs_checkpointed(&mut engine, &ds, device, &cost, &cfg, ckpt, resume)
    };
    let roomy = || DeviceMemory::with_gib(24.0);
    let options = |dir: &PathBuf, every: usize, crash: Option<CrashPoint>| CheckpointOptions {
        every,
        crash,
        ..CheckpointOptions::new(dir)
    };

    // 1. Plain vs. checkpointed on the same device budget.
    let plain_dev = roomy();
    let plain = run(&plain_dev, None, false, None).expect("plain run");
    let dir = tmpdir("overhead");
    let opts = options(&dir, EVERY, None);
    let checkpointed = run(&roomy(), Some(&opts), false, None).expect("checkpointed run");
    let snapshot_bytes = std::fs::read_dir(&dir)
        .into_iter()
        .flatten()
        .filter_map(|e| Some(e.ok()?.metadata().ok()?.len()))
        .max();
    let overhead = Json::Object(vec![
        ("snapshots_written", checkpointed.snapshots_written.into()),
        ("snapshot_bytes", snapshot_bytes.unwrap_or(0).into()),
        (
            "trail_bitwise_identical",
            Json::Bool(trail_bits(&plain) == trail_bits(&checkpointed)),
        ),
    ]);

    // 2. Tear a snapshot save at the final path, then resume from the
    // surviving ring and compare the full trail.
    let crash_dir = tmpdir("resume");
    let torn = CrashPoint {
        at_save: CRASH_AT_SAVE,
        after_bytes: None,
        torn: true,
    };
    let crash_opts = options(&crash_dir, EVERY, Some(torn));
    let crash_raised = matches!(
        run(&roomy(), Some(&crash_opts), false, None),
        Err(TrainError::Checkpoint(
            CheckpointError::CrashInjected { .. }
        ))
    );
    let resume_opts = options(&crash_dir, EVERY, None);
    let resumed = run(&roomy(), Some(&resume_opts), true, None).expect("resumed run");
    let resume = Json::Object(vec![
        ("crash_at_save", CRASH_AT_SAVE.into()),
        ("torn", Json::Bool(true)),
        ("crash_error_raised", Json::Bool(crash_raised)),
        (
            "resumed_at_iteration",
            resumed.resumed_at.unwrap_or(0).into(),
        ),
        (
            "trail_bitwise_identical",
            Json::Bool(trail_bits(&resumed) == trail_bits(&plain)),
        ),
    ]);

    // 3. A device of exactly the plain run's peak, so a 40 % shrink bites
    // mid-iteration; the in-iteration rungs are off to force exhaustion.
    let peak = plain_dev.peak();
    let policy = RecoveryPolicy {
        max_retries: 0,
        max_resplits: 0,
        ..RecoveryPolicy::default()
    };
    let shrinking = || pool(1, peak, &format!("shrink:{SHRINK}"));
    let seed_aborted = matches!(
        run(&shrinking(), None, false, Some(policy)),
        Err(TrainError::RecoveryExhausted { .. })
    );
    let rb_dir = tmpdir("rollback");
    let rb_opts = options(&rb_dir, 1, None);
    let rb_run = run(&shrinking(), Some(&rb_opts), false, Some(policy));
    let (rb_completed, rollbacks, rb_epochs) = rb_run.map_or((false, 0, 0), |run| {
        (
            run.epochs.len() == cfg.epochs && run.loss_trail.iter().all(|l| l.is_finite()),
            run.rollbacks,
            run.epochs.len(),
        )
    });
    let rollback = Json::Object(vec![
        ("budget_bytes", peak.into()),
        ("shrink", SHRINK.into()),
        ("seed_aborted", Json::Bool(seed_aborted)),
        ("rollback_completed", Json::Bool(rb_completed)),
        ("rollbacks", rollbacks.into()),
        ("epochs_completed", rb_epochs.into()),
    ]);
    for d in [&dir, &crash_dir, &rb_dir] {
        let _ = std::fs::remove_dir_all(d);
    }

    let json = Json::Object(vec![
        ("dataset", "cora".into()),
        ("epochs", cfg.epochs.into()),
        ("iterations", plain.loss_trail.len().into()),
        ("checkpoint_every", EVERY.into()),
        ("overhead", overhead),
        ("resume", resume),
        ("rollback", rollback),
    ]);
    print_document(&json, "");
    check_artifact("BENCH_checkpoint.json", &json.render(), write_bench)
}
