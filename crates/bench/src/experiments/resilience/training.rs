//! `robustness` and `failover`: one workload, one scenario runner, two
//! tables.
//!
//! `robustness` (`BENCH_robustness.json`) trains on one device under a
//! fault-free baseline, three transient fault rates and a mid-run budget
//! shrink. Pure retries happen before any forward/backward work, so the
//! transient scenarios must reproduce the baseline losses bitwise.
//!
//! `failover` (`BENCH_failover.json`) trains over pools of 2 and 4
//! members while `lose:` faults kill 0, 1, 2 or all of them mid-run.
//! Failover is pure re-routing of an in-order Execute stage, so every
//! survivable scenario must reproduce its pool's fault-free losses
//! bitwise; lose-all is the honest failure floor (recovery exhausts, the
//! remaining iterations contribute nothing).

use super::{light_config, lose_spec, pool, tight_budget, Kill};
use crate::context::{load_workload, Workload};
use crate::output::{check_artifact, print_document};
use buffalo_core::json::Json;
use buffalo_core::train::{Engine, RecoveryAction, RecoveryEvent, RecoveryPolicy, TrainConfig};
use buffalo_graph::datasets::DatasetName;
use buffalo_memsim::CostModel;

const MAX_RETRIES: usize = 8;

/// Cora's default batch, the light model, and a per-device budget of
/// 60 % of the whole-batch peak.
struct Fixture {
    w: Workload,
    cost: CostModel,
    config: TrainConfig,
    budget: u64,
}

/// What one scenario did.
struct Outcome {
    /// Loss of every iteration that produced a gradient step.
    losses: Vec<f32>,
    /// `(iteration, event)` for every recovery action those took.
    events: Vec<(usize, RecoveryEvent)>,
    headroom: f64,
    /// Transient faults injected, over all members.
    injected: u64,
    /// Allocation calls each member saw.
    allocs: Vec<u64>,
    dead: Vec<u64>,
}

impl Fixture {
    fn new() -> Self {
        let w = load_workload(DatasetName::Cora, false);
        let cost = CostModel::rtx6000();
        let config = light_config(&w.dataset.spec, &w.fanouts);
        let budget = tight_budget(|roomy| {
            Engine::buffalo(config.clone(), w.clustering)
                .train_iteration(&w.dataset, &w.batch, roomy, &cost)
                .expect("roomy device")
                .peak_mem_bytes
        });
        Fixture {
            w,
            cost,
            config,
            budget,
        }
    }

    /// Trains `iters` iterations from the same initial weights on a pool
    /// of `gpus` members replaying `faults`. A failed iteration
    /// contributes no gradient step; the run carries on, so the
    /// completion count says how often recovery was not enough.
    fn scenario(&self, name: &str, gpus: usize, faults: &str, iters: usize) -> Outcome {
        let pool = pool(gpus, self.budget, faults);
        let mut engine =
            Engine::buffalo(self.config.clone(), self.w.clustering).with_recovery(RecoveryPolicy {
                max_retries: MAX_RETRIES,
                ..RecoveryPolicy::default()
            });
        let (mut losses, mut events) = (Vec::with_capacity(iters), Vec::new());
        for i in 0..iters {
            match engine.train_iteration(&self.w.dataset, &self.w.batch, &pool, &self.cost) {
                Ok(stats) => {
                    losses.push(stats.loss);
                    events.extend(stats.recovery.into_iter().map(|ev| (i, ev)));
                }
                Err(e) => eprintln!("  [{name}] iteration failed: {e}"),
            }
        }
        let (allocs, dead) = pool.snapshot_position();
        Outcome {
            losses,
            events,
            headroom: engine.headroom_multiplier(),
            injected: pool.counters().iter().map(|c| c.injected).sum(),
            allocs,
            dead,
        }
    }
}

/// `(scenario, transient fault probability, fault spec)`, baseline first.
const ROBUSTNESS: [(&str, f64, &str); 5] = [
    ("fault-free", 0.0, ""),
    ("transient-5pct", 0.05, "transient:p=0.05,seed=7"),
    ("transient-10pct", 0.10, "transient:p=0.10,seed=7"),
    ("transient-20pct", 0.20, "transient:p=0.20,seed=7"),
    (
        "budget-shrink-40pct",
        0.0,
        "shrink:at=4,factor=0.6,restore=12",
    ),
];

/// Runs the fault-injection sweep and checks (or, with `write_bench`,
/// rewrites) `BENCH_robustness.json`.
///
/// # Errors
///
/// See [`check_artifact`].
pub(crate) fn robustness(write_bench: bool) -> Result<(), String> {
    const ITERS: usize = 10;
    let fx = Fixture::new();
    let outcomes: Vec<Outcome> = ROBUSTNESS
        .iter()
        .map(|&(name, _, faults)| fx.scenario(name, 1, faults, ITERS))
        .collect();

    let rows: Vec<Json> = ROBUSTNESS
        .iter()
        .zip(&outcomes)
        .map(|(&(name, rate, _), o)| {
            Json::Object(vec![
                ("scenario", name.into()),
                ("fault_rate", Json::Fixed(rate, 2)),
                ("iterations", ITERS.into()),
                ("completed", o.losses.len().into()),
                ("completion_rate", completion_rate(o, ITERS)),
                ("injected_faults", o.injected.into()),
                ("recovery_events", o.events.len().into()),
                (
                    "loss_bitwise_identical",
                    Json::Bool(o.losses == outcomes[0].losses),
                ),
                ("headroom_multiplier", Json::Fixed(o.headroom, 4)),
            ])
        })
        .collect();
    let json = Json::Object(vec![
        ("dataset", "cora".into()),
        ("budget_bytes", fx.budget.into()),
        ("iterations", ITERS.into()),
        ("max_retries", MAX_RETRIES.into()),
        ("scenarios", Json::Array(rows)),
    ]);
    print_document(
        &json,
        "scenario fault_rate completed injected_faults recovery_events \
         loss_bitwise_identical headroom_multiplier",
    );
    check_artifact("BENCH_robustness.json", &json.render(), write_bench)
}

fn completion_rate(o: &Outcome, iters: usize) -> Json {
    Json::Fixed(o.losses.len() as f64 / iters as f64, 4)
}

/// `(scenario, pool size, members to kill)`; a pool size's fault-free
/// scenario comes before its lossy ones.
const FAILOVER: [(&str, usize, &[Kill]); 6] = [
    ("2gpu-fault-free", 2, &[]),
    ("2gpu-lose-1", 2, &[(1, 0.34)]),
    ("2gpu-lose-all", 2, &[(0, 0.55), (1, 0.34)]),
    ("4gpu-fault-free", 4, &[]),
    ("4gpu-lose-1", 4, &[(2, 0.34)]),
    ("4gpu-lose-2", 4, &[(1, 0.25), (3, 0.55)]),
];

/// Runs the device-loss sweep and checks (or, with `write_bench`,
/// rewrites) `BENCH_failover.json`.
///
/// # Errors
///
/// See [`check_artifact`].
pub(crate) fn failover(write_bench: bool) -> Result<(), String> {
    const ITERS: usize = 12;
    let fx = Fixture::new();
    // Index of the fault-free scenario on the same pool size: the bitwise
    // reference, and what the `lose:` fire points scale off.
    let baseline = |gpus: usize| FAILOVER.iter().position(|s| s.1 == gpus).unwrap_or(0);
    let mut outcomes: Vec<Outcome> = Vec::with_capacity(FAILOVER.len());
    for &(name, gpus, kills) in &FAILOVER {
        let base_allocs = outcomes.get(baseline(gpus)).map_or(&[][..], |b| &b.allocs);
        let faults = lose_spec(base_allocs, kills);
        outcomes.push(fx.scenario(name, gpus, &faults, ITERS));
    }

    let rows: Vec<Json> = FAILOVER
        .iter()
        .zip(&outcomes)
        .map(|(&(name, gpus, kills), o)| {
            // Iterations a `DeviceLost` event landed in.
            let lost_at: Vec<usize> = o
                .events
                .iter()
                .filter(|(_, ev)| matches!(ev.action, RecoveryAction::DeviceLost { .. }))
                .map(|&(i, _)| i)
                .collect();
            let identical = o.losses == outcomes[baseline(gpus)].losses;
            let ints = |v: &[u64]| Json::Array(v.iter().map(|&x| x.into()).collect());
            Json::Object(vec![
                ("scenario", name.into()),
                ("pool_size", gpus.into()),
                ("devices_lost", kills.len().into()),
                (
                    "device_loss_rate",
                    Json::Fixed(kills.len() as f64 / gpus as f64, 4),
                ),
                ("iterations", ITERS.into()),
                ("completed", o.losses.len().into()),
                ("completion_rate", completion_rate(o, ITERS)),
                ("device_lost_events", lost_at.len().into()),
                (
                    "failover_iteration",
                    lost_at.first().map_or(Json::Null, |&i| i.into()),
                ),
                (
                    "loss_bitwise_identical_to_fault_free",
                    Json::Bool(identical),
                ),
                ("per_device_allocs", ints(&o.allocs)),
                ("dead_devices", ints(&o.dead)),
            ])
        })
        .collect();
    let json = Json::Object(vec![
        ("dataset", "cora".into()),
        ("per_device_budget_bytes", fx.budget.into()),
        ("iterations", ITERS.into()),
        ("max_retries", MAX_RETRIES.into()),
        ("scenarios", Json::Array(rows)),
    ]);
    print_document(
        &json,
        "scenario devices_lost completed device_lost_events failover_iteration \
         loss_bitwise_identical_to_fault_free per_device_allocs",
    );
    check_artifact("BENCH_failover.json", &json.render(), write_bench)
}
