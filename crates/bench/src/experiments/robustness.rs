//! Robustness experiment: training under injected device faults, written
//! to `BENCH_robustness.json`.
//!
//! One fault-free baseline plus several transient fault rates and a
//! mid-run budget shrink, all on the same workload with the same initial
//! weights. For each scenario we record the completion rate (iterations
//! that produced a gradient step), the recovery activity (injected
//! faults, recovery events), the calibrated headroom, and — the headline
//! determinism claim — whether the per-iteration loss trail is bitwise
//! identical to the fault-free run. Pure retries happen before any
//! forward/backward work, so transient-only scenarios must reproduce the
//! baseline losses exactly. Every column is exact: what recovery costs in
//! wall time is the standing benchmark's to measure, with repetitions.

use crate::context::load_workload;
use crate::output::Table;
use buffalo_core::train::{DevicePool, Engine, RecoveryPolicy, TrainConfig};
use buffalo_graph::datasets::DatasetName;
use buffalo_memsim::{AggregatorKind, CostModel, DeviceMemory, FaultPlan, GnnShape};

const FANOUTS: [usize; 2] = [5, 10];

struct Scenario {
    name: &'static str,
    /// Transient fault probability per allocation (0 = none).
    rate: f64,
    spec: Option<&'static str>,
}

struct Outcome {
    name: String,
    rate: f64,
    iterations: usize,
    completed: usize,
    injected: u64,
    events: usize,
    losses: Vec<f32>,
    headroom: f64,
}

impl Outcome {
    fn completion_rate(&self) -> f64 {
        self.completed as f64 / self.iterations.max(1) as f64
    }
}

fn run_scenario(
    sc: &Scenario,
    iters: usize,
    config: &TrainConfig,
    w: &crate::context::Workload,
    budget: u64,
    cost: &CostModel,
) -> Outcome {
    let plan = sc.spec.map_or_else(FaultPlan::none, |spec| {
        FaultPlan::parse(spec).expect("scenario fault spec parses")
    });
    let device = DevicePool::homogeneous(1, budget, &plan).expect("non-empty pool");
    let mut trainer = Engine::buffalo(config.clone(), w.clustering).with_recovery(RecoveryPolicy {
        max_retries: 8,
        ..RecoveryPolicy::default()
    });
    let mut out = Outcome {
        name: sc.name.to_string(),
        rate: sc.rate,
        iterations: iters,
        completed: 0,
        injected: 0,
        events: 0,
        losses: Vec::with_capacity(iters),
        headroom: 1.0,
    };
    for _ in 0..iters {
        match trainer.train_iteration(&w.dataset, &w.batch, &device, cost) {
            Ok(stats) => {
                out.completed += 1;
                out.events += stats.recovery.len();
                out.losses.push(stats.loss);
            }
            Err(e) => {
                // The iteration contributed no gradient step; carry on so
                // the completion rate reflects how often recovery failed.
                eprintln!("  [{}] iteration failed: {e}", sc.name);
            }
        }
    }
    out.headroom = trainer.headroom_multiplier();
    if let Some(member) = device.device(0) {
        out.injected = member.counters().injected;
    }
    out
}

/// Runs the fault-injection robustness sweep; with `write_bench` it also
/// rewrites `BENCH_robustness.json`.
pub fn robustness(quick: bool, write_bench: bool) {
    let w = load_workload(DatasetName::Cora, quick);
    let cost = CostModel::rtx6000();
    let iters = if quick { 4 } else { 10 };
    let config = TrainConfig {
        shape: GnnShape::new(
            w.dataset.spec.feat_dim,
            32,
            2,
            w.dataset.spec.num_classes,
            AggregatorKind::Mean,
        ),
        fanouts: FANOUTS.to_vec(),
        lr: 0.01,
        seed: 17,
        parallelism: buffalo_par::Parallelism::auto(),
    };
    // Probe the whole-batch footprint, then size a budget that forces a
    // handful of micro-batches so recovery has real work to do.
    let mut probe = Engine::buffalo(config.clone(), w.clustering);
    let big = DeviceMemory::new(u64::MAX);
    let whole = probe
        .train_iteration(&w.dataset, &w.batch, &big, &cost)
        .expect("unlimited device");
    let budget = (whole.peak_mem_bytes * 3 / 5).max(1);

    let scenarios = [
        Scenario {
            name: "fault-free",
            rate: 0.0,
            spec: None,
        },
        Scenario {
            name: "transient-5pct",
            rate: 0.05,
            spec: Some("transient:p=0.05,seed=7"),
        },
        Scenario {
            name: "transient-10pct",
            rate: 0.10,
            spec: Some("transient:p=0.10,seed=7"),
        },
        Scenario {
            name: "transient-20pct",
            rate: 0.20,
            spec: Some("transient:p=0.20,seed=7"),
        },
        Scenario {
            name: "budget-shrink-40pct",
            rate: 0.0,
            spec: Some("shrink:at=4,factor=0.6,restore=12"),
        },
    ];

    let outcomes: Vec<Outcome> = scenarios
        .iter()
        .map(|sc| run_scenario(sc, iters, &config, &w, budget, &cost))
        .collect();
    let baseline_losses = outcomes[0].losses.clone();

    let mut t = Table::new([
        "scenario",
        "rate",
        "completed",
        "injected",
        "events",
        "loss identical",
        "headroom",
    ]);
    for o in &outcomes {
        t.row([
            o.name.clone(),
            format!("{:.2}", o.rate),
            format!("{}/{}", o.completed, o.iterations),
            o.injected.to_string(),
            o.events.to_string(),
            (o.losses == baseline_losses).to_string(),
            format!("{:.3}", o.headroom),
        ]);
    }
    t.print();
    println!(
        "(budget {budget} B = 60% of whole-batch peak; transient scenarios \
         must be bitwise identical to fault-free)"
    );

    let rows: Vec<String> = outcomes
        .iter()
        .map(|o| {
            format!(
                "    {{\"scenario\": \"{}\", \"fault_rate\": {:.2}, \"iterations\": {}, \
                 \"completed\": {}, \"completion_rate\": {:.4}, \"injected_faults\": {}, \
                 \"recovery_events\": {}, \"loss_bitwise_identical\": {}, \
                 \"headroom_multiplier\": {:.4}}}",
                o.name,
                o.rate,
                o.iterations,
                o.completed,
                o.completion_rate(),
                o.injected,
                o.events,
                o.losses == baseline_losses,
                o.headroom
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"dataset\": \"cora\",\n  \"budget_bytes\": {budget},\n  \"iterations\": {iters},\n  \"max_retries\": 8,\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    crate::output::write_artifact("BENCH_robustness.json", &json, write_bench);
}
