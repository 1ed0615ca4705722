//! The resilience experiments — `robustness`, `failover`, `checkpoint`,
//! `serving`, `serving-chaos` — and the fixture they share: the paper's
//! "never abort on OOM, converge identically" promise under injected
//! faults, device loss, crashes and overload.
//!
//! Every column they write is exact (counts, bytes, bit-identity flags,
//! digests) or read off the simulated clock, so each `BENCH_*.json` is a
//! pure function of the source. They always run at full size, and
//! `check_artifact` holds the committed
//! file against every run. What faults, re-shards and snapshots cost in
//! wall time is the standing benchmark's to measure, with repetitions
//! (`benchmark/`; EXPERIMENTS.md maps each removed wall field to the
//! metric that owns it).

mod checkpoint;
mod serving;
mod training;

pub(crate) use checkpoint::checkpoint;
pub(crate) use serving::{serving, serving_chaos};
pub(crate) use training::{failover, robustness};

use buffalo_core::train::TrainConfig;
use buffalo_graph::datasets::DatasetSpec;
use buffalo_memsim::{AggregatorKind, DeviceMemory, DevicePool, FaultPlan, GnnShape};

/// The light model all five experiments run: GraphSAGE-mean, hidden 32,
/// one layer per fanout — small enough that a scenario sweep stays
/// interactive, deep enough that the scheduler has buckets to split.
fn light_config(spec: &DatasetSpec, fanouts: &[usize]) -> TrainConfig {
    TrainConfig {
        shape: GnnShape::new(
            spec.feat_dim,
            32,
            fanouts.len(),
            spec.num_classes,
            AggregatorKind::Mean,
        ),
        fanouts: fanouts.to_vec(),
        lr: 0.01,
        seed: 17,
        parallelism: buffalo_par::Parallelism::auto(),
    }
}

/// The budget probe: 60 % of the peak `run` reports reaching on a device
/// nothing here fills — tight enough that the scheduler must split, so
/// recovery, round-robin and admission have real work.
fn tight_budget(run: impl FnOnce(&DeviceMemory) -> u64) -> u64 {
    (run(&DeviceMemory::with_gib(24.0)) * 3 / 5).max(1)
}

/// `gpus` identical members of `budget` bytes each, all replaying `faults`.
fn pool(gpus: usize, budget: u64, faults: &str) -> DevicePool {
    let plan = FaultPlan::parse(faults).expect("scenario fault spec parses");
    DevicePool::homogeneous(gpus, budget, &plan).expect("non-empty pool")
}

/// A device loss: `(victim, fraction)` kills member `victim` at that
/// fraction of its allocation count in the pool's fault-free run, so the
/// loss always lands mid-run whatever the workload size.
type Kill = (usize, f64);

/// The `lose:` clauses for `kills`, given the fault-free run's per-member
/// allocation counts.
fn lose_spec(allocs: &[u64], kills: &[Kill]) -> String {
    let clauses = kills.iter().map(|&(victim, fraction)| {
        let total = allocs.get(victim).copied().unwrap_or(0);
        format!(
            "lose:{victim},{}",
            ((total as f64 * fraction) as u64).max(1)
        )
    });
    clauses.collect::<Vec<_>>().join(";")
}
