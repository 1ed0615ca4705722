//! One module per paper figure/table. Every experiment prints the rows or
//! series of the corresponding figure; `EXPERIMENTS.md` records how each
//! output compares with the paper.

pub mod ablation;
pub mod convergence;
pub mod distributions;
pub mod memwall;
pub mod multigpu;
pub mod pareto;
pub mod resilience;
pub mod tables;
pub mod tiered;
pub mod timing;

/// How an experiment is started: a figure takes the `quick` switch, a
/// fixed-size table nothing, and a resilience experiment the
/// `write_bench` switch and can fail its check.
enum Experiment {
    Figure(fn(bool)),
    Fixed(fn()),
    Bench(fn(bool) -> Result<(), String>),
}
use Experiment::{Bench, Figure, Fixed};

/// Every experiment the `figures` binary accepts, in `all` order.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("tab2", Fixed(tables::tab2)),
    ("fig1", Figure(distributions::fig1)),
    ("fig4", Figure(distributions::fig4)),
    ("fig2", Figure(memwall::fig2)),
    ("fig13", Figure(memwall::fig13)),
    ("fig5", Figure(timing::fig5)),
    ("fig10", Figure(pareto::fig10)),
    ("fig11", Figure(timing::fig11)),
    ("fig12", Figure(timing::fig12)),
    ("fig14", Figure(pareto::fig14)),
    ("fig15", Figure(pareto::fig15)),
    ("fig16", Figure(pareto::fig16)),
    ("fig17", Figure(convergence::fig17)),
    ("tab3", Figure(tables::tab3)),
    ("tab4", Figure(convergence::tab4)),
    ("multigpu", Figure(multigpu::multigpu)),
    ("ablate-grouping", Figure(ablation::grouping)),
    ("ablate-estimator", Figure(ablation::estimator)),
    ("ablate-layer", Figure(ablation::layer)),
    ("ablate-tiered", Figure(tiered::tiered)),
    ("ablate-pipeline", Figure(ablation::pipeline)),
    ("pipeline-train", Figure(timing::pipeline_train)),
    ("robustness", Bench(resilience::robustness)),
    ("checkpoint", Bench(resilience::checkpoint)),
    ("serving", Bench(resilience::serving)),
    ("serving-chaos", Bench(resilience::serving_chaos)),
    ("failover", Bench(resilience::failover)),
];

/// All experiment ids accepted by the `figures` binary.
pub fn ids() -> impl Iterator<Item = &'static str> {
    EXPERIMENTS.iter().map(|(id, _)| *id)
}

/// Runs one experiment by id; its header says `(quick)` only when a
/// figure runs quick. Table II and the five resilience experiments always
/// run at full size, and the latter hold their `BENCH_*.json` against the
/// run — rewritten with `write_bench`, compared without (see
/// `check_artifact`).
///
/// # Errors
///
/// Returns a message for unknown ids, and for a committed artifact that
/// differs from what the run regenerated.
pub fn run(id: &str, quick: bool, write_bench: bool) -> Result<(), String> {
    let Some((_, experiment)) = EXPERIMENTS.iter().find(|(name, _)| *name == id) else {
        return Err(format!("unknown experiment id `{id}`"));
    };
    let quick = quick && matches!(experiment, Figure(_));
    println!("=== {id}{} ===", if quick { " (quick)" } else { "" });
    match experiment {
        Figure(run) => run(quick),
        Fixed(run) => run(),
        Bench(run) => run(write_bench)?,
    }
    println!();
    Ok(())
}
