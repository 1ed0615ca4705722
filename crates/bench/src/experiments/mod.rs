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

/// All experiment ids accepted by the `figures` binary.
pub const ALL_IDS: &[&str] = &[
    "tab2",
    "fig1",
    "fig4",
    "fig2",
    "fig13",
    "fig5",
    "fig10",
    "fig11",
    "fig12",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "tab3",
    "tab4",
    "multigpu",
    "ablate-grouping",
    "ablate-estimator",
    "ablate-layer",
    "ablate-tiered",
    "ablate-pipeline",
    "pipeline-train",
    "robustness",
    "checkpoint",
    "serving",
    "serving-chaos",
    "failover",
];

/// Runs one experiment by id. The five resilience experiments always run
/// at full size and hold their `BENCH_*.json` against the run — rewritten
/// with `write_bench`, compared without (see
/// [`check_artifact`](crate::output::check_artifact)).
///
/// # Errors
///
/// Returns a message for unknown ids, and for a committed artifact that
/// differs from what the run regenerated.
pub fn run(id: &str, quick: bool, write_bench: bool) -> Result<(), String> {
    println!("=== {id} {} ===", if quick { "(quick)" } else { "" });
    match id {
        "tab2" => tables::tab2(quick),
        "fig1" => distributions::fig1(quick),
        "fig4" => distributions::fig4(quick),
        "fig2" => memwall::fig2(quick),
        "fig13" => memwall::fig13(quick),
        "fig5" => timing::fig5(quick),
        "fig10" => pareto::fig10(quick),
        "fig11" => timing::fig11(quick),
        "fig12" => timing::fig12(quick),
        "fig14" => pareto::fig14(quick),
        "fig15" => pareto::fig15(quick),
        "fig16" => pareto::fig16(quick),
        "fig17" => convergence::fig17(quick),
        "tab3" => tables::tab3(quick),
        "tab4" => convergence::tab4(quick),
        "multigpu" => multigpu::multigpu(quick),
        "ablate-grouping" => ablation::grouping(quick),
        "ablate-estimator" => ablation::estimator(quick),
        "ablate-layer" => ablation::layer(quick),
        "ablate-tiered" => tiered::tiered(quick),
        "ablate-pipeline" => ablation::pipeline(quick),
        "pipeline-train" => timing::pipeline_train(quick),
        "robustness" => resilience::robustness(write_bench)?,
        "checkpoint" => resilience::checkpoint(write_bench)?,
        "serving" => resilience::serving(write_bench)?,
        "serving-chaos" => resilience::serving_chaos(write_bench)?,
        "failover" => resilience::failover(write_bench)?,
        other => return Err(format!("unknown experiment id `{other}`")),
    }
    println!();
    Ok(())
}
