//! §V-G: data-parallel multi-GPU — a deliberately modest result. Training
//! is 9–12 % of the iteration, micro-batch generation stays on the CPU,
//! so a second GPU shaves only 3–5 % while all-reduce adds ~1 %.

use crate::context::{gib_bytes, load_workload};
use crate::output::{secs, Table};
use buffalo_core::multi_gpu::simulate_data_parallel;
use buffalo_graph::datasets::DatasetName;
use buffalo_memsim::{AggregatorKind, CostModel};

/// §V-G: repeat the Figure 15 setting on one vs two simulated A100s
/// connected by PCIe (25 GB/s).
pub(crate) fn multigpu(quick: bool) {
    let w = load_workload(DatasetName::OgbnProducts, quick);
    let shape = w.shape(1024, AggregatorKind::Lstm);
    let ctx = w.sim_context(&shape);
    let cost = CostModel::a100_80gb();
    let mut t = Table::new([
        "budget/GPU",
        "GPUs",
        "micro-batches",
        "CPU prep",
        "device (max)",
        "all-reduce",
        "iteration",
        "vs 1 GPU",
    ]);
    for budget_gib in [16.0f64, 24.0] {
        let budget = gib_bytes(budget_gib);
        let one = match simulate_data_parallel(&w.batch, ctx, budget, 1, 25e9, &cost) {
            Ok(r) => r,
            Err(e) => {
                t.failed(
                    [format!("{budget_gib:.0}GB"), "1".into()],
                    format!("failed: {e}"),
                );
                continue;
            }
        };
        for gpus in [1usize, 2] {
            let rep = simulate_data_parallel(&w.batch, ctx, budget, gpus, 25e9, &cost)
                .expect("same budget as the 1-GPU run");
            t.row([
                format!("{budget_gib:.0}GB"),
                gpus.to_string(),
                rep.base.num_micro_batches.to_string(),
                secs(rep.cpu_seconds),
                secs(rep.max_gpu_seconds),
                secs(rep.comm_seconds),
                secs(rep.iteration_seconds),
                format!(
                    "{:+.1}%",
                    100.0 * (rep.iteration_seconds - one.iteration_seconds) / one.iteration_seconds
                ),
            ]);
        }
    }
    t.print();
    println!("(paper: two GPUs reduce the iteration only 3-5% because micro-batch");
    println!("generation stays serial on the CPU; inter-GPU communication adds ~1%)");
}
