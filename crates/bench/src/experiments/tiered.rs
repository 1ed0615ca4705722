//! `ablate-tiered`: micro-batching (Buffalo) vs activation spilling to a
//! slow memory tier — the extension study for the paper's closing remark
//! that Buffalo "is a solution to leverage tiered memory" (§VI).

use crate::context::load_workload;
use crate::output::{mem, secs, Table};
use buffalo_blocks::BlockWalker;
use buffalo_core::sim::{simulate_iteration, SimContext, Strategy};
use buffalo_graph::datasets::DatasetName;
use buffalo_memsim::tiered::{plan_spill, TieredConfig};
use buffalo_memsim::{measure, CostModel, DeviceMemory};

/// Sweeps the fast-tier budget on OGBN-products and compares one
/// iteration of (a) Buffalo micro-batching and (b) whole-batch training
/// with activation spilling over PCIe and over a CXL-class link.
pub(crate) fn tiered(quick: bool) {
    let w = load_workload(DatasetName::OgbnProducts, quick);
    let shape = w.default_shape();
    let ctx = SimContext {
        shape: &shape,
        fanouts: &w.fanouts,
        clustering: w.clustering,
        original: &w.dataset.graph,
    };
    let cost = CostModel::rtx6000();
    // Whole-batch blocks once: the spilling baseline trains the same
    // batch unsplit.
    let blocks =
        BlockWalker::default().whole_batch(&w.batch.graph, w.batch.num_seeds, shape.num_layers);
    let breakdown = measure::training_memory(&blocks, &shape);
    let base_step = cost.training_seconds(&blocks, &shape)
        + cost.transfer_seconds(measure::transfer_bytes(&blocks, &shape) as f64);
    println!(
        "whole batch: {} total ({} workspace)",
        mem(breakdown.total()),
        mem(breakdown.workspace)
    );
    let mut t = Table::new([
        "fast tier",
        "buffalo K",
        "buffalo time",
        "spill (PCIe 12GB/s)",
        "spill (CXL 48GB/s)",
    ]);
    for frac in [2u64, 4, 8] {
        let fast = breakdown.total() / frac;
        let device = DeviceMemory::new(fast);
        let buffalo = simulate_iteration(&w.batch, ctx, Strategy::Buffalo, &device, &cost);
        let (k, b_time) = match &buffalo {
            Ok(rep) => (rep.num_micro_batches.to_string(), secs(rep.phases.total())),
            Err(e) => ("-".into(), format!("failed: {e}")),
        };
        let spill_time = |bw: f64| {
            let plan = plan_spill(
                &breakdown,
                &TieredConfig {
                    fast_bytes: fast,
                    spill_bw: bw,
                },
            );
            if plan.feasible {
                secs(base_step + plan.spill_seconds)
            } else {
                "infeasible".to_string()
            }
        };
        t.row([mem(fast), k, b_time, spill_time(12e9), spill_time(48e9)]);
    }
    t.print();
    println!("(micro-batching pays redundancy + per-batch overhead; spilling pays two");
    println!("link crossings per spilled byte — fast links move the crossover toward spilling)");
}
