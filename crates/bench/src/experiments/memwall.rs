//! Figure 2 (the memory wall: whole-batch training OOMs as the model
//! scales) and Figure 13 (Buffalo breaks the wall with micro-batches).

use crate::context::{gib, load_workload, load_workload_with, Workload, RTX6000_GIB};
use crate::output::{mem, Table};
use buffalo_core::sim::{simulate_iteration, SimContext, Strategy};
use buffalo_core::TrainError;
use buffalo_graph::datasets::DatasetName;
use buffalo_memsim::{AggregatorKind, CostModel, DeviceMemory, GnnShape};

/// One Figure 2/13 configuration: label + shape + fanouts.
struct Config {
    label: String,
    shape: GnnShape,
    fanouts: Vec<usize>,
}

/// The paper's Figure 2 grid: varying (a) aggregator, (b) aggregation
/// depth, (c) hidden size, (d) fanout.
fn configs(w: &Workload) -> Vec<Config> {
    let mut cs = Vec::new();
    for agg in [
        AggregatorKind::Mean,
        AggregatorKind::MaxPool,
        AggregatorKind::Lstm,
    ] {
        cs.push(Config {
            label: format!("(a) aggregator={agg}"),
            shape: w.shape(512, agg),
            fanouts: vec![10, 25],
        });
    }
    for depth in [2usize, 3, 4] {
        let mut fanouts = vec![10];
        fanouts.extend(std::iter::repeat_n(10, depth.saturating_sub(2)));
        fanouts.push(25);
        let mut shape = w.shape(256, AggregatorKind::Lstm);
        shape.num_layers = depth;
        cs.push(Config {
            label: format!("(b) depth={depth}"),
            shape,
            fanouts,
        });
    }
    for hidden in [128usize, 256, 512, 1024] {
        cs.push(Config {
            label: format!("(c) hidden={hidden}"),
            shape: w.shape(hidden, AggregatorKind::Lstm),
            fanouts: vec![10, 25],
        });
    }
    for fanout in [10usize, 15, 20] {
        cs.push(Config {
            label: format!("(d) fanout={fanout},25"),
            shape: w.shape(512, AggregatorKind::Lstm),
            fanouts: vec![fanout, 25],
        });
    }
    cs
}

fn run_grid(quick: bool, buffalo: bool) {
    let cost = CostModel::rtx6000();
    for name in [DatasetName::OgbnArxiv, DatasetName::OgbnProducts] {
        let w = load_workload(name, quick);
        println!("--- {} (budget {RTX6000_GIB} GB) ---", name);
        let mut t = Table::new(if buffalo {
            ["config", "peak memory", "micro-batches", "status"]
        } else {
            ["config", "whole-batch memory", "vs 24GB", "status"]
        });
        for cfg in configs(&w) {
            // Re-sample when the fanouts differ from the workload default.
            let batch;
            let batch_ref = if cfg.fanouts == w.fanouts {
                &w.batch
            } else {
                let alt = load_workload_with(name, w.batch.num_seeds, cfg.fanouts.clone(), 42);
                batch = alt.batch;
                &batch
            };
            let ctx = SimContext {
                shape: &cfg.shape,
                fanouts: &cfg.fanouts,
                clustering: w.clustering,
                original: &w.dataset.graph,
            };
            if buffalo {
                let device = DeviceMemory::with_gib(RTX6000_GIB);
                match simulate_iteration(batch_ref, ctx, Strategy::Buffalo, &device, &cost) {
                    Ok(rep) => {
                        t.row([
                            cfg.label,
                            mem(rep.peak_mem_bytes),
                            rep.num_micro_batches.to_string(),
                            "ok".into(),
                        ]);
                    }
                    Err(e) => {
                        t.row([cfg.label, "-".into(), "-".into(), format!("failed: {e}")]);
                    }
                }
            } else {
                // Measure the whole-batch footprint against an unlimited
                // device, then compare with the real budget.
                let unlimited = DeviceMemory::new(u64::MAX);
                match simulate_iteration(batch_ref, ctx, Strategy::Full, &unlimited, &cost) {
                    Ok(rep) => {
                        let over = gib(rep.peak_mem_bytes) > RTX6000_GIB;
                        t.row([
                            cfg.label,
                            mem(rep.peak_mem_bytes),
                            format!("{:.1}x", gib(rep.peak_mem_bytes) / RTX6000_GIB),
                            if over {
                                "OOM".into()
                            } else {
                                "fits".to_string()
                            },
                        ]);
                    }
                    Err(TrainError::Oom(e)) => {
                        t.row([
                            cfg.label,
                            format!(">{}", mem(e.requested)),
                            "-".into(),
                            "OOM".into(),
                        ]);
                    }
                    Err(e) => {
                        t.row([cfg.label, "-".into(), "-".into(), format!("failed: {e}")]);
                    }
                }
            }
        }
        t.print();
    }
}

/// Figure 2: whole-batch GraphSAGE memory across aggregators, depths,
/// hidden sizes, and fanouts — the memory wall.
pub(crate) fn fig2(quick: bool) {
    run_grid(quick, false);
}

/// Figure 13: the same grid trained with Buffalo under the 24 GB budget —
/// every OOM cell becomes a finite micro-batch count.
pub(crate) fn fig13(quick: bool) {
    run_grid(quick, true);
}
