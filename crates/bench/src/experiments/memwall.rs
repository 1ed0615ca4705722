//! Figure 2 (the memory wall: whole-batch training OOMs as the model
//! scales) and Figure 13 (Buffalo breaks the wall with micro-batches).

use crate::context::{gib, gib_bytes, load_workload, load_workload_with, Workload, RTX6000_GIB};
use crate::output::{mem, Table};
use buffalo_core::sim::Strategy;
use buffalo_graph::datasets::DatasetName;
use buffalo_memsim::{AggregatorKind, CostModel, GnnShape};

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
            // Re-sample when the fanouts differ from the workload default:
            // same dataset, seeds and clustering.
            let resampled = (cfg.fanouts != w.fanouts)
                .then(|| load_workload_with(name, w.batch.num_seeds, cfg.fanouts, 42));
            let w = resampled.as_ref().unwrap_or(&w);
            if buffalo {
                match w.simulate(&cfg.shape, Strategy::Buffalo, gib_bytes(RTX6000_GIB), &cost) {
                    Ok(rep) => {
                        t.row([
                            cfg.label,
                            mem(rep.peak_mem_bytes),
                            rep.num_micro_batches.to_string(),
                            "ok".into(),
                        ]);
                    }
                    Err(e) => {
                        t.failed([cfg.label], format!("failed: {e}"));
                    }
                }
            } else {
                // The whole-batch footprint, held against the real budget.
                let peak = w.probe(&cfg.shape, &cost).peak_mem_bytes;
                t.row([
                    cfg.label,
                    mem(peak),
                    format!("{:.1}x", gib(peak) / RTX6000_GIB),
                    if gib(peak) > RTX6000_GIB {
                        "OOM"
                    } else {
                        "fits"
                    }
                    .into(),
                ]);
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
