//! Figure 17 (convergence curves, batch vs micro-batch) and Table IV
//! (training loss, DGL vs Buffalo, with OOM cells).

use crate::context::{gib, load_workload, load_workload_with, RTX6000_GIB};
use crate::output::Table;
use buffalo_core::sim::{simulate_iteration, SimContext, Strategy};
use buffalo_core::train::{Engine, TrainConfig};
use buffalo_graph::datasets::DatasetName;
use buffalo_graph::NodeId;
use buffalo_memsim::{AggregatorKind, CostModel, DeviceMemory, GnnShape};
use buffalo_sampling::BatchSampler;

/// Reduced real-training fanouts (the full math path runs on the CPU).
const TRAIN_FANOUTS: [usize; 2] = [5, 10];

fn train_config(feat_dim: usize, num_classes: usize, aggregator: AggregatorKind) -> TrainConfig {
    TrainConfig {
        shape: GnnShape::new(feat_dim, 32, 2, num_classes, aggregator),
        fanouts: TRAIN_FANOUTS.to_vec(),
        lr: 0.01,
        seed: 17,
        parallelism: buffalo_par::Parallelism::auto(),
    }
}

/// Figure 17: convergence of whole-batch vs Buffalo micro-batch training
/// on OGBN-arxiv for three batch sizes — the curves must coincide.
pub(crate) fn fig17(quick: bool) {
    let w = load_workload_with(DatasetName::OgbnArxiv, 64, TRAIN_FANOUTS.to_vec(), 5);
    let cost = CostModel::rtx6000();
    let iters = if quick { 8 } else { 20 };
    let sizes: &[usize] = if quick {
        &[128, 256]
    } else {
        &[256, 512, 1024]
    };
    for &bs in sizes {
        let seeds: Vec<NodeId> = (0..bs as NodeId).collect();
        let batch = BatchSampler::new(TRAIN_FANOUTS.to_vec()).sample(&w.dataset.graph, &seeds, 11);
        let config = train_config(
            w.dataset.spec.feat_dim,
            w.dataset.spec.num_classes,
            AggregatorKind::Mean,
        );
        // Size a budget that forces Buffalo into several micro-batches,
        // probing the whole-batch footprint with a throwaway trainer.
        let mut probe = Engine::full_batch(config.clone());
        let big = DeviceMemory::new(u64::MAX);
        let whole = probe
            .train_iteration(&w.dataset, &batch, &big, &cost)
            .expect("unlimited device");
        let budget = DeviceMemory::new(whole.peak_mem_bytes * 3 / 5);
        // Fresh trainers so both start from identical weights.
        let config = train_config(
            w.dataset.spec.feat_dim,
            w.dataset.spec.num_classes,
            AggregatorKind::Mean,
        );
        let mut full = Engine::full_batch(config.clone());
        let mut buffalo = Engine::buffalo(config, w.clustering);
        let mut t = Table::new([
            "iteration",
            "batch loss",
            "micro-batch loss",
            "micro-batches",
        ]);
        let mut max_rel_diff = 0.0f64;
        for i in 0..iters {
            let sf = full
                .train_iteration(&w.dataset, &batch, &big, &cost)
                .expect("full batch fits unlimited device");
            let sb = buffalo
                .train_iteration(&w.dataset, &batch, &budget, &cost)
                .expect("buffalo fits budget");
            max_rel_diff =
                max_rel_diff.max((sf.loss - sb.loss).abs() as f64 / sf.loss.abs().max(1e-6) as f64);
            t.row([
                i.to_string(),
                format!("{:.4}", sf.loss),
                format!("{:.4}", sb.loss),
                sb.num_micro_batches.to_string(),
            ]);
        }
        println!("batch size {bs}:");
        t.print();
        println!(
            "max relative loss divergence: {:.2}%\n",
            100.0 * max_rel_diff
        );
    }
    println!("(paper: curves closely aligned — micro-batch training does not affect convergence)");
}

/// Table IV: training loss of DGL (whole batch) vs Buffalo (micro-batch)
/// per dataset and model; OOM cells where the whole batch exceeds 24 GB.
///
/// The OOM column is decided at the paper's scale configuration (hidden
/// 512 LSTM for SAGE, 8-head GAT accounted as hidden 2048); the loss
/// itself is measured with a reduced CPU-trainable configuration, since
/// the claim under test is *equality* of the DGL and Buffalo losses.
pub(crate) fn tab4(quick: bool) {
    let cost = CostModel::rtx6000();
    let iters = if quick { 6 } else { 12 };
    let mut t = Table::new([
        "dataset",
        "model",
        "DGL loss",
        "Buffalo loss",
        "micro-batches",
    ]);
    for name in DatasetName::ALL {
        let w = load_workload(name, quick);
        for (model_name, oom_shape, train_agg) in [
            (
                "SAGE",
                w.shape(512, AggregatorKind::Lstm),
                AggregatorKind::Mean,
            ),
            (
                "GAT",
                w.shape(2048, AggregatorKind::Attention),
                AggregatorKind::Attention,
            ),
        ] {
            if quick && name == DatasetName::OgbnPapers && model_name == "GAT" {
                continue;
            }
            // OOM decision at paper-scale config.
            let ctx = SimContext {
                shape: &oom_shape,
                fanouts: &w.fanouts,
                clustering: w.clustering,
                original: &w.dataset.graph,
            };
            let unlimited = DeviceMemory::new(u64::MAX);
            let whole = simulate_iteration(&w.batch, ctx, Strategy::Full, &unlimited, &cost)
                .expect("unlimited device");
            let dgl_oom = gib(whole.peak_mem_bytes) > RTX6000_GIB;
            // Loss measurement at reduced scale.
            let bs = if quick { 192 } else { 384 };
            let seeds: Vec<NodeId> = (0..bs.min(w.dataset.graph.num_nodes()) as NodeId).collect();
            let batch =
                BatchSampler::new(TRAIN_FANOUTS.to_vec()).sample(&w.dataset.graph, &seeds, 23);
            let config = train_config(
                w.dataset.spec.feat_dim,
                w.dataset.spec.num_classes,
                train_agg,
            );
            let big = DeviceMemory::new(u64::MAX);
            let mut probe = Engine::full_batch(config.clone());
            let whole_small = probe
                .train_iteration(&w.dataset, &batch, &big, &cost)
                .expect("unlimited device");
            let budget = DeviceMemory::new(whole_small.peak_mem_bytes * 3 / 5);
            let mut full = Engine::full_batch(config.clone());
            let mut buffalo = Engine::buffalo(config, w.clustering);
            let (mut dgl_losses, mut buf_losses, mut micro) = (Vec::new(), Vec::new(), 0);
            for _ in 0..iters {
                let sf = full
                    .train_iteration(&w.dataset, &batch, &big, &cost)
                    .expect("probe fits");
                dgl_losses.push(sf.loss);
                let sb = buffalo
                    .train_iteration(&w.dataset, &batch, &budget, &cost)
                    .expect("buffalo fits budget");
                buf_losses.push(sb.loss);
                micro = sb.num_micro_batches;
            }
            let fmt = |v: &[f32]| {
                let tail = &v[v.len().saturating_sub(3)..];
                let mean = tail.iter().sum::<f32>() / tail.len() as f32;
                let var = tail.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / tail.len() as f32;
                format!("{mean:.4} ± {:.4}", var.sqrt())
            };
            t.row([
                name.to_string(),
                model_name.into(),
                if dgl_oom {
                    "OOM".into()
                } else {
                    fmt(&dgl_losses)
                },
                fmt(&buf_losses),
                micro.to_string(),
            ]);
        }
    }
    t.print();
    println!(
        "(paper: Buffalo loss matches DGL wherever DGL fits; Buffalo also trains every OOM cell)"
    );
}
