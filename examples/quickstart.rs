//! Quickstart: train a GraphSAGE model on a synthetic OGBN-arxiv stand-in
//! under a tight device-memory budget, with Buffalo scheduling the batch
//! into memory-balanced micro-batches.
//!
//! Run with: `cargo run --release --example quickstart`

use buffalo::core::train::{Engine, TrainConfig};
use buffalo::graph::datasets::{self, DatasetName};
use buffalo::memsim::{AggregatorKind, CostModel, DeviceMemory, GnnShape};
use buffalo::sampling::BatchSampler;

fn main() {
    // 1. Load a dataset (synthetic, calibrated to the paper's Table II).
    let ds = datasets::load(DatasetName::OgbnArxiv, 42);
    println!(
        "dataset: {} ({} nodes, {} edges)",
        ds.spec.name,
        ds.graph.num_nodes(),
        ds.graph.num_edges() / 2
    );

    // 2. Sample a training batch: 512 seed nodes, fanouts (5, 10).
    let seeds: Vec<u32> = (0..512).collect();
    let batch = BatchSampler::new(vec![5, 10]).sample(&ds.graph, &seeds, 7);
    println!(
        "batch: {} seeds -> {} nodes, {} sampled edges",
        batch.num_seeds,
        batch.num_nodes(),
        batch.num_edges()
    );

    // 3. Configure a 2-layer GraphSAGE model with a mean aggregator.
    let config = TrainConfig {
        shape: GnnShape::new(
            ds.spec.feat_dim,
            32,
            2,
            ds.spec.num_classes,
            AggregatorKind::Mean,
        ),
        fanouts: vec![5, 10],
        lr: 0.01,
        seed: 1,
        parallelism: buffalo::par::Parallelism::auto(),
    };
    let cost = CostModel::rtx6000();

    // 4. Find the whole-batch footprint, then give Buffalo half of it.
    let unlimited = DeviceMemory::new(u64::MAX);
    let mut probe = Engine::full_batch(config.clone());
    let whole = probe
        .train_iteration(&ds, &batch, &unlimited, &cost)
        .expect("unlimited device cannot OOM");
    println!(
        "whole-batch footprint: {:.1} MB",
        whole.peak_mem_bytes as f64 / 1e6
    );
    let device = DeviceMemory::new(whole.peak_mem_bytes * 3 / 5);

    // 5. Train with Buffalo: the scheduler splits the batch into bucket
    //    groups that fit the budget; gradients accumulate across
    //    micro-batches, so convergence matches whole-batch training.
    let mut trainer = Engine::buffalo(config, 0.2);
    for epoch in 0..10 {
        let stats = trainer
            .train_iteration(&ds, &batch, &device, &cost)
            .expect("scheduling fits the budget");
        println!(
            "epoch {epoch}: loss {:.4}, acc {:.2}, {} micro-batches, peak {:.1} MB",
            stats.loss,
            stats.accuracy,
            stats.num_micro_batches,
            stats.peak_mem_bytes as f64 / 1e6
        );
    }
}
