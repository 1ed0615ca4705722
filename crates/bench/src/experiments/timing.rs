//! Figure 5 (METIS-based per-iteration partitioning dominates), Figure 11
//! (end-to-end time breakdown, Betty vs Buffalo), Figure 12 (block
//! generation time, Buffalo vs Betty), and the staged-pipeline experiment
//! (`pipeline-train`: real trainer, serial vs overlapped staging).

use crate::context::{load_workload, load_workload_with, RTX6000_GIB};
use crate::output::{secs, Table};
use buffalo_blocks::{generate_blocks_checked, generate_blocks_fast, GenerateOptions};
use buffalo_core::sim::{simulate_iteration, SimContext, Strategy};
use buffalo_core::train::{Engine, PipelineConfig, TrainConfig};
use buffalo_graph::datasets::DatasetName;
use buffalo_memsim::{measure, AggregatorKind, CostModel, DeviceMemory, StageTimings};
use buffalo_partition::{metis_kway, range_partition};
use std::time::Instant;

/// Figure 5: executing METIS-based graph partitioning inside each training
/// iteration costs far more than the GPU compute it schedules.
pub fn fig5(quick: bool) {
    let cost = CostModel::rtx6000();
    let mut t = Table::new([
        "dataset",
        "METIS partition",
        "block generation",
        "GPU compute",
    ]);
    for name in [DatasetName::OgbnArxiv, DatasetName::OgbnProducts] {
        let w = load_workload(name, quick);
        // The paper's §IV-D configuration: LSTM aggregator, hidden 128.
        let shape = w.shape(128, buffalo_memsim::AggregatorKind::Lstm);
        // Graph-level partitioning of the whole sampled subgraph, as the
        // METIS-based systems do per iteration.
        let t0 = Instant::now();
        let parts = metis_kway(&w.batch.graph, 8);
        let metis_time = t0.elapsed().as_secs_f64();
        std::hint::black_box(&parts);
        let t1 = Instant::now();
        let blocks = generate_blocks_fast(
            &w.batch.graph,
            w.batch.num_seeds,
            shape.num_layers,
            GenerateOptions::default(),
        );
        let block_time = t1.elapsed().as_secs_f64();
        let compute = cost.training_seconds(&blocks, &shape);
        t.row([
            name.to_string(),
            secs(metis_time),
            secs(block_time),
            secs(compute),
        ]);
    }
    t.print();
    println!("(partitioning per iteration dwarfs compute — the motivation for online bucket-level scheduling)");
}

/// Per-dataset micro-batch counts used for the breakdown, mirroring the
/// paper's Figure 14 settings (arxiv 4, products 12, papers 8).
fn breakdown_k(name: DatasetName) -> usize {
    match name {
        DatasetName::Cora | DatasetName::Pubmed => 2,
        DatasetName::Reddit => 4,
        DatasetName::OgbnArxiv => 4,
        DatasetName::OgbnProducts => 12,
        DatasetName::OgbnPapers => 8,
    }
}

/// Figure 11: end-to-end iteration time broken into the seven components,
/// Betty vs Buffalo, across all datasets. Betty has no data for
/// OGBN-papers (zero in-degree nodes, §V-B).
pub fn fig11(quick: bool) {
    let cost = CostModel::rtx6000();
    let mut t = Table::new([
        "dataset",
        "system",
        "sched",
        "REG",
        "METIS",
        "conn check",
        "block",
        "load",
        "compute",
        "total",
    ]);
    let mut reductions = Vec::new();
    for name in DatasetName::ALL {
        let w = load_workload(name, quick);
        // The paper's §IV-D configuration (LSTM, hidden 128) — compute
        // stays a small share of the iteration, as in Figure 11 where
        // data preparation dominates.
        let shape = w.shape(128, buffalo_memsim::AggregatorKind::Lstm);
        let ctx = SimContext {
            shape: &shape,
            fanouts: &w.fanouts,
            clustering: w.clustering,
            original: &w.dataset.graph,
        };
        let target_k = breakdown_k(name);
        // Find the whole-batch footprint, then give Buffalo a budget that
        // forces roughly the paper's micro-batch count; Betty then runs at
        // the K Buffalo actually produced so both systems do the same
        // amount of training work.
        let unlimited = DeviceMemory::new(u64::MAX);
        let whole = simulate_iteration(&w.batch, ctx, Strategy::Full, &unlimited, &cost)
            .expect("unlimited device cannot OOM");
        // A 1.3x slack keeps closure saturation from inflating K far past
        // the paper's micro-batch count.
        let budget = DeviceMemory::new((whole.peak_mem_bytes / target_k as u64).max(1) * 13 / 10);
        let buffalo_rep = simulate_iteration(&w.batch, ctx, Strategy::Buffalo, &budget, &cost);
        let k = buffalo_rep
            .as_ref()
            .map(|r| r.num_micro_batches)
            .unwrap_or(target_k);
        let mut totals = [0.0f64; 2];
        for (si, strategy) in [Strategy::Buffalo, Strategy::Betty { k }]
            .into_iter()
            .enumerate()
        {
            let device = if matches!(strategy, Strategy::Buffalo) {
                &budget
            } else {
                &unlimited
            };
            let result = if matches!(strategy, Strategy::Buffalo) {
                buffalo_rep.clone()
            } else {
                simulate_iteration(&w.batch, ctx, strategy, device, &cost)
            };
            match result {
                Ok(rep) => {
                    let p = rep.phases;
                    totals[si] = p.total();
                    t.row([
                        name.to_string(),
                        strategy.name().into(),
                        secs(p.scheduling),
                        secs(p.reg_construction),
                        secs(p.metis_partition),
                        secs(p.connection_check),
                        secs(p.block_construction),
                        secs(p.data_loading),
                        secs(p.gpu_compute),
                        secs(p.total()),
                    ]);
                }
                Err(e) => {
                    t.row([
                        name.to_string(),
                        strategy.name().into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        format!("no data ({e})"),
                    ]);
                }
            }
        }
        if totals[0] > 0.0 && totals[1] > 0.0 {
            reductions.push(100.0 * (totals[1] - totals[0]) / totals[1]);
        }
    }
    t.print();
    if !reductions.is_empty() {
        println!(
            "Buffalo end-to-end reduction vs Betty: {:.1}% average (paper: 70.9%)",
            reductions.iter().sum::<f64>() / reductions.len() as f64
        );
    }
}

/// Figure 12: block generation time, Buffalo's CSR fast path vs Betty's
/// repeated connection checks, at 4/8/16 micro-batches.
pub fn fig12(quick: bool) {
    let mut t = Table::new([
        "dataset",
        "micro-batches",
        "Betty block gen",
        "Buffalo block gen",
        "speedup",
    ]);
    for name in [DatasetName::OgbnArxiv, DatasetName::OgbnProducts] {
        let w = load_workload(name, quick);
        let depth = w.fanouts.len();
        for k in [4usize, 8, 16] {
            // Hold the partition fixed so only generation differs.
            let groups = range_partition(w.batch.num_seeds, k);
            let micros: Vec<_> = groups
                .iter()
                .filter(|g| !g.is_empty())
                .map(|g| w.batch.restrict_to_seeds(g))
                .collect();
            let t0 = Instant::now();
            for m in &micros {
                std::hint::black_box(generate_blocks_checked(
                    &m.graph,
                    &m.global_ids,
                    &w.dataset.graph,
                    m.num_seeds,
                    depth,
                ));
            }
            let betty = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            for m in &micros {
                std::hint::black_box(generate_blocks_fast(
                    &m.graph,
                    m.num_seeds,
                    depth,
                    GenerateOptions::default(),
                ));
            }
            let buffalo = t1.elapsed().as_secs_f64();
            t.row([
                name.to_string(),
                k.to_string(),
                secs(betty),
                secs(buffalo),
                format!("{:.1}x", betty / buffalo.max(1e-12)),
            ]);
        }
    }
    t.print();
    println!("(paper: Buffalo up to 8x faster block generation; 10x claimed in §I)");
    let _ = RTX6000_GIB;
}

/// Staged-pipeline experiment: the real `Engine::buffalo` (dense math, not
/// the analytic simulator) with serial vs overlapped staging on a budget
/// that forces multiple micro-batches. Reports the serial stage sum, the
/// overlapped makespan, and checks the two runs' losses bit-for-bit.
pub fn pipeline_train(quick: bool) {
    let cost = CostModel::rtx6000();
    let iters = if quick { 3 } else { 5 };
    let names: &[DatasetName] = if quick {
        &[DatasetName::Cora]
    } else {
        &[DatasetName::Cora, DatasetName::Pubmed]
    };
    let mut t = Table::new(["dataset", "K", "serial", "overlapped", "speedup", "losses"]);
    for &name in names {
        // Real dense math on the CPU: keep the batch and shape light.
        let w = load_workload_with(name, if quick { 256 } else { 512 }, vec![5, 10], 42);
        let shape = w.shape(32, AggregatorKind::Mean);
        let blocks = generate_blocks_fast(
            &w.batch.graph,
            w.batch.num_seeds,
            shape.num_layers,
            GenerateOptions::default(),
        );
        // Three quarters of the whole-batch footprint forces a split.
        let budget = measure::training_memory(&blocks, &shape).total() * 3 / 4;
        let config = TrainConfig {
            shape: shape.clone(),
            fanouts: w.fanouts.clone(),
            lr: 0.01,
            seed: 9,
            parallelism: buffalo_par::Parallelism::auto(),
        };
        let run = |pipeline: PipelineConfig| {
            let device = DeviceMemory::new(budget);
            let mut trainer = Engine::buffalo(config.clone(), w.clustering).with_pipeline(pipeline);
            let mut timings = StageTimings::default();
            let mut losses = Vec::new();
            let mut k = 0usize;
            for _ in 0..iters {
                let s = trainer
                    .train_iteration(&w.dataset, &w.batch, &device, &cost)
                    .expect("training iteration");
                timings.accumulate(&s.timings);
                losses.push(s.loss.to_bits());
                k = s.num_micro_batches;
            }
            (k, timings, losses)
        };
        let (k, serial, serial_losses) = run(PipelineConfig::serial());
        let (_, overlapped, overlapped_losses) = run(PipelineConfig::overlapped());
        t.row([
            name.to_string(),
            k.to_string(),
            secs(serial.serial_sum()),
            secs(overlapped.overlapped_makespan),
            format!("{:.2}x", overlapped.speedup()),
            if serial_losses == overlapped_losses {
                "bit-identical".into()
            } else {
                "MISMATCH".into()
            },
        ]);
    }
    t.print();
    println!("(Prepare of micro-batch i+1 runs on a worker thread while micro-batch i");
    println!("executes; in-order execution keeps gradient accumulation — and therefore");
    println!("the losses — bit-identical to serial staging)");
}
