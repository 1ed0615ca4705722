//! Figure 1 (degree-frequency distribution) and Figure 4 (bucket-volume
//! distributions and the bucket explosion problem).

use crate::context::load_workload;
use crate::output::{mem, Table};
use buffalo_blocks::{generate_blocks_fast, GenerateOptions};
use buffalo_bucketing::degree_bucketing;
use buffalo_graph::datasets::DatasetName;
use buffalo_graph::stats;
use buffalo_memsim::{measure, AggregatorKind};
use buffalo_partition::betty_partition;

/// Figure 1: degree frequency of all nodes in OGBN-products, showing the
/// power-law long tail that causes bucket explosion. Printed log-binned.
pub fn fig1(quick: bool) {
    let w = load_workload(DatasetName::OgbnProducts, quick);
    let hist = stats::degree_frequency(&w.dataset.graph);
    let mut t = Table::new(["degree range", "#nodes", "share %"]);
    let total: usize = hist.iter().sum();
    let mut lo = 1usize;
    while lo < hist.len() {
        let hi = (lo * 2).min(hist.len());
        let count: usize = hist[lo..hi].iter().sum();
        if count > 0 {
            t.row([
                format!("{}-{}", lo, hi - 1),
                count.to_string(),
                format!("{:.3}", 100.0 * count as f64 / total as f64),
            ]);
        }
        lo = hi;
    }
    t.print();
    let fit = stats::fit_power_law(&w.dataset.graph, 5).expect("tail large enough");
    println!(
        "power-law fit: alpha={:.2}, max/avg degree ratio={:.0} (long tail confirmed)",
        fit.alpha, fit.max_to_avg_ratio
    );
}

/// Figure 4: bucket-volume distribution for (a) Cora — balanced, (b)
/// OGBN-arxiv with F=10 — exploded, (c) OGBN-arxiv after Betty 2-way
/// batch-level partitioning — still exploded in every micro-batch, with
/// imbalanced micro-batch memory.
pub fn fig4(quick: bool) {
    let cutoff = 10;
    // (a) Cora: small batch, balanced buckets.
    let cora = load_workload(DatasetName::Cora, quick);
    println!("(a) Cora bucket volumes (F={cutoff}):");
    print_volumes(&cora.batch.graph, cora.batch.num_seeds, cutoff);

    // (b) OGBN-arxiv: bucket explosion.
    let arxiv = load_workload(DatasetName::OgbnArxiv, quick);
    println!("\n(b) OGBN-arxiv bucket volumes (F={cutoff}):");
    let volumes = print_volumes(&arxiv.batch.graph, arxiv.batch.num_seeds, cutoff);
    let last = *volumes.last().unwrap() as f64;
    let rest_mean = volumes[..volumes.len() - 1].iter().sum::<usize>() as f64
        / (volumes.len() - 1).max(1) as f64;
    println!(
        "explosion: last bucket {}x the mean of the others",
        (last / rest_mean.max(1.0)).round()
    );

    // (c) Betty 2-way micro-batches still explode and are memory-imbalanced.
    println!("\n(c) OGBN-arxiv after Betty batch-level partitioning (2 micro-batches):");
    let batch = &arxiv.batch;
    let part = betty_partition(&batch.graph, batch.num_seeds, arxiv.fanouts.len(), 2)
        .expect("arxiv batch has no zero in-degree seeds");
    let shape = arxiv.shape(128, AggregatorKind::Lstm);
    let mut mems = Vec::new();
    for (i, group) in part.groups.iter().enumerate() {
        let micro = arxiv.batch.restrict_to_seeds(group);
        println!("micro-batch {i} bucket volumes:");
        print_volumes(&micro.graph, micro.num_seeds, cutoff);
        let blocks = generate_blocks_fast(
            &micro.graph,
            micro.num_seeds,
            shape.num_layers,
            GenerateOptions::default(),
        );
        mems.push(measure::training_memory(&blocks, &shape).total());
    }
    let mut t = Table::new(["micro-batch", "memory"]);
    for (i, m) in mems.iter().enumerate() {
        t.row([i.to_string(), mem(*m)]);
    }
    t.print();
    let hi = *mems.iter().max().unwrap() as f64;
    let lo = *mems.iter().min().unwrap() as f64;
    println!(
        "memory imbalance between Betty micro-batches: {:.0}%",
        100.0 * (hi - lo) / lo
    );
}

fn print_volumes(batch: &buffalo_graph::CsrGraph, num_seeds: usize, cutoff: usize) -> Vec<usize> {
    let buckets = degree_bucketing(batch, num_seeds, cutoff);
    let mut t = Table::new(["degree", "volume"]);
    let mut volumes = Vec::new();
    for b in &buckets {
        t.row([b.degree.to_string(), b.volume().to_string()]);
        volumes.push(b.volume());
    }
    t.print();
    volumes
}
