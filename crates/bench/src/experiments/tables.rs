//! Table II (dataset characteristics) and Table III (memory estimation
//! error).

use crate::context::{load_workload, Workload};
use crate::output::Table;
use buffalo_blocks::{generate_blocks_fast, GenerateOptions};
use buffalo_graph::datasets::{self, DatasetName};
use buffalo_graph::stats;
use buffalo_memsim::{estimate, measure, AggregatorKind};

/// Table II: paper-reported vs measured characteristics of every dataset
/// stand-in (scale factors recorded per dataset).
pub fn tab2(_quick: bool) {
    let mut t = Table::new([
        "dataset",
        "scale",
        "nodes",
        "edges",
        "avg deg (paper)",
        "avg coef (paper)",
        "power law (paper)",
    ]);
    for spec in datasets::catalog() {
        let ds = datasets::load(spec.name, 42);
        let s = stats::summarize(&ds.graph, 42);
        t.row([
            spec.name.to_string(),
            format!("1/{}", spec.scale_factor),
            s.num_nodes.to_string(),
            (s.num_edges / 2).to_string(),
            format!("{:.1} ({:.1})", s.avg_degree, spec.paper_avg_degree),
            format!("{:.3} ({:.3})", s.avg_clustering, spec.paper_avg_coef),
            format!(
                "{} ({})",
                if s.power_law { "yes" } else { "no" },
                if spec.paper_power_law { "yes" } else { "no" }
            ),
        ]);
    }
    t.print();
    println!("(ogbn-papers is directed — the measured average degree is in-degree)");
}

/// The number of micro-batches Table III uses per dataset/aggregator.
fn tab3_batches(name: DatasetName, agg: AggregatorKind) -> u64 {
    match (name, agg) {
        (DatasetName::OgbnProducts | DatasetName::OgbnPapers, AggregatorKind::Lstm) => 16,
        (DatasetName::OgbnProducts | DatasetName::OgbnPapers, _) => 8,
        _ => 4,
    }
}

/// Evaluates the analytical estimator at the paper's granularity: split
/// the explosion bucket into exactly `k` micro-buckets (Algorithm 3 line
/// 5), group into `k` bucket groups with Algorithm 4, then compare every
/// group's Eq.-2 estimate against the exact measured footprint of the
/// micro-batch it generates.
fn estimation_error(w: &Workload, agg: AggregatorKind, k: u64) -> Option<(usize, f64)> {
    use buffalo_bucketing::{
        closure_counts, degree_bucketing, detect_explosion, mem_balanced_grouping,
        split_explosion_bucket, BucketEntry, ClosureScratch,
    };
    let shape = w.shape(256, agg);
    let k = k as usize;
    let base = degree_bucketing(&w.batch.graph, w.batch.num_seeds, w.fanouts[0]);
    let explosion = detect_explosion(&base, 2.0);
    let mut buckets = Vec::new();
    for (i, b) in base.iter().enumerate() {
        if Some(i) == explosion {
            buckets.extend(split_explosion_bucket(b, k));
        } else {
            buckets.push(b.clone());
        }
    }
    let mut scratch = ClosureScratch::default();
    let entries: Vec<BucketEntry> = buckets
        .into_iter()
        .map(|bucket| {
            let counts = closure_counts(&w.batch.graph, &bucket.nodes, 2, &mut scratch);
            BucketEntry::new(bucket, &counts, &shape)
        })
        .collect();
    let outcome =
        mem_balanced_grouping(&entries, k, u64::MAX, w.clustering, shape.parameter_bytes());
    let mut errors = Vec::new();
    for (group, &est) in outcome.groups.iter().zip(&outcome.group_estimates) {
        if group.is_empty() {
            continue;
        }
        let seeds: Vec<u32> = group
            .iter()
            .flat_map(|&i| entries[i].bucket.nodes.iter().copied())
            .collect();
        let micro = w.batch.restrict_to_seeds(&seeds);
        let blocks = generate_blocks_fast(
            &micro.graph,
            micro.num_seeds,
            shape.num_layers,
            GenerateOptions::default(),
        );
        let actual = measure::training_memory(&blocks, &shape).total();
        errors.push(estimate::relative_error(est, actual));
    }
    let mean = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
    Some((k, mean))
}

/// Table III: relative error of the redundancy-aware memory estimator vs
/// the exact measured footprint, for LSTM and mean aggregators.
pub fn tab3(quick: bool) {
    let mut t = Table::new([
        "dataset",
        "cut-off",
        "lstm #batch",
        "lstm error %",
        "mean #batch",
        "mean error %",
    ]);
    let names = if quick {
        vec![DatasetName::Cora, DatasetName::OgbnArxiv]
    } else {
        DatasetName::ALL.to_vec()
    };
    for name in names {
        let w = load_workload(name, quick);
        let mut cells = vec![name.to_string(), "10,25".into()];
        for agg in [AggregatorKind::Lstm, AggregatorKind::Mean] {
            match estimation_error(&w, agg, tab3_batches(name, agg)) {
                Some((k, err)) => {
                    cells.push(k.to_string());
                    cells.push(format!("{:.2}", 100.0 * err));
                }
                None => {
                    cells.push("-".into());
                    cells.push("-".into());
                }
            }
        }
        t.row(cells);
    }
    t.print();
    println!("(paper: error rate below 10.02% in all cases)");
}
