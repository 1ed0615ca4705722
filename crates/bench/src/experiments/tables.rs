//! Table II (dataset characteristics) and Table III (memory estimation
//! error).

use crate::context::{load_workload, Workload};
use crate::output::Table;
use buffalo_bucketing::mem_balanced_grouping;
use buffalo_graph::datasets::{self, DatasetName};
use buffalo_graph::stats;
use buffalo_memsim::{estimate, AggregatorKind};

/// Table II: paper-reported vs measured characteristics of every dataset
/// stand-in (scale factors recorded per dataset).
pub(crate) fn tab2() {
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
fn tab3_batches(name: DatasetName, agg: AggregatorKind) -> usize {
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
/// micro-batch it generates. Returns the mean relative error.
fn estimation_error(w: &Workload, agg: AggregatorKind, k: usize) -> f64 {
    let shape = w.shape(256, agg);
    let entries = w.bucket_entries(&shape, k);
    let outcome =
        mem_balanced_grouping(&entries, k, u64::MAX, w.clustering, shape.parameter_bytes());
    let exact = w.group_memory(&shape, &entries, &outcome.groups);
    let errors: Vec<f64> = (0..k)
        .filter(|&g| !outcome.groups[g].is_empty())
        .map(|g| estimate::relative_error(outcome.group_estimates[g], exact[g]))
        .collect();
    errors.iter().sum::<f64>() / errors.len().max(1) as f64
}

/// Table III: relative error of the redundancy-aware memory estimator vs
/// the exact measured footprint, for LSTM and mean aggregators.
pub(crate) fn tab3(quick: bool) {
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
            let k = tab3_batches(name, agg);
            cells.push(k.to_string());
            cells.push(format!("{:.2}", 100.0 * estimation_error(&w, agg, k)));
        }
        t.row(cells);
    }
    t.print();
    println!("(paper: error rate below 10.02% in all cases)");
}
