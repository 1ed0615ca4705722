//! Figure 10 (compute-vs-memory Pareto frontier), Figure 14 (load
//! balance), Figure 15 (bucket-group size vs memory budget), and Figure 16
//! (computation efficiency).

use crate::context::{gib, gib_bytes, load_workload, RTX6000_GIB, UNLIMITED};
use crate::output::{mem, secs, Table};
use buffalo_core::sim::{SimReport, Strategy};
use buffalo_core::TrainError;
use buffalo_graph::datasets::DatasetName;
use buffalo_memsim::{AggregatorKind, CostModel};

/// Figure 10: end-to-end iteration time and peak CUDA memory with varying
/// numbers of micro-batches, for DGL/PyG (no partitioning), Betty, and
/// Buffalo, under the 24 GB budget.
pub(crate) fn fig10(quick: bool) {
    let cost = CostModel::rtx6000();
    let ks: &[usize] = if quick { &[2, 8] } else { &[2, 4, 8, 16, 32] };
    let datasets = if quick {
        vec![DatasetName::Cora, DatasetName::OgbnArxiv]
    } else {
        vec![
            DatasetName::Cora,
            DatasetName::Pubmed,
            DatasetName::Reddit,
            DatasetName::OgbnArxiv,
            DatasetName::OgbnProducts,
        ]
    };
    let mut t = Table::new([
        "dataset",
        "system",
        "micro-batches",
        "iteration time",
        "peak memory",
        "status",
    ]);
    for name in datasets {
        let w = load_workload(name, quick);
        let shape = w.default_shape();
        // DGL/PyG: whole batch against the 24 GB budget.
        let whole = w.probe(&shape, &cost);
        let fits = gib(whole.peak_mem_bytes) <= RTX6000_GIB;
        t.row([
            name.to_string(),
            "dgl/pyg".into(),
            "1".into(),
            if fits {
                secs(whole.phases.total())
            } else {
                "-".into()
            },
            mem(whole.peak_mem_bytes),
            if fits { "ok" } else { "OOM" }.into(),
        ]);
        let ok = |system: &str, k: usize, rep: &SimReport| {
            let lead = [name.to_string(), system.into(), k.to_string()];
            lead.into_iter().chain([
                secs(rep.phases.total()),
                mem(rep.peak_mem_bytes),
                "ok".into(),
            ])
        };
        // Buffalo at the paper's actual 24 GB budget: the scheduler picks
        // its own K (1 when the batch already fits).
        match w.simulate(&shape, Strategy::Buffalo, gib_bytes(RTX6000_GIB), &cost) {
            Ok(rep) => {
                t.row(ok("buffalo@24GB", rep.num_micro_batches, &rep));
            }
            Err(e) => {
                t.failed(
                    [name.to_string(), "buffalo@24GB".into()],
                    format!("failed ({e})"),
                );
            }
        }
        for &k in ks {
            if k > w.batch.num_seeds {
                continue;
            }
            // Betty at exactly k micro-batches.
            match w.simulate(&shape, Strategy::Betty { k }, UNLIMITED, &cost) {
                Ok(rep) => {
                    t.row(ok("betty", k, &rep));
                }
                Err(e) => {
                    let lead = [name.to_string(), "betty".into(), k.to_string()];
                    t.failed(lead, format!("no data ({e})"));
                }
            }
            // Buffalo with a budget that targets ~k micro-batches.
            let budget = (whole.peak_mem_bytes / k as u64).max(1) * 11 / 10;
            match w.simulate(&shape, Strategy::Buffalo, budget, &cost) {
                Ok(rep) => {
                    t.row(ok("buffalo", rep.num_micro_batches, &rep));
                }
                Err(e) => {
                    let status = match e {
                        TrainError::Schedule(e) => format!("infeasible ({e})"),
                        e => format!("failed ({e})"),
                    };
                    let lead = [name.to_string(), "buffalo".into(), format!("target {k}")];
                    t.failed(lead, status);
                }
            }
        }
    }
    t.print();
}

/// Figure 14: memory consumption of every micro-batch after Buffalo
/// scheduling — the paper reports a 4–6 % spread.
pub(crate) fn fig14(quick: bool) {
    let cost = CostModel::rtx6000();
    let mut t = Table::new(["dataset", "micro-batches", "min", "max", "spread %"]);
    for (name, k) in [
        (DatasetName::OgbnArxiv, 4u64),
        (DatasetName::OgbnProducts, 12),
        (DatasetName::OgbnPapers, 8),
    ] {
        let w = load_workload(name, quick);
        let shape = w.default_shape();
        let whole = w.probe(&shape, &cost);
        let budget = (whole.peak_mem_bytes / k).max(1) * 13 / 10;
        match w.simulate(&shape, Strategy::Buffalo, budget, &cost) {
            Ok(rep) => {
                let max = *rep.per_micro_mem.iter().max().unwrap();
                let min = *rep.per_micro_mem.iter().min().unwrap();
                t.row([
                    name.to_string(),
                    rep.num_micro_batches.to_string(),
                    mem(min),
                    mem(max),
                    format!("{:.1}", 100.0 * (max - min) as f64 / max as f64),
                ]);
            }
            Err(e) => {
                t.failed([name.to_string()], format!("failed: {e}"));
            }
        }
    }
    t.print();
    println!("(paper: 4-6% spread across micro-batches)");
}

/// Figure 15: bucket-group size vs memory budget (16/24/48/80 GB, A100).
pub(crate) fn fig15(quick: bool) {
    let cost = CostModel::a100_80gb();
    let w = load_workload(DatasetName::OgbnProducts, quick);
    // A heavier model than the default so even 80 GB is interesting
    // (the paper's products batch exceeds 80 GB at its full scale).
    let shape = w.shape(4096, AggregatorKind::Lstm);
    let mut t = Table::new([
        "budget",
        "micro-batches",
        "avg group size (outputs)",
        "peak memory",
        "iteration time",
    ]);
    for budget_gib in [16.0f64, 24.0, 48.0, 80.0] {
        let label = format!("{budget_gib:.0}GB");
        match w.simulate(&shape, Strategy::Buffalo, gib_bytes(budget_gib), &cost) {
            Ok(rep) => {
                t.row([
                    label,
                    rep.num_micro_batches.to_string(),
                    (w.batch.num_seeds / rep.num_micro_batches.max(1)).to_string(),
                    mem(rep.peak_mem_bytes),
                    secs(rep.phases.total()),
                ]);
            }
            Err(e) => {
                t.failed([label], format!("failed: {e}"));
            }
        }
    }
    t.print();
    println!("(paper: larger budgets -> larger bucket groups -> shorter training)");
}

/// Figure 16: computation efficiency (nodes processed per second of
/// iteration time) for Random/Range/METIS/Betty vs Buffalo.
///
/// Every strategy must fit the same memory budget; the batch-level
/// baselines increase their micro-batch count until every micro-batch
/// fits, exactly as the paper describes ("Buffalo completes training
/// using 12 micro-batches while Random and Range require 14").
pub(crate) fn fig16(quick: bool) {
    let cost = CostModel::rtx6000();
    let w = load_workload(DatasetName::OgbnProducts, quick);
    let shape = w.default_shape();
    let whole = w.probe(&shape, &cost);
    let budget = (whole.peak_mem_bytes / 8).max(1) * 11 / 10;
    let mut t = Table::new([
        "strategy",
        "micro-batches",
        "total nodes",
        "iteration time",
        "nodes/s",
    ]);
    type Make = fn(usize) -> Strategy;
    // The minimum K at which a fixed-K strategy fits the budget, or why
    // none up to one seed per micro-batch does.
    let fit = |make: Make| {
        let mut k = 2;
        loop {
            match w.simulate(&shape, make(k), budget, &cost) {
                Err(TrainError::Oom(_)) if k < w.batch.num_seeds => k += 1,
                result => return result,
            }
        }
    };
    let baselines: [(&str, Make); 4] = [
        ("random", |k| Strategy::Random { k, seed: 7 }),
        ("range", |k| Strategy::Range { k }),
        ("metis", |k| Strategy::Metis { k }),
        ("betty", |k| Strategy::Betty { k }),
    ];
    let runs = baselines.into_iter().map(|(name, make)| (name, fit(make)));
    let buffalo = || {
        (
            "buffalo",
            w.simulate(&shape, Strategy::Buffalo, budget, &cost),
        )
    };
    let (mut best_baseline, mut buffalo_eff) = (0.0f64, 0.0f64);
    for (name, result) in runs.chain(std::iter::once_with(buffalo)) {
        match result {
            Ok(rep) => {
                let eff = rep.computation_efficiency();
                if name == "buffalo" {
                    buffalo_eff = eff;
                } else {
                    best_baseline = best_baseline.max(eff);
                }
                t.row([
                    name.into(),
                    rep.num_micro_batches.to_string(),
                    rep.total_nodes.to_string(),
                    secs(rep.phases.total()),
                    format!("{eff:.0}"),
                ]);
            }
            Err(e) => {
                t.failed([name], format!("failed: {e}"));
            }
        }
    }
    t.print();
    if best_baseline > 0.0 && buffalo_eff > 0.0 {
        println!(
            "Buffalo vs best baseline: {:+.1}% (paper: +36.4%)",
            100.0 * (buffalo_eff - best_baseline) / best_baseline
        );
    }
}
