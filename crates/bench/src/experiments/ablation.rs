//! Ablation studies for the design decisions DESIGN.md calls out:
//! grouping policy, redundancy-aware vs linear estimation, and
//! output-layer vs non-output-layer partitioning.

use crate::context::load_workload;
use crate::output::{mem, secs, Table};
use buffalo_blocks::BlockWalker;
use buffalo_bucketing::{mem_balanced_grouping, BucketEntry};
use buffalo_core::sim::Strategy;
use buffalo_graph::datasets::DatasetName;
use buffalo_graph::NodeId;
use buffalo_memsim::{AggregatorKind, CostModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Places `entries` into `k` groups with one of three policies, returning
/// each group's entry indices:
///
/// * `greedy-desc` — Buffalo: Algorithm 4, [`mem_balanced_grouping`].
/// * `first-fit` — arrival order, place into the first group whose load
///   of entry estimates stays under the ideal share (classic first-fit
///   with a capacity hint).
/// * `random` — place each bucket into a uniformly random group.
fn place(entries: &[BucketEntry], k: usize, clustering: f64, policy: &str) -> Vec<Vec<usize>> {
    if policy == "greedy-desc" {
        return mem_balanced_grouping(entries, k, u64::MAX, clustering, 0).groups;
    }
    let share = entries.iter().map(|e| e.mem_estimate).sum::<u64>() / k as u64 + 1;
    let mut rng = StdRng::seed_from_u64(99);
    let mut loads = vec![0u64; k];
    let mut groups = vec![Vec::new(); k];
    for (idx, entry) in entries.iter().enumerate() {
        let gi = match policy {
            "first-fit" => (0..k)
                .find(|&g| loads[g] + entry.mem_estimate <= share)
                .or_else(|| (0..k).min_by_key(|&g| loads[g]))
                .unwrap(),
            "random" => rng.gen_range(0..k),
            other => panic!("unknown policy {other}"),
        };
        loads[gi] += entry.mem_estimate;
        groups[gi].push(idx);
    }
    groups
}

/// Grouping-policy ablation: greedy-descending (Buffalo) vs first-fit vs
/// random placement — the exact footprint of the largest and smallest
/// group's micro-batch, and their imbalance. Uses the coarse bucket
/// granularity (explosion split into `3k` parts) so item sizes vary, as
/// they do when the scheduler first probes a small `K`.
pub(crate) fn grouping(quick: bool) {
    let w = load_workload(DatasetName::OgbnProducts, quick);
    let shape = w.shape(256, AggregatorKind::Lstm);
    let k = 4;
    let entries = w.bucket_entries(&shape, 3 * k);
    let mut t = Table::new(["policy", "max group", "min group", "imbalance %"]);
    for policy in ["greedy-desc", "first-fit", "random"] {
        let groups = place(&entries, k, w.clustering, policy);
        let exact = w.group_memory(&shape, &entries, &groups);
        let max = *exact.iter().max().unwrap();
        let min = *exact.iter().min().unwrap();
        t.row([
            policy.into(),
            mem(max),
            mem(min),
            format!("{:.1}", 100.0 * (max - min) as f64 / max.max(1) as f64),
        ]);
    }
    t.print();
    println!("(exact footprints: the smallest max group lets the smallest K satisfy a budget)");
}

/// Estimator ablation: Algorithm 4's redundancy-aware (Eq. 2) group
/// estimates vs linear-sum ones against the exact footprint of each
/// group. Runs on the Reddit stand-in, whose high clustering coefficient
/// (≈0.6) activates the `R_group < 1` discount that low-clustering graphs
/// never trigger.
pub(crate) fn estimator(quick: bool) {
    let mut w = load_workload(DatasetName::Reddit, quick);
    // Re-sample with *community-ordered* seeds (consecutive ids group
    // whole communities): buckets then share most of their inputs with
    // their neighbors in the bucket, the regime where Eq. 1's discount is
    // live. Shuffled seeds scatter communities and the ratio caps at 1.
    let seeds: Vec<NodeId> = (0..w.batch.num_seeds as NodeId).collect();
    w.batch =
        buffalo_sampling::BatchSampler::new(w.fanouts.clone()).sample(&w.dataset.graph, &seeds, 7);
    let shape = w.shape(256, AggregatorKind::Lstm);
    let k = 4;
    let entries = w.bucket_entries(&shape, 3 * k);
    let params = shape.parameter_bytes();
    let outcome = mem_balanced_grouping(&entries, k, u64::MAX, w.clustering, params);
    let exact = w.group_memory(&shape, &entries, &outcome.groups);
    let mut t = Table::new([
        "group",
        "actual",
        "redundancy-aware est",
        "err %",
        "linear-sum est",
        "err %",
    ]);
    let (mut e_aware, mut e_linear) = (0.0f64, 0.0f64);
    for (gi, members) in outcome.groups.iter().enumerate() {
        if members.is_empty() {
            continue;
        }
        let (actual, aware) = (exact[gi], outcome.group_estimates[gi]);
        // Entry estimates leave the parameters out; a group pays them once.
        let linear = params
            + members
                .iter()
                .map(|&i| entries[i].mem_estimate)
                .sum::<u64>();
        let ea = 100.0 * (aware as f64 - actual as f64).abs() / actual as f64;
        let el = 100.0 * (linear as f64 - actual as f64).abs() / actual as f64;
        e_aware += ea;
        e_linear += el;
        t.row([
            gi.to_string(),
            mem(actual),
            mem(aware),
            format!("{ea:.1}"),
            mem(linear),
            format!("{el:.1}"),
        ]);
    }
    t.print();
    println!(
        "mean error: redundancy-aware {:.1}% vs linear {:.1}%",
        e_aware / k as f64,
        e_linear / k as f64
    );
    println!("(linear summing always over-predicts, wasting budget; the Eq. 1 discount");
    println!("engages under clustered seed orders and can overshoot into under-prediction —");
    println!("which is why BuffaloScheduler re-validates every group with exact closure");
    println!("counts before accepting a plan: see BuffaloScheduler::schedule)");
}

/// Partition-layer ablation (§IV-B, Figure 8): partitioning at a
/// non-output layer leaves cross-partition dependencies that block
/// gradient accumulation; partitioning at the output layer leaves none.
pub(crate) fn layer(quick: bool) {
    let w = load_workload(DatasetName::OgbnArxiv, quick);
    let depth = w.fanouts.len();
    let k = 4;
    // Output-layer partitioning: a micro-batch's blocks are walked off the
    // batch's rows, so by construction zero dependencies are lost.
    let per = w.batch.num_seeds / k;
    let mut missing_output_layer = 0usize;
    let mut kept_nodes = 0usize;
    let mut walker = BlockWalker::default();
    for g in 0..k {
        let seeds: Vec<NodeId> =
            ((g * per) as NodeId..((g + 1) * per).min(w.batch.num_seeds) as NodeId).collect();
        let blocks = walker.micro_batch(&w.batch.graph, w.batch.num_seeds, &seeds, depth);
        // The input layer's sources are the micro-batch's whole closure.
        kept_nodes += blocks[0].num_src();
        // Every sampled in-edge of every output node must be present;
        // count any that are not.
        let out = &blocks[depth - 1];
        for (i, &s) in out.dst_nodes().iter().enumerate() {
            missing_output_layer += (w.batch.graph.degree(s) != out.in_degree(i)) as usize;
        }
    }
    // Non-output-layer partitioning: split the layer-1 frontier instead;
    // count layer-2 destinations whose layer-1 dependencies land in a
    // different partition (Figure 8's "missing dependencies"). In a
    // sampled batch that frontier is the id range after the seeds up to
    // one past the largest id in the seeds' rows.
    let num_seeds = w.batch.num_seeds;
    let seed_rows = &w.batch.graph.neighbor_array()[..w.batch.graph.offsets()[num_seeds]];
    let end1 = seed_rows
        .iter()
        .map(|&u| u as usize + 1)
        .max()
        .unwrap_or(0)
        .max(num_seeds);
    let frontier_len = end1 - num_seeds;
    let mut part_of = vec![usize::MAX; w.batch.num_nodes()];
    for (i, p) in part_of[num_seeds..end1].iter_mut().enumerate() {
        *p = i * k / frontier_len.max(1);
    }
    let mut missing_inner_layer = 0usize;
    for s in 0..w.batch.num_seeds as NodeId {
        let mut parts_seen = [false; 64];
        for &u in w.batch.graph.neighbors(s) {
            let p = part_of[u as usize];
            if p != usize::MAX {
                parts_seen[p.min(63)] = true;
            }
        }
        let spread = parts_seen.iter().filter(|&&x| x).count();
        if spread > 1 {
            // This output node depends on buckets in `spread` partitions:
            // all but one are missing at training time.
            missing_inner_layer += spread - 1;
        }
    }
    let mut t = Table::new(["partition layer", "missing dependencies", "note"]);
    t.row([
        format!("output (layer {depth})"),
        missing_output_layer.to_string(),
        "gradient accumulation valid".into(),
    ]);
    t.row([
        format!("non-output (layer {})", depth - 1),
        missing_inner_layer.to_string(),
        "blocks gradient accumulation".into(),
    ]);
    t.print();
    println!("(kept {kept_nodes} nodes across output-layer micro-batches; paper §IV-B)");
}

/// Pipelining ablation: double-buffered execution overlaps micro-batch
/// `i + 1`'s CPU preparation with micro-batch `i`'s device work — the
/// optimization the paper's related work (§II-B) applies and Buffalo
/// composes with, because its plan is known up front.
pub(crate) fn pipeline(quick: bool) {
    let cost = CostModel::rtx6000();
    let mut t = Table::new(["dataset", "K", "serial", "pipelined", "saved %"]);
    for name in [
        DatasetName::OgbnArxiv,
        DatasetName::OgbnProducts,
        DatasetName::OgbnPapers,
    ] {
        let w = load_workload(name, quick);
        let shape = w.shape(128, AggregatorKind::Lstm);
        let whole = w.probe(&shape, &cost);
        let budget = (whole.peak_mem_bytes / 8).max(1) * 13 / 10;
        match w.simulate(&shape, Strategy::Buffalo, budget, &cost) {
            Ok(rep) => {
                let serial = rep.phases.total();
                let pipelined = rep.pipelined_total();
                t.row([
                    name.to_string(),
                    rep.num_micro_batches.to_string(),
                    secs(serial),
                    secs(pipelined),
                    format!("{:.1}", 100.0 * (serial - pipelined) / serial),
                ]);
            }
            Err(e) => {
                t.failed([name.to_string()], e.to_string());
            }
        }
    }
    t.print();
    println!("(the schedule exists before the first micro-batch runs, so preparation");
    println!("of micro-batch i+1 can hide behind device work of micro-batch i)");
}
