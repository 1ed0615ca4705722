//! Ablation studies for the design decisions DESIGN.md calls out:
//! grouping policy, redundancy-aware vs linear estimation, and
//! output-layer vs non-output-layer partitioning.

use crate::context::load_workload;
use crate::output::{mem, Table};
use buffalo_blocks::{generate_blocks_fast, GenerateOptions};
use buffalo_bucketing::{
    closure_counts, degree_bucketing, detect_explosion, split_explosion_bucket, BucketEntry,
    ClosureScratch,
};
use buffalo_graph::datasets::DatasetName;
use buffalo_graph::NodeId;
use buffalo_memsim::estimate::{grouping_ratio, mem_from_counts, BucketStats};
use buffalo_memsim::{measure, AggregatorKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn build_entries(
    w: &crate::context::Workload,
    shape: &buffalo_memsim::GnnShape,
    split_k: usize,
) -> Vec<BucketEntry> {
    let base = degree_bucketing(&w.batch.graph, w.batch.num_seeds, w.fanouts[0]);
    let explosion = detect_explosion(&base, 2.0);
    let mut buckets = Vec::new();
    for (i, b) in base.iter().enumerate() {
        if Some(i) == explosion && split_k > 1 {
            buckets.extend(split_explosion_bucket(b, split_k));
        } else {
            buckets.push(b.clone());
        }
    }
    let mut scratch = ClosureScratch::default();
    buckets
        .into_iter()
        .map(|bucket| {
            let counts = closure_counts(
                &w.batch.graph,
                &bucket.nodes,
                shape.num_layers,
                &mut scratch,
            );
            let stats = BucketStats {
                degree: bucket.degree,
                num_output: bucket.volume(),
                num_input: counts.output_layer_inputs(),
            };
            let mem_estimate = mem_from_counts(&counts, shape);
            BucketEntry {
                bucket,
                stats,
                mem_estimate,
            }
        })
        .collect()
}

/// Places entries into `k` groups with one of three policies, returning
/// per-group discounted estimates.
///
/// * `greedy-desc` — Buffalo: sort descending, place into lightest group.
/// * `first-fit` — arrival order, place into the first group whose load
///   stays under the ideal share (classic first-fit with a capacity hint).
/// * `random` — place each bucket into a uniformly random group.
fn place(entries: &[BucketEntry], k: usize, clustering: f64, policy: &str) -> Vec<u64> {
    let mut order: Vec<usize> = (0..entries.len()).collect();
    if policy == "greedy-desc" {
        order.sort_by_key(|&i| std::cmp::Reverse(entries[i].mem_estimate));
    }
    let total: u64 = entries.iter().map(|e| e.mem_estimate).sum();
    let share = total / k as u64 + 1;
    let mut rng = StdRng::seed_from_u64(99);
    let mut loads = vec![0u64; k];
    for idx in order {
        let contribution = (entries[idx].mem_estimate as f64
            * grouping_ratio(&entries[idx].stats, clustering)) as u64;
        let gi = match policy {
            "first-fit" => loads
                .iter()
                .position(|&l| l + contribution <= share)
                .unwrap_or_else(|| {
                    loads
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, &l)| l)
                        .map(|(i, _)| i)
                        .unwrap()
                }),
            "random" => rng.gen_range(0..k),
            "greedy-desc" => loads
                .iter()
                .enumerate()
                .min_by_key(|&(_, &l)| l)
                .map(|(i, _)| i)
                .unwrap(),
            other => panic!("unknown policy {other}"),
        };
        loads[gi] += contribution;
    }
    loads
}

/// Grouping-policy ablation: greedy-descending (Buffalo) vs first-fit vs
/// random placement — max group size and imbalance. Uses the coarse
/// bucket granularity (explosion split into `k/2` parts) so item sizes
/// vary, as they do when the scheduler first probes a small `K`.
pub fn grouping(quick: bool) {
    let w = load_workload(DatasetName::OgbnProducts, quick);
    let shape = w.shape(256, AggregatorKind::Lstm);
    let k = 4;
    let entries = build_entries(&w, &shape, 3 * k);
    let mut t = Table::new(["policy", "max group", "min group", "imbalance %"]);
    for policy in ["greedy-desc", "first-fit", "random"] {
        let loads = place(&entries, k, w.clustering, policy);
        let max = *loads.iter().max().unwrap();
        let min = *loads.iter().min().unwrap();
        t.row([
            policy.into(),
            mem(max),
            mem(min),
            format!("{:.1}", 100.0 * (max - min) as f64 / max.max(1) as f64),
        ]);
    }
    t.print();
    println!(
        "(greedy-descending should dominate: smallest max group -> smallest K satisfies a budget)"
    );
}

/// Estimator ablation: redundancy-aware (Eq. 2) vs linear-sum group
/// estimates against the measured footprint of each group. Runs on the
/// Reddit stand-in, whose high clustering coefficient (≈0.6) activates
/// the `R_group < 1` discount that low-clustering graphs never trigger.
pub fn estimator(quick: bool) {
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
    let entries = build_entries(&w, &shape, 3 * k);
    // Greedy placement, tracking members per group.
    let mut order: Vec<usize> = (0..entries.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(entries[i].mem_estimate));
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut loads = vec![0u64; k];
    for idx in order {
        let gi = loads
            .iter()
            .enumerate()
            .min_by_key(|&(_, &l)| l)
            .map(|(i, _)| i)
            .unwrap();
        groups[gi].push(idx);
        loads[gi] += (entries[idx].mem_estimate as f64
            * grouping_ratio(&entries[idx].stats, w.clustering)) as u64;
    }
    let mut t = Table::new([
        "group",
        "actual",
        "redundancy-aware est",
        "err %",
        "linear-sum est",
        "err %",
    ]);
    let (mut e_aware, mut e_linear) = (0.0f64, 0.0f64);
    for (gi, members) in groups.iter().enumerate() {
        let seeds: Vec<NodeId> = members
            .iter()
            .flat_map(|&i| entries[i].bucket.nodes.iter().copied())
            .collect();
        if seeds.is_empty() {
            continue;
        }
        let micro = w.batch.restrict_to_seeds(&seeds);
        let blocks = generate_blocks_fast(
            &micro.graph,
            micro.num_seeds,
            shape.num_layers,
            GenerateOptions::default(),
        );
        let actual = measure::training_memory(&blocks, &shape).total();
        let aware: u64 = members
            .iter()
            .map(|&i| {
                (entries[i].mem_estimate as f64 * grouping_ratio(&entries[i].stats, w.clustering))
                    as u64
            })
            .sum();
        let linear: u64 = members.iter().map(|&i| entries[i].mem_estimate).sum();
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
pub fn layer(quick: bool) {
    let w = load_workload(DatasetName::OgbnArxiv, quick);
    let depth = w.fanouts.len();
    let k = 4;
    // Output-layer partitioning: restrict_to_seeds pulls the complete
    // dependency closure, so by construction zero dependencies are lost.
    let per = w.batch.num_seeds / k;
    let mut missing_output_layer = 0usize;
    let mut kept_nodes = 0usize;
    for g in 0..k {
        let seeds: Vec<NodeId> =
            ((g * per) as NodeId..((g + 1) * per).min(w.batch.num_seeds) as NodeId).collect();
        let micro = w.batch.restrict_to_seeds(&seeds);
        kept_nodes += micro.num_nodes();
        // Every sampled in-edge of every kept node within depth must be
        // present; count any that are not.
        for v in 0..micro.num_seeds as NodeId {
            missing_output_layer +=
                (w.batch.graph.degree(seeds[v as usize]) != micro.graph.degree(v)) as usize;
        }
    }
    // Non-output-layer partitioning: split the layer-1 frontier instead;
    // count layer-2 destinations whose layer-1 dependencies land in a
    // different partition (Figure 8's "missing dependencies").
    let frontier = &w.batch.layer_frontiers[1];
    let mut part_of = vec![usize::MAX; w.batch.num_nodes()];
    for (i, &v) in frontier.iter().enumerate() {
        part_of[v as usize] = i * k / frontier.len().max(1);
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
pub fn pipeline(quick: bool) {
    use crate::output::secs;
    use buffalo_core::sim::{simulate_iteration, SimContext, Strategy};
    use buffalo_memsim::{CostModel, DeviceMemory};
    let cost = CostModel::rtx6000();
    let mut t = Table::new(["dataset", "K", "serial", "pipelined", "saved %"]);
    for name in [
        DatasetName::OgbnArxiv,
        DatasetName::OgbnProducts,
        DatasetName::OgbnPapers,
    ] {
        let w = load_workload(name, quick);
        let shape = w.shape(128, AggregatorKind::Lstm);
        let ctx = SimContext {
            shape: &shape,
            fanouts: &w.fanouts,
            clustering: w.clustering,
            original: &w.dataset.graph,
        };
        let unlimited = DeviceMemory::new(u64::MAX);
        let whole = simulate_iteration(&w.batch, ctx, Strategy::Full, &unlimited, &cost)
            .expect("unlimited device");
        let budget = DeviceMemory::new((whole.peak_mem_bytes / 8).max(1) * 13 / 10);
        match simulate_iteration(&w.batch, ctx, Strategy::Buffalo, &budget, &cost) {
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
                t.row([
                    name.to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!("{e}"),
                ]);
            }
        }
    }
    t.print();
    println!("(the schedule exists before the first micro-batch runs, so preparation");
    println!("of micro-batch i+1 can hide behind device work of micro-batch i)");
}
