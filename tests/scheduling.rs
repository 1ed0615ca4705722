//! Integration tests for the scheduler against real dataset stand-ins:
//! budget sweeps, plan invariants, and estimator quality.

use buffalo::blocks::{Block, BlockWalker};
use buffalo::bucketing::{
    closure_counts, BuffaloScheduler, ClosureScratch, ScheduleError, SchedulePlan,
};
use buffalo::graph::datasets::{self, DatasetName};
use buffalo::graph::{generators, stats, NodeId};
use buffalo::memsim::{estimate, measure, AggregatorKind, GnnShape};
use buffalo::sampling::{BatchSampler, SeedBatches};

struct Fixture {
    batch: buffalo::sampling::Batch,
    shape: GnnShape,
    clustering: f64,
}

fn fixture(name: DatasetName, num_seeds: u32, hidden: usize) -> Fixture {
    let ds = datasets::load(name, 21);
    let clustering = if ds.graph.num_nodes() <= stats::EXACT_CLUSTERING_LIMIT {
        stats::clustering_coefficient_exact(&ds.graph)
    } else {
        stats::clustering_coefficient_sampled(&ds.graph, 5_000, 40, 1)
    };
    let seeds: Vec<NodeId> = (0..num_seeds).collect();
    let batch = BatchSampler::new(vec![10, 25]).sample(&ds.graph, &seeds, 9);
    let shape = GnnShape::new(
        ds.spec.feat_dim,
        hidden,
        2,
        ds.spec.num_classes,
        AggregatorKind::Lstm,
    );
    Fixture {
        batch,
        shape,
        clustering,
    }
}

fn whole_mem(f: &Fixture) -> u64 {
    let blocks = BlockWalker::default().whole_batch(&f.batch.graph, f.batch.num_seeds, 2);
    measure::training_memory(&blocks, &f.shape).total()
}

/// The exact memory of the micro-batch whose output nodes are `group`.
fn group_mem(f: &Fixture, walker: &mut BlockWalker, group: &[NodeId]) -> u64 {
    let blocks = walker.micro_batch(&f.batch.graph, f.batch.num_seeds, group, 2);
    measure::training_memory(&blocks, &f.shape).total()
}

/// The scheduler's `K_max`: a constant of Algorithm 3 here, reported in
/// every [`buffalo::bucketing::ScheduleError`].
const K_MAX: usize = 256;

/// A constraint that leaves `1 / divisor` of the whole batch's activation
/// memory beside the parameters: a perfect packing needs `divisor` groups.
fn activation_fraction(f: &Fixture, divisor: u64) -> u64 {
    let params = f.shape.parameter_bytes();
    params + (whole_mem(f) - params) / divisor
}

#[test]
fn budget_sweep_monotonically_increases_k() {
    let f = fixture(DatasetName::OgbnArxiv, 4_000, 128);
    let scheduler = BuffaloScheduler::new(f.shape.clone(), vec![10, 25], f.clustering);
    let whole = whole_mem(&f);
    let mut last_k = 0usize;
    for divisor in [1u64, 2, 4, 8] {
        let plan = scheduler
            .schedule(&f.batch.graph, f.batch.num_seeds, whole / divisor + 1)
            .unwrap_or_else(|e| panic!("1/{divisor} of whole should be feasible: {e}"));
        assert!(
            plan.k >= last_k,
            "tighter budget produced fewer groups: {last_k} -> {}",
            plan.k
        );
        last_k = plan.k;
    }
    assert!(last_k > 1, "the sweep never forced a split");
}

#[test]
fn every_plan_group_fits_its_budget_exactly_measured() {
    let f = fixture(DatasetName::OgbnArxiv, 4_000, 128);
    let scheduler = BuffaloScheduler::new(f.shape.clone(), vec![10, 25], f.clustering);
    let budget = whole_mem(&f) / 3;
    let plan = scheduler
        .schedule(&f.batch.graph, f.batch.num_seeds, budget)
        .expect("1/3 budget feasible");
    let mut walker = BlockWalker::default();
    for group in plan.groups.iter().filter(|g| !g.is_empty()) {
        let actual = group_mem(&f, &mut walker, group);
        assert!(
            actual <= budget,
            "group of {} outputs measures {actual} over budget {budget}",
            group.len()
        );
    }
}

#[test]
fn plans_partition_seeds_on_every_dataset() {
    for name in [
        DatasetName::Cora,
        DatasetName::Pubmed,
        DatasetName::OgbnPapers,
    ] {
        let f = fixture(name, 1_000, 64);
        let scheduler = BuffaloScheduler::new(f.shape.clone(), vec![10, 25], f.clustering);
        let plan = scheduler
            .schedule(&f.batch.graph, f.batch.num_seeds, whole_mem(&f) / 2 + 1)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut all: Vec<NodeId> = plan.groups.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(
            all,
            (0..f.batch.num_seeds as NodeId).collect::<Vec<_>>(),
            "{name}: groups must partition the seeds"
        );
    }
}

#[test]
fn group_estimates_track_measured_memory() {
    // The Table III property at integration scope: Eq. 2 estimates stay
    // within a reasonable band of the measured footprint.
    let f = fixture(DatasetName::OgbnArxiv, 4_000, 256);
    let scheduler = BuffaloScheduler::new(f.shape.clone(), vec![10, 25], f.clustering);
    let plan = scheduler
        .schedule(&f.batch.graph, f.batch.num_seeds, whole_mem(&f) / 4 + 1)
        .expect("1/4 budget feasible");
    let mut worst = 0.0f64;
    let mut walker = BlockWalker::default();
    for (group, &est) in plan.groups.iter().zip(&plan.group_estimates) {
        if group.is_empty() {
            continue;
        }
        let actual = group_mem(&f, &mut walker, group);
        worst = worst.max(estimate::relative_error(est, actual));
    }
    assert!(worst < 0.35, "worst estimation error {:.1}%", 100.0 * worst);
}

#[test]
fn scheduler_time_stays_interactive() {
    // Scheduling is the thing that makes online training possible; it must
    // be far below the seconds-scale partitioning it replaces.
    let f = fixture(DatasetName::OgbnArxiv, 8_000, 128);
    let scheduler = BuffaloScheduler::new(f.shape.clone(), vec![10, 25], f.clustering);
    let plan = scheduler
        .schedule(&f.batch.graph, f.batch.num_seeds, whole_mem(&f) / 4 + 1)
        .unwrap();
    assert!(
        plan.scheduling_time.as_secs_f64() < 5.0,
        "scheduling took {:?}",
        plan.scheduling_time
    );
}

#[test]
fn k_min_above_k_max_exits_early_with_context() {
    // Parameters are resident in every micro-batch, so a constraint just
    // above them leaves almost no activation room: even a perfect packing
    // would need more than K_max groups. The scheduler must bail out
    // before the K search, with the attempted constraint and the best it
    // could have hoped for — the whole footprint spread over K_max groups
    // — in the error.
    let f = fixture(DatasetName::OgbnArxiv, 4_000, 128);
    let scheduler = BuffaloScheduler::new(f.shape.clone(), vec![10, 25], f.clustering);
    let constraint = activation_fraction(&f, 1_000);
    let err = scheduler
        .schedule(&f.batch.graph, f.batch.num_seeds, constraint)
        .expect_err("0.1% of the activations within K_max groups must be infeasible");
    assert_eq!(err.mem_constraint, constraint);
    assert_eq!(err.k_max, K_MAX);
    assert_eq!(err.best_max_group, whole_mem(&f) / K_MAX as u64);
}

#[test]
fn constraint_at_or_below_parameter_bytes_is_rejected() {
    // Model parameters are resident for every micro-batch, so a constraint
    // that leaves no room for activations can never be met, at any K.
    let f = fixture(DatasetName::Cora, 256, 64);
    let scheduler = BuffaloScheduler::new(f.shape.clone(), vec![10, 25], f.clustering);
    let param_bytes = f.shape.parameter_bytes();
    for constraint in [1, param_bytes / 2, param_bytes] {
        let err = scheduler
            .schedule(&f.batch.graph, f.batch.num_seeds, constraint)
            .expect_err("constraint without activation room must fail");
        assert_eq!(err.mem_constraint, constraint);
        assert_eq!(err.best_max_group, param_bytes);
    }
}

#[test]
fn resplit_group_respects_k_max() {
    // resplit_group runs the same K search from K = 2: a constraint that
    // would need more than K_max groups is the same structured error, not
    // a plan with more groups than Algorithm 3 allows.
    let f = fixture(DatasetName::Cora, 256, 64);
    let scheduler = BuffaloScheduler::new(f.shape.clone(), vec![10, 25], f.clustering);
    let seeds: Vec<NodeId> = (0..f.batch.num_seeds as NodeId).collect();
    let constraint = activation_fraction(&f, 1_000);
    let err = scheduler
        .resplit_group(&f.batch.graph, &seeds, constraint)
        .expect_err("a re-split into more than K_max groups must fail");
    assert_eq!(err.mem_constraint, constraint);
    assert_eq!(err.k_max, K_MAX);
    // With room, the same group re-splits.
    let plan = scheduler
        .resplit_group(&f.batch.graph, &seeds, u64::MAX)
        .unwrap();
    assert!((2..=K_MAX).contains(&plan.k));
}

#[test]
fn train_error_variants_display_and_chain_sources() {
    use buffalo::core::train::{RecoveryAction, RecoveryEvent};
    use buffalo::core::TrainError;
    use buffalo::memsim::OomError;
    use buffalo::partition::BettyError;
    use std::error::Error as _;

    let oom = OomError::new(100, 40, 120);
    let e = TrainError::from(oom.clone());
    assert!(e.to_string().contains("OOM"));
    assert!(e.source().expect("Oom chains").to_string().contains("100"));

    let f = fixture(DatasetName::Cora, 64, 32);
    let scheduler = BuffaloScheduler::new(f.shape.clone(), vec![10, 25], f.clustering);
    let sched_err = scheduler
        .schedule(&f.batch.graph, f.batch.num_seeds, 1)
        .expect_err("1-byte constraint is infeasible");
    let e = TrainError::from(sched_err);
    assert!(e.to_string().contains("scheduling failed"));
    assert!(e
        .source()
        .expect("Schedule chains")
        .to_string()
        .contains("1 bytes"));

    let e = TrainError::from(BettyError::ZeroInDegree { node: 7 });
    assert!(e.to_string().contains("betty"));
    assert!(e.source().expect("Betty chains").to_string().contains('7'));

    let e = TrainError::InvalidMicroBatches {
        requested: 9,
        num_outputs: 3,
    };
    assert!(e.to_string().contains("9"));
    assert!(e.source().is_none(), "InvalidMicroBatches has no cause");

    let events = vec![RecoveryEvent {
        index: 0,
        action: RecoveryAction::Exhausted,
        requested: 100,
        in_use: 40,
        budget: 120,
        transient: false,
    }];
    let e = TrainError::RecoveryExhausted {
        events,
        last: oom.clone(),
    };
    let msg = e.to_string();
    assert!(msg.contains("exhausted after 1 actions"), "got: {msg}");
    let cause = e.source().expect("RecoveryExhausted chains the last OOM");
    assert_eq!(cause.to_string(), oom.to_string());
}

#[test]
fn budget_alone_exhausts_the_k_search() {
    let f = fixture(DatasetName::Cora, 256, 64);
    let scheduler = BuffaloScheduler::new(f.shape.clone(), vec![10, 25], f.clustering);
    // Generous budget: single group.
    let plan = scheduler
        .schedule(&f.batch.graph, f.batch.num_seeds, u64::MAX)
        .unwrap();
    assert_eq!(plan.k, 1);
    // 1/128 of the activations: a perfect packing would fit 128 groups, so
    // the K search runs — and finds that no grouping up to K_max does,
    // because 256 seeds' closures overlap far too much to divide that
    // finely. The error names the K it stopped at and the lightest "worst
    // group" any attempt reached, which is what was still too large.
    let constraint = activation_fraction(&f, 128);
    let err = scheduler
        .schedule(&f.batch.graph, f.batch.num_seeds, constraint)
        .expect_err("nothing up to K_max fits 1/128 of the activations");
    assert_eq!(err.mem_constraint, constraint);
    assert_eq!(err.k_max, K_MAX);
    assert!(
        err.best_max_group > constraint && err.best_max_group < whole_mem(&f),
        "best attempt {} should lie between the constraint {constraint} and the whole batch",
        err.best_max_group
    );
}

/// FNV-1a over everything a plan decides — `k`, `split_explosion`, every
/// group's seeds in order and its estimate — or over the error's fields.
fn plan_digest(outcome: Result<SchedulePlan, ScheduleError>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    match outcome {
        Ok(plan) => {
            eat(plan.k as u64);
            eat(plan.split_explosion as u64);
            for (group, &est) in plan.groups.iter().zip(&plan.group_estimates) {
                eat(group.len() as u64);
                group.iter().for_each(|&v| eat(v as u64));
                eat(est);
            }
        }
        Err(e) => {
            eat(u64::MAX);
            eat(e.mem_constraint);
            eat(e.k_max as u64);
            eat(e.best_max_group);
        }
    }
    h
}

/// Plans pinned at PR 24 (`f9c4f2a`), before the scheduler counted
/// closures on bitsets and read split buckets' counts off their parts:
/// Barabási–Albert batches (sparse `m = 3`, whose seeds spread over
/// every degree bucket, and dense `m = 8`) at depth 2 and 3, budgets of
/// 1/2, 1/3, 1/5 and 1/9 of the whole batch, one re-split each, and the
/// arxiv stand-in. A changed digest is a changed plan.
#[test]
fn plans_reproduce_their_pinned_digests() {
    const PINNED: [u64; 35] = [
        6785200956527273487,
        10770527745219969039,
        10661672087878532485,
        6920924568909189728,
        5935195791028798392,
        2819391802416681648,
        11656512670694220112,
        7660807746255329272,
        9366269677707111833,
        14868385213992598374,
        12563858623387748211,
        11330980738122377726,
        17559632758470738270,
        11065499452608718867,
        15061476183328059448,
        8416747901394210270,
        14684252742425343421,
        3952952148117632554,
        17482712162541758444,
        7110594213280813262,
        10646170188673823499,
        15392388001057698790,
        11428420684946756768,
        1930201786633298662,
        16865331100479597777,
        10427535197403986043,
        11520204440565992027,
        13702124746510940801,
        4735137165368933884,
        9736592641573024223,
        250633158062718966,
        4245489675643978492,
        13486367009548091174,
        11563778916983402169,
        14568468794755845961,
    ];
    let mut got = Vec::new();
    let mut scratch = ClosureScratch::default();
    for (m, graph_seed) in [(3usize, 1u64), (8, 2), (8, 3)] {
        let g = generators::barabasi_albert(3_000, m, 0.5, graph_seed).unwrap();
        let seeds: Vec<NodeId> = (0..800).collect();
        for fanouts in [vec![10, 25], vec![10, 15, 5]] {
            let depth = fanouts.len();
            let batch = BatchSampler::new(fanouts.clone()).sample(&g, &seeds, graph_seed + 10);
            let shape = GnnShape::new(128, 128, depth, 16, AggregatorKind::Lstm);
            let whole = estimate::mem_from_counts(
                &closure_counts(&batch.graph, &seeds, depth, &mut scratch),
                &shape,
            );
            let scheduler = BuffaloScheduler::new(shape, fanouts, 0.3);
            for divisor in [2, 3, 5, 9] {
                got.push(plan_digest(scheduler.schedule(
                    &batch.graph,
                    batch.num_seeds,
                    whole / divisor,
                )));
            }
            got.push(plan_digest(scheduler.resplit_group(
                &batch.graph,
                &seeds[100..700],
                whole / 4,
            )));
        }
    }
    let f = fixture(DatasetName::OgbnArxiv, 4_000, 128);
    let scheduler = BuffaloScheduler::new(f.shape.clone(), vec![10, 25], f.clustering);
    let whole = whole_mem(&f);
    for divisor in [2, 3, 5, 9] {
        got.push(plan_digest(scheduler.schedule(
            &f.batch.graph,
            f.batch.num_seeds,
            whole / divisor,
        )));
    }
    let seeds: Vec<NodeId> = (0..f.batch.num_seeds as NodeId).rev().step_by(2).collect();
    got.push(plan_digest(scheduler.resplit_group(
        &f.batch.graph,
        &seeds,
        whole / 6,
    )));
    assert_eq!(got, PINNED);
}

/// FNV-1a over the blocks of every walk: per block its `(num_dst,
/// num_src)`, its `src_nodes` and every `src_positions` row.
fn blocks_digest(walks: impl IntoIterator<Item = Vec<Block>>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u32| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for blocks in walks {
        for block in &blocks {
            eat(block.num_dst() as u32);
            eat(block.num_src() as u32);
            block.src_nodes().iter().for_each(|&v| eat(v));
            for i in 0..block.num_dst() {
                let row = block.src_positions(i);
                eat(row.len() as u32);
                row.iter().for_each(|&p| eat(p));
            }
        }
    }
    h
}

/// Blocks pinned before the walker copied a hop's rows ahead of mapping
/// them to positions: the products stand-in at the standing benchmark's
/// quick size, planned under its 1 GiB budget, one walker over every
/// group; the whole of a 1 024-seed arxiv batch; and depth-3 micro-batches
/// of unsorted groups on a Barabási–Albert batch. A changed digest is a
/// changed block.
#[test]
fn walker_blocks_reproduce_their_pinned_digests() {
    const PINNED: [u64; 3] = [
        12086596959218156218,
        18221114764321503433,
        18274280159877355362,
    ];
    let mut walker = BlockWalker::default();

    let ds = datasets::load(DatasetName::OgbnProducts, 42);
    let clustering = stats::clustering_coefficient_sampled(&ds.graph, 10_000, 50, 1);
    let seeds = SeedBatches::new(18_000, 9_000, 42);
    let batch = BatchSampler::new(vec![10, 25]).sample(&ds.graph, seeds.batch(0), 42);
    let shape = GnnShape::new(
        ds.spec.feat_dim,
        512,
        2,
        ds.spec.num_classes,
        AggregatorKind::Lstm,
    );
    let plan = BuffaloScheduler::new(shape, vec![10, 25], clustering)
        .schedule(&batch.graph, batch.num_seeds, 1 << 30)
        .expect("the benchmark's quick budget is feasible");
    assert!(plan.k > 1, "the quick budget must split the batch");
    let products = blocks_digest(
        plan.groups
            .iter()
            .filter(|g| !g.is_empty())
            .map(|g| walker.micro_batch(&batch.graph, batch.num_seeds, g, 2)),
    );

    let f = fixture(DatasetName::OgbnArxiv, 1_024, 128);
    let arxiv = blocks_digest([walker.whole_batch(&f.batch.graph, f.batch.num_seeds, 2)]);

    let g = generators::barabasi_albert(3_000, 8, 0.5, 2).unwrap();
    let seeds: Vec<NodeId> = (0..800).collect();
    let batch = BatchSampler::new(vec![10, 15, 5]).sample(&g, &seeds, 12);
    let order: Vec<NodeId> = (0..800).map(|i| i * 337 % 800).collect();
    let ba = blocks_digest(
        order
            .chunks(130)
            .map(|group| walker.micro_batch(&batch.graph, batch.num_seeds, group, 3)),
    );

    assert_eq!([products, arxiv, ba], PINNED);
}
