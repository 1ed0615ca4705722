//! Integration tests for the scheduler against real dataset stand-ins:
//! budget sweeps, plan invariants, and estimator quality.

use buffalo::blocks::{generate_blocks_fast, GenerateOptions};
use buffalo::bucketing::BuffaloScheduler;
use buffalo::graph::datasets::{self, DatasetName};
use buffalo::graph::{stats, NodeId};
use buffalo::memsim::{estimate, measure, AggregatorKind, GnnShape};
use buffalo::sampling::BatchSampler;

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
    let blocks = generate_blocks_fast(
        &f.batch.graph,
        f.batch.num_seeds,
        2,
        GenerateOptions::default(),
    );
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
    for group in plan.groups.iter().filter(|g| !g.is_empty()) {
        let micro = f.batch.restrict_to_seeds(group);
        let blocks =
            generate_blocks_fast(&micro.graph, micro.num_seeds, 2, GenerateOptions::default());
        let actual = measure::training_memory(&blocks, &f.shape).total();
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
    for (group, &est) in plan.groups.iter().zip(&plan.group_estimates) {
        if group.is_empty() {
            continue;
        }
        let micro = f.batch.restrict_to_seeds(group);
        let blocks =
            generate_blocks_fast(&micro.graph, micro.num_seeds, 2, GenerateOptions::default());
        let actual = measure::training_memory(&blocks, &f.shape).total();
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
