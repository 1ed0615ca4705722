//! Cross-crate property tests: invariants of the full
//! sample → bucket → schedule → extract → generate pipeline under random
//! graphs, seed sets, and budgets.

use buffalo::blocks::{generate_blocks_checked, BlockWalker};
use buffalo::bucketing::{closure_counts, BuffaloScheduler, ClosureScratch};
use buffalo::core::checkpoint::TrainerState;
use buffalo::core::serve::{serve_trace, RequestTrace, ServeConfig};
use buffalo::core::train::{evaluate, Engine, TrainConfig};
use buffalo::graph::datasets::{self, DatasetName};
use buffalo::graph::{generators, NodeId};
use buffalo::memsim::estimate::mem_from_counts;
use buffalo::memsim::{
    measure, AggregatorKind, CostModel, DeviceMemory, DeviceTimeline, GnnShape, StageTimings,
};
use buffalo::sampling::BatchSampler;
use proptest::collection::vec;
use proptest::prelude::*;

fn shape() -> GnnShape {
    GnnShape::new(32, 32, 2, 8, AggregatorKind::Lstm)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any random power-law graph, any seed set, and any feasible
    /// budget, a returned plan (a) partitions the seeds, (b) every group's
    /// measured micro-batch memory fits the budget, (c) the plan is
    /// deterministic.
    #[test]
    fn schedule_plan_invariants(
        n in 300usize..1_500,
        num_seeds in 30usize..200,
        divisor in 1u64..6,
        graph_seed in 0u64..50,
    ) {
        let g = generators::barabasi_albert(n, 4, 0.3, graph_seed).unwrap();
        let seeds: Vec<NodeId> = (0..num_seeds.min(n) as NodeId).collect();
        let batch = BatchSampler::new(vec![6, 8]).sample(&g, &seeds, 3);
        let shape = shape();
        let mut scratch = ClosureScratch::default();
        let whole = mem_from_counts(
            &closure_counts(&batch.graph, &seeds, 2, &mut scratch),
            &shape,
        );
        let budget = whole / divisor + 1;
        let scheduler = BuffaloScheduler::new(shape.clone(), vec![6, 8], 0.3);
        let Ok(plan) = scheduler.schedule(&batch.graph, batch.num_seeds, budget) else {
            // Tight budgets on saturated graphs may be genuinely
            // infeasible; that is a valid outcome.
            return Ok(());
        };
        // (a) partition
        let mut all: Vec<NodeId> = plan.groups.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, seeds.clone());
        // (b) measured fit
        let mut walker = BlockWalker::default();
        for group in plan.groups.iter().filter(|g| !g.is_empty()) {
            let blocks = walker.micro_batch(&batch.graph, batch.num_seeds, group, 2);
            let actual = measure::training_memory(&blocks, &shape).total();
            prop_assert!(
                actual <= budget,
                "group measured {actual} over budget {budget}"
            );
        }
        // (c) determinism
        let again = scheduler.schedule(&batch.graph, batch.num_seeds, budget).unwrap();
        prop_assert_eq!(plan.groups, again.groups);
    }

    /// At depth 1–3, a plan has `k` groups and `k` estimates, and every
    /// group's exact memory — its own seed list walked afresh — fits the
    /// budget. `resplit_group` of a sub-range against a budget below that
    /// range's own memory returns at least two non-empty groups that
    /// partition exactly the range, each strictly smaller than it.
    #[test]
    fn schedule_and_resplit_invariants_at_any_depth(
        n in 300usize..1_500,
        num_seeds in 30usize..200,
        depth in 1usize..4,
        divisor in 1u64..6,
        graph_seed in 0u64..50,
        range in (0.0f64..0.5, 0.5f64..1.0),
        shrink in 2u64..5,
    ) {
        let g = generators::barabasi_albert(n, 4, 0.3, graph_seed).unwrap();
        let seeds: Vec<NodeId> = (0..num_seeds.min(n) as NodeId).collect();
        let fanouts = vec![6; depth];
        let batch = BatchSampler::new(fanouts.clone()).sample(&g, &seeds, graph_seed + 1);
        let shape = GnnShape::new(32, 32, depth, 8, AggregatorKind::Lstm);
        let mut scratch = ClosureScratch::default();
        let mut exact = |group: &[NodeId]| {
            mem_from_counts(&closure_counts(&batch.graph, group, depth, &mut scratch), &shape)
        };
        let budget = exact(&seeds) / divisor + 1;
        let scheduler = BuffaloScheduler::new(shape.clone(), fanouts, 0.3);
        if let Ok(plan) = scheduler.schedule(&batch.graph, batch.num_seeds, budget) {
            prop_assert_eq!(plan.k, plan.groups.len());
            prop_assert_eq!(plan.k, plan.group_estimates.len());
            for group in plan.groups.iter().filter(|g| !g.is_empty()) {
                let mem = exact(group);
                prop_assert!(mem <= budget, "group exact {mem} over budget {budget}");
            }
        }
        let lo = (range.0 * seeds.len() as f64) as usize;
        let hi = ((range.1 * seeds.len() as f64) as usize).max(lo + 2);
        let part = &seeds[lo..hi];
        let constraint = exact(part) * (shrink - 1) / shrink;
        let Ok(sub) = scheduler.resplit_group(&batch.graph, part, constraint) else {
            return Ok(());
        };
        prop_assert_eq!(sub.k, sub.groups.len());
        prop_assert_eq!(sub.k, sub.group_estimates.len());
        prop_assert!(sub.groups.iter().filter(|g| !g.is_empty()).count() >= 2);
        prop_assert!(sub.groups.iter().all(|g| g.len() < part.len()));
        for group in sub.groups.iter().filter(|g| !g.is_empty()) {
            let mem = exact(group);
            prop_assert!(mem <= constraint, "re-split exact {mem} over {constraint}");
        }
        let mut all: Vec<NodeId> = sub.groups.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, part.to_vec());
    }

    /// Micro-batch extraction preserves every kept seed's sampled
    /// in-neighborhood: the micro block's output-layer in-degrees equal
    /// the batch's.
    #[test]
    fn restriction_preserves_seed_neighborhoods(
        graph_seed in 0u64..50,
        take in 1usize..40,
    ) {
        let g = generators::barabasi_albert(400, 5, 0.4, graph_seed).unwrap();
        let seeds: Vec<NodeId> = (0..60).collect();
        let batch = BatchSampler::new(vec![5, 5]).sample(&g, &seeds, 9);
        let subset: Vec<NodeId> = (0..take.min(60) as NodeId).collect();
        let blocks = BlockWalker::default().micro_batch(&batch.graph, batch.num_seeds, &subset, 2);
        let out = blocks.last().unwrap();
        for (i, &s) in subset.iter().enumerate() {
            prop_assert_eq!(
                out.in_degree(i),
                batch.graph.degree(s),
                "seed {} lost sampled in-edges",
                s
            );
        }
    }

    /// Fast and checked block generation agree on edge sets for arbitrary
    /// sampled batches, and the whole batch's walk is the walk of the one
    /// group holding every seed, array for array.
    #[test]
    fn fast_and_checked_generation_agree(graph_seed in 0u64..50, fanout in 2usize..8) {
        let g = generators::barabasi_albert(300, 4, 0.2, graph_seed).unwrap();
        let seeds: Vec<NodeId> = (0..40).collect();
        let batch = BatchSampler::new(vec![fanout, fanout]).sample(&g, &seeds, 1);
        let fast = BlockWalker::default().whole_batch(&batch.graph, batch.num_seeds, 2);
        let all: Vec<NodeId> = (0..batch.num_seeds as NodeId).collect();
        let one_group = BlockWalker::default().micro_batch(&batch.graph, batch.num_seeds, &all, 2);
        let arrays = |b: &buffalo::blocks::Block| {
            let rows: Vec<Vec<u32>> =
                (0..b.num_dst()).map(|i| b.src_positions(i).to_vec()).collect();
            (b.dst_nodes().to_vec(), b.src_nodes().to_vec(), rows)
        };
        prop_assert_eq!(fast.len(), one_group.len());
        for (w, m) in fast.iter().zip(&one_group) {
            prop_assert_eq!(arrays(w), arrays(m));
        }
        let checked =
            generate_blocks_checked(&batch.graph, &batch.global_ids, &g, batch.num_seeds, 2);
        prop_assert_eq!(fast.len(), checked.len());
        for (f, c) in fast.iter().zip(&checked) {
            prop_assert_eq!(f.num_dst(), c.num_dst());
            prop_assert_eq!(f.num_edges(), c.num_edges());
            let edges = |b: &buffalo::blocks::Block| {
                let mut es: Vec<(NodeId, NodeId)> = (0..b.num_dst())
                    .flat_map(|i| {
                        let d = b.dst_nodes()[i];
                        b.srcs_of(i).map(move |s| (d, s)).collect::<Vec<_>>()
                    })
                    .collect();
                es.sort_unstable();
                es
            };
            prop_assert_eq!(edges(f), edges(c));
        }
    }

    /// Closure counts are monotone under seed-set inclusion, and the
    /// memory estimate follows.
    #[test]
    fn closure_counts_monotone(graph_seed in 0u64..50, small in 1usize..30) {
        let g = generators::barabasi_albert(500, 4, 0.3, graph_seed).unwrap();
        let seeds: Vec<NodeId> = (0..60).collect();
        let batch = BatchSampler::new(vec![5, 5]).sample(&g, &seeds, 2);
        let mut scratch = ClosureScratch::default();
        let sub: Vec<NodeId> = (0..small.min(60) as NodeId).collect();
        let c_small = closure_counts(&batch.graph, &sub, 2, &mut scratch);
        let c_all = closure_counts(&batch.graph, &seeds, 2, &mut scratch);
        for (s, a) in c_small.layers.iter().zip(&c_all.layers) {
            prop_assert!(s.num_dst <= a.num_dst);
            prop_assert!(s.num_src <= a.num_src);
            prop_assert!(s.num_edges <= a.num_edges);
        }
        let shape = shape();
        prop_assert!(mem_from_counts(&c_small, &shape) <= mem_from_counts(&c_all, &shape));
    }

    /// The pipeline timeline's makespan is bracketed by the serial sum
    /// (overlap never hurts) and the busiest single resource (each of
    /// Prepare and Execute is serial within itself), at every depth —
    /// and depth 1 degenerates to exactly the serial sum.
    #[test]
    fn timeline_makespan_is_bracketed(
        times in vec((0.0f64..0.05, 0.0f64..0.05), 1..12),
        depth in 1usize..5,
    ) {
        let mut tl = DeviceTimeline::new(depth);
        for &(p, d) in &times {
            tl.record(p, d);
        }
        let serial: f64 = times.iter().map(|(p, d)| p + d).sum();
        let prep: f64 = times.iter().map(|(p, _)| p).sum();
        let dev: f64 = times.iter().map(|(_, d)| d).sum();
        prop_assert!(tl.makespan() <= serial + 1e-9);
        prop_assert!(tl.makespan() + 1e-9 >= prep.max(dev));
        let mut one = DeviceTimeline::new(1);
        for &(p, d) in &times {
            one.record(p, d);
        }
        prop_assert!((one.makespan() - serial).abs() < 1e-9);
    }

    /// StageTimings assembled the way the trainers assemble them (stage
    /// sums plus a depth-2 timeline makespan) always satisfy
    /// `max_stage() ≤ overlapped_makespan ≤ serial_sum()`, so the reported
    /// speedup is at least 1.
    #[test]
    fn stage_timings_overlap_invariants(
        micros in vec(
            (0.0f64..0.05, 0.0f64..0.05, 0.0f64..0.05, 0.0f64..0.05),
            1..10,
        ),
        schedule in 0.0f64..0.02,
    ) {
        let mut t = StageTimings {
            schedule_seconds: schedule,
            ..Default::default()
        };
        let mut tl = DeviceTimeline::new(2.min(micros.len()));
        for &(block_gen, gather, compute, transfer) in &micros {
            t.block_gen_seconds += block_gen;
            t.gather_seconds += gather;
            t.sim_compute_seconds += compute;
            t.sim_transfer_seconds += transfer;
            tl.record(block_gen + gather, compute + transfer);
        }
        t.overlapped_makespan = schedule + tl.makespan();
        prop_assert!(t.overlapped_makespan <= t.serial_sum() + 1e-9);
        prop_assert!(t.overlapped_makespan + 1e-9 >= t.max_stage());
        prop_assert!(t.speedup() >= 1.0 - 1e-6);
    }
}

/// FNV-1a over the Adam step counter, the headroom multiplier, and every
/// parameter value and Adam-moment bit: the "nothing moved" witness for
/// the engine's read-only paths.
fn engine_fingerprint(state: &TrainerState) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    eat(state.adam_t);
    eat(state.headroom_multiplier.to_bits());
    for p in &state.params {
        for x in p.value.iter().chain(&p.m).chain(&p.v) {
            eat(x.to_bits() as u64);
        }
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Evaluation and serving are read-only: after any warmup, running
    /// `train::evaluate` on the engine's model and the full `serve_trace` path leaves every
    /// model parameter, Adam moment, and the optimizer/headroom state
    /// bit-identical — inference must never perturb training state.
    #[test]
    fn evaluate_and_serve_leave_engine_state_untouched(
        warmup in 0usize..3,
        trace_seed in 0u64..1_000,
        eval_seed in 0u64..1_000,
        n_requests in 8usize..48,
    ) {
        let ds = datasets::load(DatasetName::Cora, 11);
        let config = TrainConfig {
            shape: GnnShape::new(
                ds.spec.feat_dim,
                16,
                2,
                ds.spec.num_classes,
                AggregatorKind::Mean,
            ),
            fanouts: vec![5, 5],
            lr: 0.01,
            seed: 23,
            parallelism: buffalo::par::Parallelism::auto(),
        };
        let mut engine = Engine::buffalo(config, 0.24);
        let device = DeviceMemory::with_gib(24.0);
        let cost = CostModel::rtx6000();
        let seeds: Vec<NodeId> = (0..64).collect();
        let batch = BatchSampler::new(vec![5, 5]).sample(&ds.graph, &seeds, 7);
        for _ in 0..warmup {
            engine.train_iteration(&ds, &batch, &device, &cost).unwrap();
        }

        let before = engine_fingerprint(&engine.capture_state());
        let eval_nodes: Vec<NodeId> = (100..200).collect();
        let acc = evaluate(engine.model(), &ds, &eval_nodes, &engine.config().fanouts, eval_seed);
        prop_assert!((0.0..=1.0).contains(&acc));
        let trace =
            RequestTrace::poisson(n_requests, 200.0, ds.graph.num_nodes(), trace_seed).unwrap();
        let report = serve_trace(
            &engine,
            &ds,
            &device,
            &cost,
            &trace,
            &ServeConfig::default(),
        )
        .unwrap();
        prop_assert_eq!(report.requests.len(), n_requests);
        let after = engine_fingerprint(&engine.capture_state());
        prop_assert_eq!(
            before,
            after,
            "evaluate/serve moved training state (warmup {})",
            warmup
        );
    }
}
