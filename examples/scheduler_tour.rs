//! A tour of Buffalo's scheduling pipeline on one batch: degree
//! bucketing, explosion detection, splitting, memory-balanced grouping,
//! and the redundancy-aware estimates behind each decision (paper §IV).
//!
//! Run with: `cargo run --release --example scheduler_tour`

use buffalo::blocks::BlockWalker;
use buffalo::bucketing::{
    closure_counts, degree_bucketing, detect_explosion, BuffaloScheduler, ClosureScratch,
};
use buffalo::graph::datasets::{self, DatasetName};
use buffalo::graph::stats;
use buffalo::memsim::estimate::mem_from_counts;
use buffalo::memsim::{AggregatorKind, GnnShape};
use buffalo::sampling::{BatchSampler, SeedBatches};

fn main() {
    let ds = datasets::load(DatasetName::OgbnArxiv, 42);
    let clustering = stats::clustering_coefficient_sampled(&ds.graph, 10_000, 50, 1);
    let seeds = SeedBatches::new(ds.graph.num_nodes(), 8_192, 1);
    let batch = BatchSampler::new(vec![10, 25]).sample(&ds.graph, seeds.batch(0), 2);
    let shape = GnnShape::new(
        ds.spec.feat_dim,
        256,
        2,
        ds.spec.num_classes,
        AggregatorKind::Lstm,
    );

    // Step 1: degree bucketing at the output layer (cut-off F = 10).
    let buckets = degree_bucketing(&batch.graph, batch.num_seeds, 10);
    println!("step 1 — degree buckets (F=10):");
    let mut scratch = ClosureScratch::default();
    for b in &buckets {
        let counts = closure_counts(&batch.graph, &b.nodes, 2, &mut scratch);
        println!(
            "  degree {:>2}: {:>5} outputs, {:>6} inputs, est {:>7.1} MB",
            b.degree,
            b.volume(),
            counts.output_layer_inputs(),
            mem_from_counts(&counts, &shape) as f64 / 1e6
        );
    }

    // Step 2: explosion detection.
    match detect_explosion(&buckets, 2.0) {
        Some(i) => println!(
            "\nstep 2 — bucket explosion at degree {} ({} outputs)",
            buckets[i].degree,
            buckets[i].volume()
        ),
        None => println!("\nstep 2 — no explosion (balanced buckets)"),
    }

    // Step 3: schedule under increasingly tight budgets. Each group's exact
    // memory is its own seed list walked afresh; the heaviest group of a
    // K > 1 plan is then re-split against half of it, as the OOM recovery
    // rung would.
    let mut exact = |seeds: &[u32]| {
        mem_from_counts(
            &closure_counts(&batch.graph, seeds, 2, &mut scratch),
            &shape,
        )
    };
    let whole_mem = exact(&(0..batch.num_seeds as u32).collect::<Vec<_>>());
    println!(
        "\nstep 3 — whole batch needs {:.1} MB; scheduling:",
        whole_mem as f64 / 1e6
    );
    let scheduler = BuffaloScheduler::new(shape.clone(), vec![10, 25], clustering);
    let mut walker = BlockWalker::default();
    for divisor in [1u64, 2, 4, 8] {
        let budget = whole_mem / divisor + 1;
        let plan = match scheduler.schedule(&batch.graph, batch.num_seeds, budget) {
            Ok(plan) => plan,
            Err(e) => {
                println!("  budget {:>7.1} MB -> {e}", budget as f64 / 1e6);
                continue;
            }
        };
        let group_mems: Vec<u64> = plan.groups.iter().map(|g| exact(g)).collect();
        let heaviest = (0..group_mems.len())
            .max_by_key(|&i| group_mems[i])
            .unwrap();
        println!(
            "  budget {:>7.1} MB -> K={:>2}, split explosion: {}, imbalance {:.1}%, max exact {:.1} MB, {:?}ms",
            budget as f64 / 1e6,
            plan.k,
            plan.split_explosion,
            100.0 * plan.imbalance(),
            group_mems[heaviest] as f64 / 1e6,
            plan.scheduling_time.as_millis()
        );
        if plan.k > 1 {
            // The block volumes `simulate_iteration` reads, off one walker.
            let (mut edges, mut rows) = (0usize, 0usize);
            for group in plan.groups.iter().filter(|g| !g.is_empty()) {
                let blocks = walker.micro_batch(&batch.graph, batch.num_seeds, group, 2);
                edges += blocks.iter().map(|b| b.num_edges()).sum::<usize>();
                rows += blocks[0].num_src();
            }
            println!("    blocks: {edges} edges, {rows} input-layer rows");
            let constraint = group_mems[heaviest] / 2;
            let seeds = &plan.groups[heaviest];
            match scheduler.resplit_group(&batch.graph, seeds, constraint) {
                Ok(sub) => {
                    let max = sub.groups.iter().map(|g| exact(g)).max().unwrap();
                    println!(
                        "    re-split heaviest ({} seeds) at {:.1} MB -> K={}, max exact {:.1} MB",
                        seeds.len(),
                        constraint as f64 / 1e6,
                        sub.k,
                        max as f64 / 1e6
                    );
                }
                Err(e) => println!("    re-split heaviest -> {e}"),
            }
        }
    }
}
