//! `plan_products_paper`: the paper's own regime (Fig. 10/11). Batches are
//! half the node set each, the model is the paper's SAGE-LSTM at hidden
//! 512, the budget forces K in the twenties. The host phases — sampling,
//! scheduling, micro-batch extraction, block generation — run for real;
//! the device is costed and no tensor math runs.

use crate::common::{measure, pass_order, ColdStart, Ctx, Outcome, PeakDevice, PlanCounts, Reps};
use crate::host::{cpu_seconds, low, minor_faults};
use crate::probes;
use crate::trace::{set_counting, Tracer};
use buffalo_blocks::{generate_blocks_fast, GenerateOptions};
use buffalo_bucketing::BuffaloScheduler;
use buffalo_core::serve::LatencySummary;
use buffalo_core::sim::{simulate_iteration, SimContext, Strategy};
use buffalo_graph::datasets::{self, Dataset, DatasetName};
use buffalo_graph::stats;
use buffalo_memsim::estimate::relative_error;
use buffalo_memsim::{measure, AggregatorKind, CostModel, Device, GnnShape};
use buffalo_par::Parallelism;
use buffalo_sampling::{Batch, BatchSampler, SeedBatches};
use std::time::Instant;

const NAME: &str = "plan_products_paper";
const DATASET: DatasetName = DatasetName::OgbnProducts;
/// Two batches cover the whole stand-in, as the paper's batches cover the
/// whole training split.
const BATCH: usize = 76_500;
const QUICK_BATCH: usize = 9_000;
const BATCHES: usize = 2;
const BUDGET: u64 = 4 << 30;
const QUICK_BUDGET: u64 = 1 << 30;
const FANOUTS: [usize; 2] = [10, 25];

struct Setup {
    ds: Dataset,
    clustering: f64,
    shape: GnnShape,
    load_s: f64,
    clustering_s: f64,
    setup_s: f64,
}

fn batch_size(ctx: &Ctx) -> usize {
    if ctx.quick {
        QUICK_BATCH
    } else {
        BATCH
    }
}

fn budget(ctx: &Ctx) -> u64 {
    if ctx.quick {
        QUICK_BUDGET
    } else {
        BUDGET
    }
}

fn setup(ctx: &Ctx) -> Setup {
    let t0 = Instant::now();
    Parallelism {
        threads: ctx.threads,
        ..Parallelism::auto()
    }
    .install();
    let ds = datasets::load(DATASET, ctx.seed);
    let load_s = t0.elapsed().as_secs_f64();
    let t = Instant::now();
    let clustering = stats::clustering_coefficient_sampled(&ds.graph, 10_000, 50, 1);
    let clustering_s = t.elapsed().as_secs_f64();
    let shape = GnnShape::new(
        ds.spec.feat_dim,
        512,
        FANOUTS.len(),
        ds.spec.num_classes,
        AggregatorKind::Lstm,
    );
    Setup {
        ds,
        clustering,
        shape,
        load_s,
        clustering_s,
        setup_s: t0.elapsed().as_secs_f64(),
    }
}

/// The batches of one repetition, sampled as the epoch driver samples.
fn sample(s: &Setup, ctx: &Ctx, i: usize) -> Batch {
    let batches = SeedBatches::new(BATCHES * batch_size(ctx), batch_size(ctx), ctx.seed);
    BatchSampler::new(FANOUTS.to_vec()).sample(&s.ds.graph, batches.batch(i), ctx.seed + i as u64)
}

fn plan(
    s: &Setup,
    batch: &Batch,
    device: &dyn Device,
) -> Result<buffalo_core::sim::SimReport, String> {
    simulate_iteration(
        batch,
        SimContext {
            shape: &s.shape,
            fanouts: &FANOUTS,
            clustering: s.clustering,
            original: &s.ds.graph,
        },
        Strategy::Buffalo,
        device,
        &CostModel::rtx6000(),
    )
    .map_err(|e| e.to_string())
}

pub fn run(ctx: &Ctx) -> Outcome {
    measure(
        ctx,
        |out| run_untraced(ctx, out),
        |out| run_traced(ctx, out),
    )
}

/// One untraced repetition's measured part: sample and plan every batch.
struct Planned {
    wall_s: f64,
    cpu_s: f64,
    minor_faults: f64,
    /// Simulated seconds (load + compute) of each iteration.
    iter_sim_s: Vec<f64>,
    peak_bytes: u64,
}

fn planned_rep(s: &Setup, ctx: &Ctx) -> Result<Planned, String> {
    let device = PeakDevice::new(budget(ctx));
    let mut iter_sim_s = Vec::with_capacity(BATCHES);
    let (cpu0, faults0) = (cpu_seconds(), minor_faults());
    let t = Instant::now();
    for i in 0..BATCHES {
        let report = plan(s, &sample(s, ctx, i), &device)?;
        iter_sim_s.push(report.phases.data_loading + report.phases.gpu_compute);
    }
    Ok(Planned {
        wall_s: t.elapsed().as_secs_f64(),
        cpu_s: cpu_seconds() - cpu0,
        minor_faults: minor_faults() - faults0,
        iter_sim_s,
        peak_bytes: device.max_in_use(),
    })
}

fn run_untraced(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let budget = budget(ctx);
    let seeds = (BATCHES * batch_size(ctx)) as f64;
    let (mut sim_iter, mut peak) = (Vec::new(), Vec::new());
    let mut cold = ColdStart::default();
    let mut last = None;
    let mut reps = Reps::new(ctx.min_reps(), ctx.seconds);
    while let Some(rep) = reps.next_rep() {
        let s = setup(ctx);
        out.attempted += BATCHES as u64;
        match planned_rep(&s, ctx) {
            Err(e) => {
                out.failed += BATCHES as u64;
                out.failures.push(format!("planned repetition failed: {e}"));
            }
            Ok(p) => {
                out.check(p.peak_bytes <= budget, || {
                    format!(
                        "device peak {} B exceeds the budget {budget} B",
                        p.peak_bytes
                    )
                });
                cold.record(
                    rep,
                    p.wall_s / BATCHES as f64,
                    p.minor_faults / BATCHES as f64,
                );
                if rep > 0 {
                    out.push("setup_s", s.setup_s);
                    out.push("iter_wall_s", p.wall_s / BATCHES as f64);
                    out.push("iter_cpu_s", p.cpu_s / BATCHES as f64);
                    out.push("req_host_us", p.wall_s / seeds * 1e6);
                    out.push("req_cpu_us", p.cpu_s / seeds * 1e6);
                    sim_iter.push(p.iter_sim_s.iter().sum::<f64>() / BATCHES as f64);
                    peak.push(p.peak_bytes as f64 / 1e6);
                    last = Some((s, p.iter_sim_s));
                }
            }
        }
    }
    let (s, iter_sim_s) = last.ok_or("no repetition completed")?;
    out.notes.push(cold.note("iteration"));
    out.set_exact("sim_iter_s", &sim_iter);
    out.set_exact("sim_peak_mem_mb", &peak);
    // Untimed audit: the planned iteration does not hand its groups back,
    // so schedule the same batches again and check that the groups
    // partition the seeds.
    let scheduler = BuffaloScheduler::new(s.shape.clone(), FANOUTS.to_vec(), s.clustering);
    for i in 0..BATCHES {
        let batch = sample(&s, ctx, i);
        let plan = scheduler
            .schedule(&batch.graph, batch.num_seeds, budget)
            .map_err(|e| e.to_string())?;
        let mut seen = vec![0u8; batch.num_seeds];
        for &v in plan.groups.iter().flatten() {
            seen[v as usize] += 1;
        }
        out.check(seen.iter().all(|&c| c == 1), || {
            "a seed is not in exactly one group".into()
        });
    }
    let ms: Vec<f64> = iter_sim_s.iter().map(|s| s * 1e3).collect();
    let dist = LatencySummary::from_latencies(&ms);
    out.push("sim_p50_ms", dist.p50);
    out.push("sim_p99_ms", dist.p99);
    // Seeds per simulated second the costed device sustains.
    out.push(
        "sim_max_rate_rps",
        batch_size(ctx) as f64 * BATCHES as f64 / iter_sim_s.iter().sum::<f64>(),
    );
    Ok(())
}

/// One repetition's iterations through the layers' public functions: what
/// `simulate_iteration(Strategy::Buffalo)` does, with a span around each call.
fn traced_pass(s: &Setup, ctx: &Ctx, tr: &mut Tracer, acc: &mut PlanCounts) -> Result<(), String> {
    let budget = budget(ctx);
    let cost = CostModel::rtx6000();
    let scheduler = BuffaloScheduler::new(s.shape.clone(), FANOUTS.to_vec(), s.clustering);
    let sampler = BatchSampler::new(FANOUTS.to_vec());
    let device = PeakDevice::new(budget);
    for i in 0..BATCHES {
        tr.set_iter(acc.iters);
        let root = tr.begin("iteration");
        let batch = tr.time("sampling.sample", || {
            let batches = SeedBatches::new(BATCHES * batch_size(ctx), batch_size(ctx), ctx.seed);
            sampler.sample(&s.ds.graph, batches.batch(i), ctx.seed + i as u64)
        });
        let plan = tr
            .time("bucketing.schedule", || {
                scheduler.schedule(&batch.graph, batch.num_seeds, budget)
            })
            .map_err(|e| e.to_string())?;
        let groups = plan.groups.iter().zip(&plan.group_estimates);
        for (group, &estimate) in groups.filter(|(g, _)| !g.is_empty()) {
            let micro = tr.time("sampling.restrict", || batch.restrict_to_seeds(group));
            let blocks = tr.time("blocks.generate", || {
                generate_blocks_fast(
                    &micro.graph,
                    micro.num_seeds,
                    s.shape.num_layers,
                    GenerateOptions::default(),
                )
            });
            let bytes = measure::training_memory(&blocks, &s.shape).total();
            let alloc = tr
                .time("memsim.alloc", || device.alloc(bytes))
                .map_err(|e| e.to_string())?;
            tr.time("memsim.free", || device.free(alloc));
            acc.est_err.push(relative_error(estimate, bytes));
            acc.sim_compute_s += cost.training_seconds(&blocks, &s.shape);
            acc.sim_transfer_s +=
                cost.transfer_seconds(measure::transfer_bytes(&blocks, &s.shape) as f64);
            acc.micro_rows += blocks[0].num_src() as u64;
            acc.block_edges += blocks.iter().map(|b| b.num_edges() as u64).sum::<u64>();
            acc.k += 1;
        }
        tr.end(root);
        acc.imbalance += plan.imbalance();
        acc.whole_rows += batch.num_nodes() as u64;
        acc.batch_edges += batch.num_edges() as u64;
        acc.iters += 1;
    }
    acc.alloc_calls += device.calls();
    acc.peak_bytes = acc.peak_bytes.max(device.max_in_use());
    Ok(())
}

fn run_traced(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let mut tr = Tracer::new();
    let mut acc = PlanCounts::default();
    let (mut untraced_iter_s, mut traced_iter_s) = (Vec::new(), Vec::new());
    let mut cold = ColdStart::default();
    let mut last = None;
    // Each repetition plans its batches untraced and replays them traced,
    // so both sides of `trace.overhead_pct` see the same machine.
    // Repetition 0 is the warm-up: its spans and counts are thrown away,
    // but its untraced pass, the first thing this process does, is what
    // the `alloc.cold_*` metrics describe.
    let mut reps = Reps::new(if ctx.quick { 1 } else { 2 }, ctx.seconds);
    while let Some(rep) = reps.next_rep() {
        let s = setup(ctx);
        for traced in pass_order(rep) {
            if traced {
                let (mut warm_tr, mut warm_acc) = (Tracer::new(), PlanCounts::default());
                let (tr, acc) = if rep == 0 {
                    (&mut warm_tr, &mut warm_acc)
                } else {
                    (&mut tr, &mut acc)
                };
                set_counting(true);
                let t = Instant::now();
                let pass = traced_pass(&s, ctx, tr, acc);
                let wall = t.elapsed().as_secs_f64();
                set_counting(false);
                pass?;
                if rep > 0 {
                    traced_iter_s.push(wall / BATCHES as f64);
                }
            } else {
                let p = planned_rep(&s, ctx)?;
                cold.record(
                    rep,
                    p.wall_s / BATCHES as f64,
                    p.minor_faults / BATCHES as f64,
                );
                if rep > 0 {
                    untraced_iter_s.push(p.wall_s / BATCHES as f64);
                }
            }
        }
        if rep > 0 {
            out.push("graph.load_s", s.load_s);
            out.push("graph.clustering_s", s.clustering_s);
            out.attempted += BATCHES as u64;
        }
        last = Some(s);
    }
    tr.write_jsonl(&ctx.out_dir.join(format!("trace_{NAME}.jsonl")))
        .map_err(|e| format!("writing the trace: {e}"))?;
    let s = last.expect("at least one repetition ran");
    let untraced_iter_s = low(&untraced_iter_s);
    cold.metrics(out, untraced_iter_s);
    out.span_metrics(
        &tr,
        "iteration",
        acc.iters,
        untraced_iter_s,
        low(&traced_iter_s),
    );
    acc.metrics(out, &tr);
    probes::run(ctx, &s.ds, out);
    Ok(())
}
