//! The two training workloads. Untraced, a repetition is the path a user
//! takes: `run_epochs_checkpointed` over `Engine::buffalo`. The replay
//! drives the same iteration through the layers' public functions — in the
//! traced run with the dense math and spans around every call, in the
//! untraced run without the math, as the untimed audit that yields the
//! per-iteration simulated times and checks the seed partition.

use crate::common::{measure, pass_order, ColdStart, Ctx, Outcome, PeakDevice, PlanCounts, Reps};
use crate::host::{cpu_seconds, low, minor_faults};
use crate::probes;
use crate::trace::{set_counting, Tracer};
use buffalo_blocks::{generate_blocks_fast, GenerateOptions};
use buffalo_bucketing::BuffaloScheduler;
use buffalo_core::checkpoint::{
    config_fingerprint, CheckpointOptions, CheckpointRing, ParamState, TrainSnapshot, TrainerState,
};
use buffalo_core::models::GnnModel;
use buffalo_core::serve::LatencySummary;
use buffalo_core::train::{
    run_epochs_checkpointed, Engine, EpochConfig, PipelineConfig, TrainConfig, TrainRun,
};
use buffalo_graph::datasets::{self, Dataset, DatasetName, FeaturePrecision};
use buffalo_graph::{stats, NodeId};
use buffalo_memsim::cost::training_forward_flops;
use buffalo_memsim::estimate::relative_error;
use buffalo_memsim::{measure, AggregatorKind, CostModel, Device, GnnShape};
use buffalo_par::{Parallelism, SimdBackend, SimdPolicy};
use buffalo_sampling::{BatchSampler, SeedBatches};
use buffalo_tensor::{softmax_cross_entropy, Adam, Optimizer, Tensor};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub struct TrainSpec {
    pub name: &'static str,
    pub dataset: DatasetName,
    pub batch_size: usize,
    /// Nodes in the training split; `epochs × train_nodes / batch_size`
    /// iterations make one repetition.
    pub train_nodes: usize,
    pub quick_train_nodes: usize,
    pub epochs: usize,
    pub budget: u64,
    pub bf16: bool,
    pub vector_simd: bool,
    pub pipeline: bool,
    pub checkpoint_every: Option<usize>,
}

/// The default path: 24 GB budget so K = 1, f32 features synthesised on
/// demand, the library's default scalar kernels, no pipeline, no
/// checkpoints. 4 iterations per repetition: short repetitions, and so
/// many of them, are what keeps the wall metrics steady on a noisy box.
pub const ARXIV_ROOMY: TrainSpec = TrainSpec {
    name: "train_arxiv_roomy",
    dataset: DatasetName::OgbnArxiv,
    batch_size: 1024,
    train_nodes: 2048,
    quick_train_nodes: 1024,
    epochs: 2,
    budget: 24 << 30,
    bf16: false,
    vector_simd: false,
    pipeline: false,
    checkpoint_every: None,
};

/// The same layers the other way: a 40 MB budget splits every batch into
/// several micro-batches, features are a real bf16 table, the vector
/// backend, Prepare/Execute overlap and checkpoint writes are on.
/// 4 iterations per repetition.
pub const PRODUCTS_TIGHT: TrainSpec = TrainSpec {
    name: "train_products_tight",
    dataset: DatasetName::OgbnProducts,
    batch_size: 2048,
    train_nodes: 4096,
    quick_train_nodes: 2048,
    epochs: 2,
    budget: 40_000_000,
    bf16: true,
    vector_simd: true,
    pipeline: true,
    checkpoint_every: Some(4),
};

impl TrainSpec {
    fn train_nodes(&self, ctx: &Ctx) -> usize {
        if ctx.quick {
            self.quick_train_nodes
        } else {
            self.train_nodes
        }
    }

    fn iterations(&self, ctx: &Ctx) -> u64 {
        (self.epochs * self.train_nodes(ctx).div_ceil(self.batch_size)) as u64
    }
}

/// One repetition's inputs, rebuilt from the seed every time.
struct Setup {
    ds: Dataset,
    clustering: f64,
    config: TrainConfig,
    epochs: EpochConfig,
    engine: Engine,
    load_s: f64,
    bf16_s: f64,
    clustering_s: f64,
    setup_s: f64,
}

fn setup(spec: &TrainSpec, ctx: &Ctx) -> Setup {
    let t0 = Instant::now();
    let simd = if spec.vector_simd {
        SimdPolicy::Auto.resolve().expect("auto always resolves")
    } else {
        SimdBackend::Scalar
    };
    let par = Parallelism {
        threads: ctx.threads,
        simd,
        ..Parallelism::auto()
    };
    // The bf16 table build reads the ambient configuration.
    par.install();
    let mut ds = datasets::load(spec.dataset, ctx.seed);
    let load_s = t0.elapsed().as_secs_f64();
    let t = Instant::now();
    if spec.bf16 {
        ds.set_precision(FeaturePrecision::Bf16);
    }
    let bf16_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let clustering = stats::clustering_coefficient_sampled(&ds.graph, 10_000, 50, 1);
    let clustering_s = t.elapsed().as_secs_f64();
    let config = TrainConfig {
        shape: GnnShape::new(
            ds.spec.feat_dim,
            64,
            2,
            ds.spec.num_classes,
            AggregatorKind::Mean,
        ),
        fanouts: vec![10, 25],
        lr: 0.01,
        seed: ctx.seed,
        parallelism: par,
    };
    let epochs = EpochConfig {
        batch_size: spec.batch_size,
        epochs: spec.epochs,
        train_nodes: spec.train_nodes(ctx),
        eval_nodes: 0,
        seed: ctx.seed,
    };
    let pipeline = if spec.pipeline {
        PipelineConfig::overlapped()
    } else {
        PipelineConfig::serial()
    };
    let engine = Engine::buffalo(config.clone(), clustering).with_pipeline(pipeline);
    Setup {
        ds,
        clustering,
        config,
        epochs,
        engine,
        load_s,
        bf16_s,
        clustering_s,
        setup_s: t0.elapsed().as_secs_f64(),
    }
}

fn checkpoint_dir(spec: &TrainSpec, ctx: &Ctx) -> PathBuf {
    ctx.out_dir
        .join(format!("ckpt-{}-{}", spec.name, std::process::id()))
}

struct EngineRep {
    wall_s: f64,
    cpu_s: f64,
    minor_faults: f64,
    run: TrainRun,
    peak_bytes: u64,
}

/// The measured part of a repetition: the user's path, timed from outside.
fn engine_rep(spec: &TrainSpec, ctx: &Ctx, s: &mut Setup) -> Result<EngineRep, String> {
    let device = PeakDevice::new(spec.budget);
    let cost = CostModel::rtx6000();
    let dir = checkpoint_dir(spec, ctx);
    let ckpt = spec.checkpoint_every.map(|every| CheckpointOptions {
        every,
        ..CheckpointOptions::new(&dir)
    });
    let (cpu0, faults0) = (cpu_seconds(), minor_faults());
    let t = Instant::now();
    let run = run_epochs_checkpointed(
        &mut s.engine,
        &s.ds,
        &device,
        &cost,
        &s.epochs,
        ckpt.as_ref(),
        false,
    );
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    if ckpt.is_some() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(EngineRep {
        wall_s,
        cpu_s,
        minor_faults: minor_faults() - faults0,
        run: run.map_err(|e| e.to_string())?,
        peak_bytes: device.max_in_use(),
    })
}

fn trail_bits(trail: &[f32]) -> Vec<u32> {
    trail.iter().map(|l| l.to_bits()).collect()
}

fn sim_seconds(run: &TrainRun) -> f64 {
    run.epochs
        .iter()
        .map(|e| e.timings.sim_compute_seconds + e.timings.sim_transfer_seconds)
        .sum()
}

/// What the dense-math replay counts beyond the shared planning counts.
#[derive(Default)]
struct Replay {
    plan: PlanCounts,
    /// Simulated compute + transfer seconds of each iteration.
    sim_iter_s: Vec<f64>,
    gather_rows: u64,
    forward_flops: f64,
    checkpoint_bytes: u64,
    checkpoint_saves: u64,
}

/// Where a replay stands, as the epoch driver's cursor records it.
#[derive(Default)]
struct Progress {
    epoch: u64,
    epoch_iter: u64,
    global_iter: u64,
    loss_sum: f64,
    acc_sum: f64,
    trail: Vec<f32>,
}

/// Writes the snapshots `run_epochs_checkpointed` would, from outside.
struct Snapshotter {
    ring: CheckpointRing,
    fingerprint: u64,
}

impl Snapshotter {
    fn save(
        &mut self,
        tr: &mut Tracer,
        out: &mut Replay,
        model: &mut GnnModel,
        opt: &Adam,
        at: &Progress,
    ) -> Result<(), String> {
        let id = tr.begin("checkpoint.save");
        let trainer = tr.time("checkpoint.capture", || TrainerState {
            adam_t: opt.t(),
            headroom_multiplier: 1.0,
            params: model
                .params_mut()
                .iter()
                .map(|p| ParamState {
                    rows: p.value.rows() as u32,
                    cols: p.value.cols() as u32,
                    value: p.value.data().to_vec(),
                    m: p.m.data().to_vec(),
                    v: p.v.data().to_vec(),
                })
                .collect(),
        });
        let snapshot = TrainSnapshot {
            config_hash: self.fingerprint,
            epoch: at.epoch,
            epoch_iter: at.epoch_iter,
            global_iter: at.global_iter,
            device_allocs: vec![0],
            dead_devices: Vec::new(),
            rollbacks: 0,
            epoch_loss_sum: at.loss_sum,
            epoch_acc_sum: at.acc_sum,
            loss_trail: at.trail.clone(),
            trainer,
        };
        let path = self.ring.save(&snapshot).map_err(|e| e.to_string())?;
        tr.end(id);
        out.checkpoint_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
        out.checkpoint_saves += 1;
        Ok(())
    }
}

/// Replays one repetition through public functions, in the engine's exact
/// operation order, adding its counts to `out`. With `math` the
/// forward/backward/optimizer run, snapshots are written into `ckpt_dir`
/// where the epoch driver writes them, and the returned loss trail must
/// equal the engine's bit for bit.
fn replay(
    spec: &TrainSpec,
    s: &Setup,
    tr: &mut Tracer,
    out: &mut Replay,
    math: bool,
    ckpt_dir: Option<&Path>,
) -> Result<Vec<u32>, String> {
    let shape = &s.config.shape;
    let sampler = BatchSampler::new(s.config.fanouts.clone());
    let scheduler = BuffaloScheduler::new(shape.clone(), s.config.fanouts.clone(), s.clustering);
    let device = PeakDevice::new(spec.budget);
    let cost = CostModel::rtx6000();
    let mut model = GnnModel::for_shape(shape, s.config.seed);
    let mut opt = Adam::new(s.config.lr);
    s.config.parallelism.install();
    let mut snap = match (math, spec.checkpoint_every, ckpt_dir) {
        (true, Some(_), Some(dir)) => Some(Snapshotter {
            ring: CheckpointRing::create(dir, CheckpointOptions::new(dir).keep)
                .map_err(|e| e.to_string())?,
            fingerprint: config_fingerprint(&s.config, &s.epochs),
        }),
        _ => None,
    };
    let mut at = Progress::default();
    if let Some(snap) = snap.as_mut() {
        snap.save(tr, out, &mut model, &opt, &at)?;
    }
    while at.epoch < s.epochs.epochs as u64 {
        let batches = SeedBatches::new(
            s.epochs.train_nodes,
            s.epochs.batch_size,
            s.epochs.seed ^ at.epoch.wrapping_mul(0x9E37_79B9),
        );
        while at.epoch_iter < batches.num_batches() as u64 {
            let i = at.epoch_iter;
            tr.set_iter(at.global_iter);
            let root = tr.begin("iteration");
            let batch = tr.time("sampling.sample", || {
                sampler.sample(&s.ds.graph, batches.batch(i as usize), s.epochs.seed + i)
            });
            let plan = tr
                .time("bucketing.schedule", || {
                    scheduler.schedule(&batch.graph, batch.num_seeds, device.budget())
                })
                .map_err(|e| e.to_string())?;
            if math {
                model.zero_grad();
            }
            let mut seen = vec![0u8; batch.num_seeds];
            let (mut iter_loss, mut iter_correct, mut iter_sim) = (0.0f64, 0usize, 0.0f64);
            let groups = plan.groups.iter().zip(&plan.group_estimates);
            for (group, &estimate) in groups.filter(|(g, _)| !g.is_empty()) {
                for &seed in group {
                    seen[seed as usize] += 1;
                }
                let micro = tr.time("sampling.restrict", || batch.restrict_to_seeds(group));
                let blocks = tr.time("blocks.generate", || {
                    generate_blocks_fast(
                        &micro.graph,
                        micro.num_seeds,
                        shape.num_layers,
                        GenerateOptions::default(),
                    )
                });
                let (first, last) = (&blocks[0], &blocks[blocks.len() - 1]);
                let bytes = measure::training_memory(&blocks, shape).total();
                out.plan.est_err.push(relative_error(estimate, bytes));
                out.plan.micro_rows += first.num_src() as u64;
                out.plan.block_edges += blocks.iter().map(|b| b.num_edges() as u64).sum::<u64>();
                out.plan.k += 1;
                let inputs = math.then(|| {
                    tr.time("graph.gather", || {
                        let dim = s.ds.spec.feat_dim;
                        let globals: Vec<NodeId> = first
                            .src_nodes()
                            .iter()
                            .map(|&l| micro.global_ids[l as usize])
                            .collect();
                        let mut features = vec![0.0f32; globals.len() * dim];
                        s.ds.gather_features(&globals, &mut features);
                        let labels: Vec<u32> = last
                            .dst_nodes()
                            .iter()
                            .map(|&l| s.ds.label(micro.global_ids[l as usize]))
                            .collect();
                        (Tensor::from_vec(globals.len(), dim, features), labels)
                    })
                });
                let alloc = tr
                    .time("memsim.alloc", || device.alloc(bytes))
                    .map_err(|e| e.to_string())?;
                if let Some((features, labels)) = inputs {
                    out.gather_rows += features.rows() as u64;
                    out.forward_flops += training_forward_flops(&blocks, shape);
                    let (logits, cache) =
                        tr.time("models.forward", || model.forward(&blocks, &features));
                    let loss = tr.time("tensor.loss", || {
                        softmax_cross_entropy(&logits, &labels, Some(batch.num_seeds))
                    });
                    tr.time("models.backward", || {
                        model.backward(&blocks, &cache, &loss.dlogits)
                    });
                    iter_loss += loss.loss as f64 * labels.len() as f64;
                    iter_correct += loss.correct;
                }
                tr.time("memsim.free", || device.free(alloc));
                let compute = cost.training_seconds(&blocks, shape);
                let transfer =
                    cost.transfer_seconds(measure::transfer_bytes(&blocks, shape) as f64);
                out.plan.sim_compute_s += compute;
                out.plan.sim_transfer_s += transfer;
                iter_sim += compute + transfer;
            }
            out.plan.bad_partitions += seen.iter().any(|&c| c != 1) as u64;
            out.plan.imbalance += plan.imbalance();
            out.plan.whole_rows += batch.num_nodes() as u64;
            out.plan.batch_edges += batch.num_edges() as u64;
            out.plan.iters += 1;
            out.sim_iter_s.push(iter_sim);
            at.epoch_iter += 1;
            at.global_iter += 1;
            if math {
                tr.time("tensor.optimizer", || opt.step(&mut model.params_mut()));
                let total = batch.num_seeds;
                let loss = (iter_loss / total as f64) as f32;
                at.loss_sum += loss as f64;
                at.acc_sum += (iter_correct as f32 / total as f32) as f64;
                at.trail.push(loss);
            }
            // The epoch driver's snapshot points: every `every` iterations
            // and, below, the end of each epoch with the sums reset.
            if let (Some(snap), Some(every)) = (snap.as_mut(), spec.checkpoint_every) {
                if at.global_iter.is_multiple_of(every as u64) {
                    snap.save(tr, out, &mut model, &opt, &at)?;
                }
            }
            tr.end(root);
        }
        at = Progress {
            epoch: at.epoch + 1,
            global_iter: at.global_iter,
            trail: at.trail,
            ..Progress::default()
        };
        if let Some(snap) = snap.as_mut() {
            snap.save(tr, out, &mut model, &opt, &at)?;
        }
    }
    out.plan.alloc_calls += device.calls();
    out.plan.peak_bytes = out.plan.peak_bytes.max(device.max_in_use());
    Ok(trail_bits(&at.trail))
}

pub fn run(spec: &TrainSpec, ctx: &Ctx) -> Outcome {
    measure(
        ctx,
        |out| run_untraced(spec, ctx, out),
        |out| run_traced(spec, ctx, out),
    )
}

fn run_untraced(spec: &TrainSpec, ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let iters = spec.iterations(ctx);
    let seeds = (spec.epochs * spec.train_nodes(ctx)) as f64;
    let mut reference: Option<Vec<u32>> = None;
    let (mut sim_iter, mut peak) = (Vec::new(), Vec::new());
    let mut cold = ColdStart::default();
    let mut last: Option<Setup> = None;
    let mut reps = Reps::new(ctx.min_reps(), ctx.seconds);
    while let Some(rep) = reps.next_rep() {
        let mut s = setup(spec, ctx);
        out.attempted += iters;
        match engine_rep(spec, ctx, &mut s) {
            Err(e) => {
                out.failed += iters;
                out.failures
                    .push(format!("training repetition failed: {e}"));
            }
            Ok(engine) => {
                let bits = trail_bits(&engine.run.loss_trail);
                out.check(bits.len() as u64 == iters, || {
                    format!("loss trail has {} entries, expected {iters}", bits.len())
                });
                let same = reference.get_or_insert_with(|| bits.clone()) == &bits;
                out.check(same, || {
                    "loss trail differs between repetitions of one seed".into()
                });
                out.check(engine.peak_bytes <= spec.budget, || {
                    let peak = engine.peak_bytes;
                    format!("device peak {peak} B exceeds the budget {} B", spec.budget)
                });
                let per_iter = |total: f64| total / iters as f64;
                cold.record(rep, per_iter(engine.wall_s), per_iter(engine.minor_faults));
                if rep > 0 {
                    out.push("setup_s", s.setup_s);
                    out.push("iter_wall_s", per_iter(engine.wall_s));
                    out.push("iter_cpu_s", per_iter(engine.cpu_s));
                    out.push("req_host_us", engine.wall_s / seeds * 1e6);
                    out.push("req_cpu_us", engine.cpu_s / seeds * 1e6);
                    sim_iter.push(per_iter(sim_seconds(&engine.run)));
                    peak.push(engine.peak_bytes as f64 / 1e6);
                }
            }
        }
        last = Some(s);
    }
    out.notes.push(cold.note("iteration"));
    out.set_exact("sim_iter_s", &sim_iter);
    out.set_exact("sim_peak_mem_mb", &peak);
    let Some(&engine_sim) = sim_iter.first() else {
        return Err("no measured repetition completed".into());
    };
    // Untimed audit of the same batches: simulated time per iteration and
    // the partition invariant, neither of which the epoch driver passes on.
    let s = last.expect("at least one repetition ran");
    let mut audit = Replay::default();
    replay(spec, &s, &mut Tracer::new(), &mut audit, false, None)?;
    out.check(audit.plan.bad_partitions == 0, || {
        "a seed is not in exactly one group".into()
    });
    let audit_sim = audit.sim_iter_s.iter().sum::<f64>() / iters as f64;
    out.check((audit_sim / engine_sim - 1.0).abs() < 1e-9, || {
        format!("audit simulated time {audit_sim} s/iter disagrees with the engine's {engine_sim}")
    });
    let ms: Vec<f64> = audit.sim_iter_s.iter().map(|s| s * 1e3).collect();
    let dist = LatencySummary::from_latencies(&ms);
    out.push("sim_p50_ms", dist.p50);
    out.push("sim_p99_ms", dist.p99);
    // Seeds per simulated second the costed device sustains.
    out.push("sim_max_rate_rps", spec.batch_size as f64 / engine_sim);
    Ok(())
}

fn run_traced(spec: &TrainSpec, ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let iters = spec.iterations(ctx);
    let per_iter = |total: f64| total / iters as f64;
    let dir = checkpoint_dir(spec, ctx);
    let mut tr = Tracer::new();
    let mut total = Replay::default();
    let (mut untraced_iter_s, mut traced_iter_s, mut prepare_s) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut cold = ColdStart::default();
    let mut last = None;
    // Each repetition runs the user's path untraced and the traced replay
    // of the same inputs, so both sides of `trace.overhead_pct` see the
    // same machine conditions. Repetition 0 is the warm-up: its spans and
    // counts are thrown away, but its untraced pass, the first thing this
    // process does, is what the `alloc.cold_*` metrics describe.
    let mut reps = Reps::new(if ctx.quick { 1 } else { 2 }, ctx.seconds);
    while let Some(rep) = reps.next_rep() {
        let mut s = setup(spec, ctx);
        let (mut engine_trail, mut replay_trail) = (Vec::new(), Vec::new());
        for traced in pass_order(rep) {
            if traced {
                let (mut warm_tr, mut warm_total) = (Tracer::new(), Replay::default());
                let (tr, total) = if rep == 0 {
                    (&mut warm_tr, &mut warm_total)
                } else {
                    (&mut tr, &mut total)
                };
                set_counting(true);
                let t = Instant::now();
                let trail = replay(spec, &s, tr, total, true, Some(&dir));
                let wall = t.elapsed().as_secs_f64();
                set_counting(false);
                let _ = std::fs::remove_dir_all(&dir);
                replay_trail = trail?;
                if rep > 0 {
                    traced_iter_s.push(per_iter(wall));
                }
            } else {
                let engine = engine_rep(spec, ctx, &mut s)?;
                engine_trail = trail_bits(&engine.run.loss_trail);
                cold.record(rep, per_iter(engine.wall_s), per_iter(engine.minor_faults));
                if rep > 0 {
                    untraced_iter_s.push(per_iter(engine.wall_s));
                    let epochs = engine.run.epochs.iter();
                    prepare_s.push(per_iter(epochs.map(|e| e.timings.prepare_seconds()).sum()));
                }
            }
        }
        out.check(replay_trail == engine_trail, || {
            "loss trail of the traced public-API replay differs from the engine's".into()
        });
        if rep > 0 {
            out.push("graph.load_s", s.load_s);
            if spec.bf16 {
                out.push("graph.bf16_build_s", s.bf16_s);
            }
            out.push("graph.clustering_s", s.clustering_s);
            out.attempted += iters;
        }
        last = Some(s);
    }
    out.check(total.plan.bad_partitions == 0, || {
        "a seed is not in exactly one group".into()
    });
    tr.write_jsonl(&ctx.out_dir.join(format!("trace_{}.jsonl", spec.name)))
        .map_err(|e| format!("writing the trace: {e}"))?;
    let s = last.expect("at least one repetition ran");
    let untraced_iter_s = low(&untraced_iter_s);
    cold.metrics(out, untraced_iter_s);

    let n = total.plan.iters as f64;
    out.span_metrics(
        &tr,
        "iteration",
        total.plan.iters,
        untraced_iter_s,
        low(&traced_iter_s),
    );
    total.plan.metrics(out, &tr);
    let totals = tr.totals();
    let rate = |work: f64, span: &str| match totals.get(span) {
        Some(t) if t.self_s > 0.0 => work / t.self_s,
        _ => 0.0,
    };
    let row_gb = (s.ds.spec.feat_dim * 4) as f64 / 1e9;
    out.push("graph.gather_rows", total.gather_rows as f64 / n);
    out.push(
        "graph.gather_gbps",
        rate(total.gather_rows as f64 * row_gb, "graph.gather"),
    );
    out.push(
        "models.forward_gflops",
        rate(total.forward_flops / 1e9, "models.forward"),
    );
    out.push(
        "checkpoint.bytes",
        total.checkpoint_bytes as f64 / total.checkpoint_saves.max(1) as f64,
    );
    out.push("checkpoint.saves", total.checkpoint_saves as f64 / n);
    out.push("train.reported_prepare_s", low(&prepare_s));
    let mut walls: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|sp| sp.name == "iteration")
        .map(|sp| (sp.end_ns - sp.start_ns) as f64 / 1e9)
        .collect();
    walls.sort_unstable_by(f64::total_cmp);
    out.notes.push(format!(
        "iteration span: p50 {:.4} s, p90 {:.4} s, n={} (untraced engine iteration {:.4} s)",
        walls[walls.len() / 2],
        walls[(walls.len() * 9).div_ceil(10) - 1],
        walls.len(),
        untraced_iter_s
    ));
    probes::run(ctx, &s.ds, out);
    Ok(())
}
