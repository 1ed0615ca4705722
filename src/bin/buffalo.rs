//! `buffalo` — command-line interface to the Buffalo GNN training system.
//!
//! ```text
//! buffalo stats <dataset|path>             graph summary (a Table II row)
//! buffalo generate <dataset> -o <file>     save a synthetic dataset graph
//! buffalo schedule <dataset> [options]     run the Buffalo scheduler
//! buffalo train <dataset> [options]        train for real under a budget
//! buffalo serve <dataset> [options]        replay an inference trace
//! buffalo compare <dataset> [options]      one iteration of every strategy
//! ```
//!
//! Datasets are the Table II stand-ins (`cora`, `pubmed`, `reddit`,
//! `ogbn-arxiv`, `ogbn-products`, `ogbn-papers`); anywhere a dataset is
//! accepted, a path to an edge-list or binary CSR file works too.

use buffalo::bucketing::BuffaloScheduler;
use buffalo::core::checkpoint::CheckpointOptions;
use buffalo::core::serve::{serve_trace, RequestTrace, ServeConfig, ShedPolicy};
use buffalo::core::sim::{simulate_iteration, SimContext, Strategy};
use buffalo::core::train::{
    run_epochs_checkpointed, DevicePool, Engine, EpochConfig, PipelineConfig, RecoveryAction,
    RecoveryPolicy, TrainConfig,
};
use buffalo::graph::datasets::{self, DatasetName};
use buffalo::graph::{io, stats, CsrGraph, NodeId};
use buffalo::memsim::{AggregatorKind, CostModel, FaultPlan, GnnShape};
use buffalo::sampling::{BatchSampler, SeedBatches};
use std::collections::BTreeMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  buffalo stats    <dataset|path>
  buffalo generate <dataset> -o <file>
  buffalo schedule <dataset> [--budget 24G] [--seeds N] [--hidden H]
                   [--agg mean|pool|lstm|attention] [--fanouts 10,25]
  buffalo train    <dataset> [--budget 24G] [--epochs N] [--batch-size N]
                   [--hidden H] [--agg ...] [--fanouts 5,10] [--eval N]
                   [--pipeline on|off] [--threads N] [--gpus N]
                   [--simd auto|avx2|sse|scalar] [--precision f32|bf16]
                   [--faults <spec>] [--max-retries N] [--headroom F]
                   [--checkpoint-dir D] [--checkpoint-every K]
                   [--checkpoint-keep N] [--resume D] [--max-rollbacks N]
                   --gpus N trains over an elastic pool of N devices with
                   --budget bytes EACH; micro-batches shard round-robin
                   and a lost device fails over to the survivors
                   fault spec clauses (';'-separated):
                     transient:p=0.1,seed=7   transient:nth=5
                     shrink:at=10,factor=0.5,restore=20
                     crash:at=3,bytes=64,torn=1   (needs --checkpoint-dir)
                     lose:1,40   (device 1 dies at its 40th alloc; with
                                  --gpus >= 2 the survivors take over, and
                                  once none is left — at once on a single
                                  device — the run ends `recovery exhausted`)
  buffalo serve    <dataset> [--budget 24G] [--trace poisson:n=256,rate=64,seed=7]
                   [--max-batch N] [--max-wait-ms F] [--warmup-iters N]
                   [--queue-depth N] [--shed-policy reject-newest|shed-oldest]
                   [--deadline-ms F] [--gpus N] [--faults <spec>]
                   [--max-retries N] [--hidden H] [--agg ...] [--fanouts 5,10]
                   [--pipeline on|off] [--json <file>] [--quiet-requests 1]
                   [--simd auto|avx2|sse|scalar] [--precision f32|bf16]
                   overload: --queue-depth bounds the admission queue
                   (--shed-policy picks who drops when full); --deadline-ms
                   drops requests that provably cannot dispatch in time.
                   faults: same spec grammar as train (transient:, lose:);
                   --gpus N serves over a pool of N devices with --budget
                   bytes EACH and fails over on whole-device loss. Chaos
                   moves latencies, never answers: the `answers:` digest is
                   bit-identical to the fault-free run
  buffalo compare  <dataset> [--budget 24G] [--seeds N] [--hidden H] [--k K]";

/// Parsed `--key value` options with positional arguments.
struct Options {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut positional = Vec::new();
        let mut flags = BTreeMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = it
                    .next()
                    .ok_or_else(|| format!("--{key} requires a value"))?;
                flags.insert(key.to_string(), value.clone());
            } else if let Some(key) = a.strip_prefix('-') {
                let value = it
                    .next()
                    .ok_or_else(|| format!("-{key} requires a value"))?;
                flags.insert(key.to_string(), value.clone());
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Options { positional, flags })
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{key} `{v}`")),
        }
    }
}

/// Parses sizes like `24G`, `512M`, `1073741824`.
fn parse_bytes(s: &str) -> Result<u64, String> {
    let (num, mult) = match s.chars().last() {
        Some('G') | Some('g') => (&s[..s.len() - 1], 1u64 << 30),
        Some('M') | Some('m') => (&s[..s.len() - 1], 1u64 << 20),
        Some('K') | Some('k') => (&s[..s.len() - 1], 1u64 << 10),
        _ => (s, 1),
    };
    let v: f64 = num.parse().map_err(|_| format!("bad size `{s}`"))?;
    Ok((v * mult as f64) as u64)
}

fn parse_fanouts(s: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|p| p.trim().parse().map_err(|_| format!("bad fanouts `{s}`")))
        .collect()
}

fn parse_pipeline(s: &str) -> Result<PipelineConfig, String> {
    match s {
        "on" => Ok(PipelineConfig::overlapped()),
        "off" => Ok(PipelineConfig::serial()),
        other => Err(format!("--pipeline must be on|off, got `{other}`")),
    }
}

fn parse_agg(s: &str) -> Result<AggregatorKind, String> {
    match s {
        "mean" => Ok(AggregatorKind::Mean),
        "pool" => Ok(AggregatorKind::MaxPool),
        "lstm" => Ok(AggregatorKind::Lstm),
        "attention" | "gat" => Ok(AggregatorKind::Attention),
        other => Err(format!("unknown aggregator `{other}`")),
    }
}

/// Loads a graph from a dataset name or a file path. Returns the graph,
/// an optional full dataset (features/labels), and a display name.
fn load_graph(spec: &str) -> Result<(CsrGraph, Option<datasets::Dataset>, String), String> {
    if let Ok(name) = DatasetName::parse(spec) {
        let ds = datasets::load(name, 42);
        return Ok((ds.graph.clone(), Some(ds), name.to_string()));
    }
    if std::path::Path::new(spec).exists() {
        let g = io::load(spec).map_err(|e| e.to_string())?;
        return Ok((g, None, spec.to_string()));
    }
    Err(format!(
        "`{spec}` is neither a dataset name ({}) nor a file",
        DatasetName::ALL
            .iter()
            .map(|d| d.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    ))
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err("missing command".into());
    };
    let opts = Options::parse(rest)?;
    let target = opts
        .positional
        .first()
        .ok_or_else(|| "missing dataset/path argument".to_string())?;
    match cmd.as_str() {
        "stats" => cmd_stats(target),
        "generate" => cmd_generate(target, &opts),
        "schedule" => cmd_schedule(target, &opts),
        "train" => cmd_train(target, &opts),
        "serve" => cmd_serve(target, &opts),
        "compare" => cmd_compare(target, &opts),
        other => Err(format!("unknown command `{other}`")),
    }
}

fn cmd_stats(target: &str) -> Result<(), String> {
    let (g, ds, name) = load_graph(target)?;
    let s = stats::summarize(&g, 42);
    println!("graph:          {name}");
    println!("nodes:          {}", s.num_nodes);
    println!("edges:          {}", s.num_edges / 2);
    println!("avg degree:     {:.2}", s.avg_degree);
    println!("max degree:     {}", s.max_degree);
    println!("avg clustering: {:.4}", s.avg_clustering);
    println!("power law:      {}", if s.power_law { "yes" } else { "no" });
    if let Some(fit) = stats::fit_power_law(&g, 5) {
        println!("alpha (d>=5):   {:.2}", fit.alpha);
    }
    if let Some(ds) = ds {
        println!("feature dim:    {}", ds.spec.feat_dim);
        println!("classes:        {}", ds.spec.num_classes);
        println!("scale:          1/{}", ds.spec.scale_factor);
    }
    Ok(())
}

fn cmd_generate(target: &str, opts: &Options) -> Result<(), String> {
    let out = opts
        .flags
        .get("o")
        .or_else(|| opts.flags.get("output"))
        .ok_or("generate requires -o <file>")?;
    let (g, _, name) = load_graph(target)?;
    io::save(&g, out).map_err(|e| e.to_string())?;
    println!(
        "wrote {name} ({} nodes, {} edges) to {out}",
        g.num_nodes(),
        g.num_edges()
    );
    Ok(())
}

/// Builds the common experiment pieces from CLI options.
struct Setup {
    ds: datasets::Dataset,
    batch: buffalo::sampling::Batch,
    shape: GnnShape,
    fanouts: Vec<usize>,
    clustering: f64,
    budget: u64,
}

fn setup(target: &str, opts: &Options, default_fanouts: &str) -> Result<Setup, String> {
    let (_, ds, _) = load_graph(target)?;
    let ds = ds.ok_or("this command needs a dataset (features/labels), not a raw graph file")?;
    let fanouts = parse_fanouts(&opts.get::<String>("fanouts", default_fanouts.into())?)?;
    let hidden: usize = opts.get("hidden", 256)?;
    let agg = parse_agg(&opts.get::<String>("agg", "lstm".into())?)?;
    let num_seeds: usize = opts.get("seeds", (ds.graph.num_nodes() / 5).max(256))?;
    let budget = parse_bytes(&opts.get::<String>("budget", "24G".into())?)?;
    let seeds: Vec<NodeId> = SeedBatches::new(ds.graph.num_nodes(), num_seeds, 7)
        .batch(0)
        .to_vec();
    let batch = BatchSampler::new(fanouts.clone()).sample(&ds.graph, &seeds, 11);
    let clustering = stats::clustering_coefficient_sampled(&ds.graph, 10_000, 50, 1);
    let shape = GnnShape::new(
        ds.spec.feat_dim,
        hidden,
        fanouts.len(),
        ds.spec.num_classes,
        agg,
    );
    Ok(Setup {
        ds,
        batch,
        shape,
        fanouts,
        clustering,
        budget,
    })
}

fn cmd_schedule(target: &str, opts: &Options) -> Result<(), String> {
    let s = setup(target, opts, "10,25")?;
    println!(
        "batch: {} seeds -> {} nodes, {} edges",
        s.batch.num_seeds,
        s.batch.num_nodes(),
        s.batch.num_edges()
    );
    let scheduler = BuffaloScheduler::new(s.shape.clone(), s.fanouts.clone(), s.clustering);
    let plan = scheduler
        .schedule(&s.batch.graph, s.batch.num_seeds, s.budget)
        .map_err(|e| e.to_string())?;
    println!(
        "plan: K={} groups, split explosion: {}, scheduled in {:?}",
        plan.k, plan.split_explosion, plan.scheduling_time
    );
    for (i, (group, est)) in plan.groups.iter().zip(&plan.group_estimates).enumerate() {
        println!(
            "  group {i:>3}: {:>7} outputs, est {:>8.1} MB",
            group.len(),
            *est as f64 / 1e6
        );
    }
    println!("imbalance: {:.1}%", 100.0 * plan.imbalance());
    Ok(())
}

/// Everything `train` and `serve` read off the command line the same
/// way: the dataset and batch, the engine configuration, the staging
/// mode, and which devices to run on under which faults.
struct EngineSetup {
    s: Setup,
    config: TrainConfig,
    precision: datasets::FeaturePrecision,
    pipeline: PipelineConfig,
    faults: Option<FaultPlan>,
    gpus: Option<usize>,
}

fn engine_setup(target: &str, opts: &Options) -> Result<EngineSetup, String> {
    let mut o = Options {
        positional: opts.positional.clone(),
        flags: opts.flags.clone(),
    };
    // Training and serving run real dense math on the CPU: default to a
    // light shape.
    o.flags
        .entry("hidden".into())
        .or_insert_with(|| "32".into());
    o.flags.entry("agg".into()).or_insert_with(|| "mean".into());
    let mut s = setup(target, &o, "5,10")?;
    let mut parallelism = buffalo::par::Parallelism::auto();
    parallelism.simd =
        buffalo::par::SimdPolicy::parse(&o.get::<String>("simd", "scalar".into())?)?.resolve()?;
    let precision =
        datasets::FeaturePrecision::parse(&o.get::<String>("precision", "f32".into())?)?;
    s.ds.set_precision(precision);
    let config = TrainConfig {
        shape: s.shape.clone(),
        fanouts: s.fanouts.clone(),
        lr: o.get("lr", 0.01)?,
        seed: 17,
        parallelism,
    };
    let pipeline = parse_pipeline(&o.get::<String>("pipeline", "off".into())?)?;
    let faults = match o.flags.get("faults") {
        Some(spec) => Some(FaultPlan::parse(spec)?),
        None => None,
    };
    let gpus = match o.flags.get("gpus") {
        Some(v) => Some(v.parse().map_err(|_| format!("bad --gpus `{v}`"))?),
        None => None,
    };
    Ok(EngineSetup {
        s,
        config,
        precision,
        pipeline,
        faults,
        gpus,
    })
}

/// The one place the CLI builds a device. A single device is a pool of
/// one: `--gpus N` only changes the member count (`budget` bytes EACH),
/// and every member replays `faults` (a `lose:` clause fires on the
/// member it names).
fn device_pool(
    gpus: Option<usize>,
    budget: u64,
    faults: Option<&FaultPlan>,
) -> Result<DevicePool, String> {
    let none = FaultPlan::none();
    DevicePool::homogeneous(gpus.unwrap_or(1), budget, faults.unwrap_or(&none))
        .map_err(|e| e.to_string())
}

/// What the devices went through: the `faults:` line for a single device
/// under a fault plan, the `devices:` table when `--gpus` asked for a pool.
fn print_device_summary(pool: &DevicePool, faults: bool, gpus: bool) {
    let members = (0..pool.len()).filter_map(|i| Some((i, pool.device(i)?.counters())));
    if gpus {
        println!(
            "devices: {} in pool, {} live",
            pool.len(),
            pool.len() - pool.dead().len()
        );
        for (i, c) in members {
            println!(
                "  device {i}: {} allocs, {} injected{}",
                c.allocs,
                c.injected,
                if pool.is_dead(i) { ", LOST" } else { "" }
            );
        }
    } else if faults {
        // No `--gpus`: the pool's one member is the device.
        for (_, c) in members {
            println!(
                "faults: {} injected over {} allocs, {} budget changes",
                c.injected, c.allocs, c.budget_changes
            );
        }
    }
}

fn cmd_train(target: &str, opts: &Options) -> Result<(), String> {
    let EngineSetup {
        s,
        mut config,
        precision,
        pipeline,
        faults: mut fault_plan,
        gpus,
    } = engine_setup(target, opts)?;
    let epochs: usize = opts.get("epochs", 3)?;
    let batch_size: usize = opts.get("batch-size", 256)?;
    let eval_nodes: usize = opts.get("eval", 512)?;
    let train_nodes: usize = opts.get(
        "train-nodes",
        (s.ds.graph.num_nodes() / 4).min(2_048).max(batch_size),
    )?;
    if let Some(v) = opts.flags.get("threads") {
        let n: usize = v.parse().map_err(|_| format!("bad --threads `{v}`"))?;
        config.parallelism.threads = n.max(1);
    }
    println!(
        "kernels: simd={} precision={}",
        config.parallelism.simd.as_str(),
        precision.as_str()
    );
    // Checkpointing. `--resume <dir>` doubles as the checkpoint dir when
    // `--checkpoint-dir` is absent, so a resumed run keeps snapshotting
    // into the same ring. A `crash:` fault clause targets snapshot
    // writes, so it moves from the device plan to the checkpoint writer.
    let resume_dir = opts.flags.get("resume").cloned();
    let ckpt_dir = opts
        .flags
        .get("checkpoint-dir")
        .cloned()
        .or_else(|| resume_dir.clone());
    let crash = fault_plan.as_mut().and_then(|p| p.crash.take());
    if crash.is_some() && ckpt_dir.is_none() {
        return Err(
            "a crash: fault clause needs --checkpoint-dir (it fires during snapshot writes)".into(),
        );
    }
    let ckpt = match &ckpt_dir {
        Some(dir) => {
            let mut c = CheckpointOptions::new(dir);
            c.every = opts.get("checkpoint-every", c.every)?;
            c.keep = opts.get("checkpoint-keep", c.keep)?;
            c.max_rollbacks = opts.get("max-rollbacks", c.max_rollbacks)?;
            c.crash = crash;
            Some(c)
        }
        None => None,
    };
    // Recovery is enabled whenever any of its flags (or a fault spec) is
    // given; a plain run keeps the classic fail-fast OOM semantics.
    let recovery_on = fault_plan.is_some()
        || opts.flags.contains_key("max-retries")
        || opts.flags.contains_key("headroom");
    let pool = device_pool(gpus, s.budget, fault_plan.as_ref())?;
    let cost = CostModel::rtx6000();
    // The CLI drives the engine directly: the same object type the serve
    // command uses, so a future `train --then-serve` is one borrow away.
    let mut trainer = Engine::buffalo(config, s.clustering).with_pipeline(pipeline);
    if recovery_on {
        trainer.set_recovery(RecoveryPolicy {
            max_retries: opts.get("max-retries", 3)?,
            headroom: opts.get("headroom", 1.0)?,
            ..RecoveryPolicy::default()
        });
    }
    let cfg = EpochConfig {
        batch_size,
        epochs,
        train_nodes,
        eval_nodes: eval_nodes.min(s.ds.graph.num_nodes().saturating_sub(train_nodes)),
        seed: 5,
    };
    let run = run_epochs_checkpointed(
        &mut trainer,
        &s.ds,
        &pool,
        &cost,
        &cfg,
        ckpt.as_ref(),
        resume_dir.is_some(),
    )
    .map_err(|e| e.to_string())?;
    println!(
        "{:>6} {:>10} {:>10} {:>8} {:>6}",
        "epoch", "loss", "train acc", "val acc", "iters"
    );
    let mut timings = buffalo::memsim::StageTimings::default();
    let mut recovery_events = 0usize;
    let mut failovers: Vec<String> = Vec::new();
    for e in &run.epochs {
        timings.accumulate(&e.timings);
        recovery_events += e.recovery.len();
        for ev in &e.recovery {
            if matches!(ev.action, RecoveryAction::DeviceLost { .. }) {
                failovers.push(format!("failover: {}", ev.action));
            }
        }
        println!(
            "{:>6} {:>10.4} {:>10.3} {:>8} {:>6}",
            e.epoch,
            e.mean_loss,
            e.train_accuracy,
            e.val_accuracy
                .map_or_else(|| "-".to_string(), |a| format!("{a:.3}")),
            e.iterations
        );
    }
    println!(
        "staging ({}): serial {:.3}s, overlapped {:.3}s, speedup {:.2}x",
        if pipeline.enabled {
            "pipeline on"
        } else {
            "pipeline off"
        },
        timings.serial_sum(),
        timings.overlapped_makespan,
        timings.speedup(),
    );
    for line in &failovers {
        println!("{line}");
    }
    print_device_summary(&pool, fault_plan.is_some(), gpus.is_some());
    if recovery_on {
        println!(
            "recovery: {} events, headroom multiplier {:.3}",
            recovery_events,
            trainer.headroom_multiplier()
        );
    }
    if ckpt.is_some() || gpus.is_some() {
        // Per-iteration loss bit patterns: ci.sh diffs these lines between
        // an uninterrupted run and a crash+resume run (and between a
        // device-loss run and its fault-free twin) to prove bitwise
        // identical replay.
        for (i, loss) in run.loss_trail.iter().enumerate() {
            println!("trail {i:>6} {:08x} {loss:.6}", loss.to_bits());
        }
        if let Some(at) = run.resumed_at {
            println!("resumed from global iteration {at}");
        }
        println!(
            "checkpoints: {} written, {} rollbacks",
            run.snapshots_written, run.rollbacks
        );
    }
    Ok(())
}

fn cmd_serve(target: &str, opts: &Options) -> Result<(), String> {
    let EngineSetup {
        s,
        config,
        pipeline,
        faults: fault_plan,
        gpus,
        ..
    } = engine_setup(target, opts)?;
    let warmup_iters: usize = opts.get("warmup-iters", 3)?;
    let max_batch: usize = opts.get("max-batch", 64)?;
    let max_wait_ms: f64 = opts.get("max-wait-ms", 50.0)?;
    let quiet: u32 = opts.get("quiet-requests", 0)?;
    let trace_spec = opts.get::<String>("trace", "poisson:n=256,rate=64,seed=7".into())?;
    let trace =
        RequestTrace::parse(&trace_spec, s.ds.graph.num_nodes()).map_err(|e| e.to_string())?;
    // Overload protection: bounded admission queue, shed policy, deadline.
    let queue_depth: usize = opts.get("queue-depth", usize::MAX)?;
    let shed_policy =
        ShedPolicy::parse(&opts.get::<String>("shed-policy", "reject-newest".into())?)
            .map_err(|e| e.to_string())?;
    let deadline = match opts.flags.get("deadline-ms") {
        Some(v) => {
            let ms: f64 = v.parse().map_err(|_| format!("bad --deadline-ms `{v}`"))?;
            Some(ms / 1e3)
        }
        None => None,
    };
    let recovery = RecoveryPolicy {
        max_retries: opts.get("max-retries", 3)?,
        ..RecoveryPolicy::default()
    };
    let cost = CostModel::rtx6000();
    let mut engine = Engine::buffalo(config, s.clustering).with_pipeline(pipeline);
    // Warm the model up on the engine's training path — the whole point of
    // the shared engine is that the serving borrow starts where training
    // left off. Warmup always runs on a fault-free device so the served
    // parameters are bit-exact regardless of `--faults`/`--gpus`: chaos
    // may move latencies, never answers.
    let warm = device_pool(None, s.budget, None)?;
    for _ in 0..warmup_iters {
        engine
            .train_iteration(&s.ds, &s.batch, &warm, &cost)
            .map_err(|e| e.to_string())?;
    }
    // `--faults` on a single device, or on the `--gpus N` pool members
    // its `lose:` clauses address.
    let pool = device_pool(gpus, s.budget, fault_plan.as_ref())?;
    let cfg = ServeConfig {
        max_batch,
        max_wait: max_wait_ms / 1e3,
        queue_depth,
        shed_policy,
        deadline,
        recovery,
    };
    let report =
        serve_trace(&engine, &s.ds, &pool, &cost, &trace, &cfg).map_err(|e| e.to_string())?;
    println!(
        "served {} requests in {} batches ({} micro-batches) under {:.2} GB budget",
        report.requests.len(),
        report.num_batches,
        report.num_micro_batches,
        report.budget_bytes as f64 / 1e9
    );
    println!(
        "admission: offered {}, completed {}, shed {}, missed {} (policy {}, queue depth {}, deadline {})",
        report.num_admitted,
        report.requests.len(),
        report.shed.len(),
        report.deadline_missed.len(),
        cfg.shed_policy,
        if cfg.queue_depth == usize::MAX {
            "unbounded".to_string()
        } else {
            cfg.queue_depth.to_string()
        },
        cfg.deadline
            .map_or_else(|| "none".to_string(), |d| format!("{:.1}ms", d * 1e3)),
    );
    println!(
        "peak mem {:.2} GB, span {:.3}s, throughput {:.1} req/s",
        report.peak_mem_bytes as f64 / 1e9,
        report.span_seconds,
        report.throughput_rps
    );
    let l = &report.latency;
    println!(
        "latency: mean {:.3}ms p50 {:.3}ms p95 {:.3}ms p99 {:.3}ms max {:.3}ms",
        l.mean * 1e3,
        l.p50 * 1e3,
        l.p95 * 1e3,
        l.p99 * 1e3,
        l.max * 1e3
    );
    let rc = report.recovery_counts();
    if rc.total() > 0 || fault_plan.is_some() || gpus.is_some() {
        println!(
            "recovery: {} retries, {} degrades, {} re-splits, {} failovers (effective batch width {})",
            rc.retries, rc.degrades, rc.resplits, rc.failovers, report.effective_max_batch
        );
        for ev in &report.recovery {
            if matches!(ev.action, RecoveryAction::DeviceLost { .. }) {
                println!("failover: dispatch {ev}");
            }
        }
    }
    print_device_summary(&pool, fault_plan.is_some(), gpus.is_some());
    // `answers:` folds only (index, node, class) — the fault-invariant
    // digest ci.sh compares between a chaos run and its fault-free twin.
    // `digest:` adds latency bits and the shed/missed ledgers: the full
    // replay-identity digest.
    println!("answers: {:016x}", report.answer_digest);
    println!("digest: {:016x}", report.output_digest);
    if quiet == 0 {
        // Per-request answers with bit-exact latency: ci.sh diffs these
        // lines between two runs to prove deterministic replay.
        for r in &report.requests {
            println!(
                "out {:>6} {:>8} {:>4} {:016x}",
                r.index,
                r.node,
                r.class,
                r.latency.to_bits()
            );
        }
    }
    if let Some(path) = opts.flags.get("json") {
        std::fs::write(path, report.to_json("rtx6000")).map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_compare(target: &str, opts: &Options) -> Result<(), String> {
    let s = setup(target, opts, "10,25")?;
    let k: usize = opts.get("k", 8)?;
    let cost = CostModel::rtx6000();
    let device = device_pool(None, s.budget, None)?;
    let unlimited = device_pool(None, u64::MAX, None)?;
    let ctx = SimContext {
        shape: &s.shape,
        fanouts: &s.fanouts,
        clustering: s.clustering,
        original: &s.ds.graph,
    };
    println!(
        "{:>8} {:>6} {:>12} {:>12} {:>12}",
        "system", "K", "time", "peak mem", "status"
    );
    for strategy in [
        Strategy::Full,
        Strategy::Buffalo,
        Strategy::Betty { k },
        Strategy::Metis { k },
        Strategy::Random { k, seed: 3 },
        Strategy::Range { k },
    ] {
        let dev = if matches!(strategy, Strategy::Full | Strategy::Buffalo) {
            &device
        } else {
            &unlimited
        };
        match simulate_iteration(&s.batch, ctx, strategy, dev, &cost) {
            Ok(rep) => println!(
                "{:>8} {:>6} {:>11.2}s {:>9.2}GB {:>12}",
                strategy.name(),
                rep.num_micro_batches,
                rep.phases.total(),
                rep.peak_mem_bytes as f64 / 1e9,
                "ok"
            ),
            Err(e) => println!(
                "{:>8} {:>6} {:>12} {:>12} {:>12}",
                strategy.name(),
                "-",
                "-",
                "-",
                truncate(&e.to_string(), 40)
            ),
        }
    }
    Ok(())
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sizes() {
        assert_eq!(parse_bytes("24G").unwrap(), 24 << 30);
        assert_eq!(parse_bytes("512M").unwrap(), 512 << 20);
        assert_eq!(parse_bytes("1k").unwrap(), 1 << 10);
        assert_eq!(parse_bytes("100").unwrap(), 100);
        assert_eq!(
            parse_bytes("1.5G").unwrap(),
            (1.5 * (1u64 << 30) as f64) as u64
        );
        assert!(parse_bytes("abc").is_err());
    }

    #[test]
    fn parses_fanouts_and_aggregators() {
        assert_eq!(parse_fanouts("10,25").unwrap(), vec![10, 25]);
        assert_eq!(parse_fanouts("5, 10, 15").unwrap(), vec![5, 10, 15]);
        assert!(parse_fanouts("a,b").is_err());
        assert_eq!(parse_agg("lstm").unwrap(), AggregatorKind::Lstm);
        assert_eq!(parse_agg("gat").unwrap(), AggregatorKind::Attention);
        assert!(parse_agg("median").is_err());
    }

    #[test]
    fn parses_pipeline_toggle() {
        assert_eq!(parse_pipeline("on").unwrap(), PipelineConfig::overlapped());
        assert_eq!(parse_pipeline("off").unwrap(), PipelineConfig::serial());
        assert!(parse_pipeline("maybe").is_err());
    }

    #[test]
    fn options_split_flags_and_positionals() {
        let args: Vec<String> = ["cora", "--budget", "4G", "-o", "x.bin"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = Options::parse(&args).unwrap();
        assert_eq!(o.positional, vec!["cora"]);
        assert_eq!(o.flags.get("budget").unwrap(), "4G");
        assert_eq!(o.flags.get("o").unwrap(), "x.bin");
        assert!(Options::parse(&["--budget".to_string()]).is_err());
    }

    #[test]
    fn load_graph_rejects_nonsense() {
        assert!(load_graph("not-a-dataset-or-file").is_err());
    }

    #[test]
    fn stats_runs_on_cora() {
        cmd_stats("cora").unwrap();
    }
}
