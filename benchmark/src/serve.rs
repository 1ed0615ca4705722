//! `serve_arxiv_poisson`: `serve_trace` over a seeded Poisson trace, on an
//! engine warmed by two training iterations.
//!
//! Open loop on the *simulated* clock: arrivals are scheduled by the trace
//! and never wait for replies, and `serve_trace` itself times every request
//! from its scheduled arrival, so the generator is never late. The host
//! runs the event loop as fast as it can; `req_host_us` is what that costs.

use crate::common::{measure, ColdStart, Ctx, Fnv, Outcome, PeakDevice, Reps};
use crate::host::{cpu_seconds, low, minor_faults};
use crate::probes;
use crate::trace::{set_counting, Tracer};
use buffalo_core::serve::{serve_trace, RequestTrace, ServeConfig, ServeReport, ServedRequest};
use buffalo_core::train::{Engine, TrainConfig};
use buffalo_graph::datasets::{self, Dataset, DatasetName};
use buffalo_graph::{stats, NodeId};
use buffalo_memsim::{AggregatorKind, CostModel, GnnShape};
use buffalo_par::Parallelism;
use buffalo_sampling::{BatchSampler, SeedBatches};
use std::collections::BTreeMap;
use std::time::Instant;

const NAME: &str = "serve_arxiv_poisson";
const DATASET: DatasetName = DatasetName::OgbnArxiv;
const REQUESTS: usize = 8_192;
const QUICK_REQUESTS: usize = 1_024;
const BUDGET: u64 = 24 << 30;
/// The rate the host-cost and latency metrics are taken at.
const RATE: f64 = 1024.0;
/// The fixed rates `sim_max_rate_rps` picks from, ascending.
const RATES: [f64; 5] = [512.0, 1024.0, 1536.0, 2048.0, 3072.0];
/// Limit on simulated p99 latency for a rate to count as sustained.
const P99_LIMIT_MS: f64 = 150.0;
const WARMUP_ITERS: usize = 2;
const WARMUP_BATCH: usize = 1024;

struct Setup {
    ds: Dataset,
    engine: Engine,
    trace: RequestTrace,
    load_s: f64,
    clustering_s: f64,
    setup_s: f64,
}

fn requests(ctx: &Ctx) -> usize {
    if ctx.quick {
        QUICK_REQUESTS
    } else {
        REQUESTS
    }
}

fn trace(ds: &Dataset, ctx: &Ctx, rate: f64) -> RequestTrace {
    RequestTrace::poisson(requests(ctx), rate, ds.graph.num_nodes(), ctx.seed)
        .expect("valid trace parameters")
}

fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let t0 = Instant::now();
    let par = Parallelism {
        threads: ctx.threads,
        ..Parallelism::auto()
    };
    par.install();
    let ds = datasets::load(DATASET, ctx.seed);
    let load_s = t0.elapsed().as_secs_f64();
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
    let mut engine = Engine::buffalo(config, clustering);
    // The warm-up is the workload's premise, not just cache warming: the
    // serving borrow starts where training left off.
    let seeds = SeedBatches::new(ds.graph.num_nodes(), WARMUP_BATCH, ctx.seed);
    let batch = BatchSampler::new(vec![10, 25]).sample(&ds.graph, seeds.batch(0), ctx.seed);
    let warm = PeakDevice::new(BUDGET);
    for _ in 0..WARMUP_ITERS {
        engine
            .train_iteration(&ds, &batch, &warm, &CostModel::rtx6000())
            .map_err(|e| format!("warm-up iteration failed: {e}"))?;
    }
    let trace = trace(&ds, ctx, RATE);
    Ok(Setup {
        ds,
        engine,
        trace,
        load_s,
        clustering_s,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

fn serve(s: &Setup, trace: &RequestTrace) -> Result<ServeReport, String> {
    serve_trace(
        &s.engine,
        &s.ds,
        &PeakDevice::new(BUDGET),
        &CostModel::rtx6000(),
        trace,
        &ServeConfig::default(),
    )
    .map_err(|e| e.to_string())
}

fn lost(report: &ServeReport) -> u64 {
    (report.shed.len() + report.deadline_missed.len()) as u64
}

/// Splits the served requests back into dispatches: `serve_trace` answers
/// a dispatch's members together, so consecutive requests that complete at
/// the same simulated instant were one coalesced batch.
fn dispatches(report: &ServeReport) -> Vec<&[ServedRequest]> {
    let done = |r: &ServedRequest| r.arrival + r.latency;
    let mut out = Vec::new();
    let mut start = 0;
    for i in 1..=report.requests.len() {
        let boundary = i == report.requests.len()
            || (done(&report.requests[i]) - done(&report.requests[start])).abs() > 1e-9;
        if boundary {
            out.push(&report.requests[start..i]);
            start = i;
        }
    }
    out
}

fn unique_nodes(members: &[ServedRequest]) -> Vec<NodeId> {
    let mut seeds: Vec<NodeId> = members.iter().map(|r| r.node).collect();
    seeds.sort_unstable();
    seeds.dedup();
    seeds
}

pub fn run(ctx: &Ctx) -> Outcome {
    measure(
        ctx,
        |out| run_untraced(ctx, out),
        |out| run_traced(ctx, out),
    )
}

/// One untraced replay of the trace at the base rate, timed from outside.
struct Served {
    wall_s: f64,
    cpu_s: f64,
    minor_faults: f64,
    report: ServeReport,
}

fn served_rep(s: &Setup) -> Result<Served, String> {
    let (cpu0, faults0) = (cpu_seconds(), minor_faults());
    let t = Instant::now();
    let report = serve(s, &s.trace)?;
    Ok(Served {
        wall_s: t.elapsed().as_secs_f64(),
        cpu_s: cpu_seconds() - cpu0,
        minor_faults: minor_faults() - faults0,
        report,
    })
}

fn run_untraced(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let offered = requests(ctx) as u64;
    let (mut p50, mut p99, mut peak) = (Vec::new(), Vec::new(), Vec::new());
    let mut cold = ColdStart::default();
    let mut digest = None;
    let mut last = None;
    let mut reps = Reps::new(ctx.min_reps(), ctx.seconds);
    while let Some(rep) = reps.next_rep() {
        let s = setup(ctx)?;
        out.attempted += offered;
        let served = match served_rep(&s) {
            Ok(served) => served,
            Err(e) => {
                out.failed += offered;
                out.failures.push(format!("serving replay failed: {e}"));
                continue;
            }
        };
        let report = &served.report;
        let batches = report.num_batches as f64;
        out.failed += lost(report);
        out.check(
            report.num_admitted == report.requests.len() + lost(report) as usize,
            || "admitted != completed + shed + missed".into(),
        );
        out.check(report.peak_mem_bytes <= BUDGET, || {
            "device peak exceeds the budget".into()
        });
        out.check(
            *digest.get_or_insert(report.answer_digest) == report.answer_digest,
            || "answer_digest differs between replays of one seed".into(),
        );
        cold.record(rep, served.wall_s / batches, served.minor_faults / batches);
        if rep == 0 {
            continue;
        }
        out.push("setup_s", s.setup_s);
        out.push("iter_wall_s", served.wall_s / batches);
        out.push("iter_cpu_s", served.cpu_s / batches);
        out.push("req_host_us", served.wall_s / offered as f64 * 1e6);
        out.push("req_cpu_us", served.cpu_s / offered as f64 * 1e6);
        p50.push(report.latency.p50 * 1e3);
        p99.push(report.latency.p99 * 1e3);
        peak.push(report.peak_mem_bytes as f64 / 1e6);
        last = Some((s, served.report));
    }
    let (s, at_rate) = last.ok_or("no serving replay completed")?;
    out.notes.push(cold.note("dispatch"));
    out.set_exact("sim_p50_ms", &p50);
    out.set_exact("sim_p99_ms", &p99);
    out.set_exact("sim_peak_mem_mb", &peak);

    // One replay at each other fixed rate: the highest rate that, like
    // every rate below it, keeps simulated p99 within the limit and loses
    // no request. The top rate is past the simulated device's capacity, so
    // there the time per dispatch is the device's service time.
    let mut sustained = 0.0;
    let mut holding = true;
    let mut saturated_dispatch_s = 0.0;
    for rate in RATES {
        let report = if rate == RATE {
            at_rate.clone()
        } else {
            serve(&s, &trace(&s.ds, ctx, rate))?
        };
        holding &= report.latency.p99 * 1e3 <= P99_LIMIT_MS && lost(&report) == 0;
        if holding {
            sustained = rate;
        }
        saturated_dispatch_s = report.span_seconds / report.num_batches as f64;
    }
    out.check(sustained > 0.0, || {
        "no fixed rate met the latency limit".into()
    });
    out.push("sim_max_rate_rps", sustained);
    out.push("sim_iter_s", saturated_dispatch_s);

    Ok(())
}

/// Counts of one traced replay of a report's dispatches.
struct Replayed {
    micro_batches: usize,
    /// Distinct nodes queried, summed over dispatches.
    unique: usize,
    /// Nodes in the isolated batches, summed over dispatches.
    isolated_nodes: usize,
    /// Simulated seconds requests spent queued (latency − service).
    queue_wait_s: f64,
    /// The replay's predictions, folded as `serve_trace` folds its own.
    answer_digest: u64,
}

/// Rebuilds every dispatch of `report` and serves it again through
/// `sample_isolated` and `Engine::infer_with_base`, timed from outside.
fn replay(s: &Setup, report: &ServeReport, tr: &mut Tracer) -> Result<Replayed, String> {
    let cost = CostModel::rtx6000();
    let sampler = BatchSampler::new(s.engine.config().fanouts.clone());
    let device = PeakDevice::new(BUDGET);
    let mut classes: BTreeMap<usize, (NodeId, u32)> = BTreeMap::new();
    let mut out = Replayed {
        micro_batches: 0,
        unique: 0,
        isolated_nodes: 0,
        queue_wait_s: 0.0,
        answer_digest: 0,
    };
    for (d, members) in dispatches(report).into_iter().enumerate() {
        tr.set_iter(d as u64);
        let root = tr.begin("dispatch");
        let seeds = unique_nodes(members);
        let batch = tr.time("sampling.isolated", || {
            sampler.sample_isolated(&s.ds.graph, &seeds, s.trace.seed)
        });
        let stats = tr
            .time("serve.infer", || {
                s.engine
                    .infer_with_base(&s.ds, &batch, &device, &cost, out.micro_batches)
            })
            .map_err(|e| e.to_string())?;
        let by_node: BTreeMap<NodeId, u32> = stats.predictions.iter().copied().collect();
        for r in members {
            let class = *by_node.get(&r.node).ok_or("replay lost a prediction")?;
            classes.insert(r.index, (r.node, class));
            out.queue_wait_s += r.latency - stats.service_seconds;
        }
        tr.end(root);
        out.micro_batches += stats.num_micro_batches;
        out.unique += seeds.len();
        out.isolated_nodes += batch.num_nodes();
    }
    let mut digest = Fnv::new();
    for r in &report.requests {
        let (node, class) = classes[&r.index];
        digest.eat(r.index as u64);
        digest.eat(node as u64);
        digest.eat(class as u64);
    }
    out.answer_digest = digest.0;
    Ok(out)
}

fn run_traced(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let offered = requests(ctx) as u64;
    let mut tr = Tracer::new();
    let mut traced_dispatches = 0u64;
    let (mut untraced_dispatch_s, mut traced_dispatch_s) = (Vec::new(), Vec::new());
    let mut cold = ColdStart::default();
    let mut last = None;
    // Each repetition serves the trace untraced — the dispatches to
    // rebuild, the digest to reproduce, the wall time to set the traced
    // dispatches against — and then replays it traced. Repetition 0 is the
    // warm-up: its spans are thrown away, but its untraced pass, the first
    // thing this process does, is what the `alloc.cold_*` metrics describe.
    let mut reps = Reps::new(if ctx.quick { 1 } else { 2 }, ctx.seconds);
    while let Some(rep) = reps.next_rep() {
        let s = setup(ctx)?;
        let served = served_rep(&s)?;
        let batches = served.report.num_batches as f64;
        let mut warm_tr = Tracer::new();
        set_counting(true);
        let t = Instant::now();
        let replayed = replay(
            &s,
            &served.report,
            if rep == 0 { &mut warm_tr } else { &mut tr },
        );
        let traced_s = t.elapsed().as_secs_f64();
        set_counting(false);
        let replayed = replayed?;
        out.check(
            replayed.answer_digest == served.report.answer_digest,
            || "predictions of the traced replay do not match answer_digest".into(),
        );
        cold.record(rep, served.wall_s / batches, served.minor_faults / batches);
        if rep == 0 {
            continue;
        }
        out.push("graph.load_s", s.load_s);
        out.push("graph.clustering_s", s.clustering_s);
        out.attempted += offered;
        out.failed += lost(&served.report);
        untraced_dispatch_s.push(served.wall_s / batches);
        traced_dispatch_s.push(traced_s / batches);
        traced_dispatches += served.report.num_batches as u64;
        last = Some((s, served.report, replayed));
    }
    tr.write_jsonl(&ctx.out_dir.join(format!("trace_{NAME}.jsonl")))
        .map_err(|e| format!("writing the trace: {e}"))?;
    let (s, report, replayed) = last.expect("at least one repetition ran");
    let untraced_dispatch_s = low(&untraced_dispatch_s);
    cold.metrics(out, untraced_dispatch_s);
    let groups = dispatches(&report);
    out.check(groups.len() == report.num_batches, || {
        format!(
            "rebuilt {} dispatches, serve_trace made {}",
            groups.len(),
            report.num_batches
        )
    });

    // What `sample()` would have gathered for the same seeds, had requests
    // been allowed to share neighbours: the price of per-request isolation.
    let sampler = BatchSampler::new(s.engine.config().fanouts.clone());
    let shared_nodes: usize = groups
        .iter()
        .map(|members| {
            sampler
                .sample(&s.ds.graph, &unique_nodes(members), s.trace.seed)
                .num_nodes()
        })
        .sum();

    let dispatches = groups.len() as f64;
    let served = report.requests.len() as f64;
    out.span_metrics(
        &tr,
        "dispatch",
        traced_dispatches,
        untraced_dispatch_s,
        low(&traced_dispatch_s),
    );
    out.push(
        "sampling.batch_nodes",
        replayed.isolated_nodes as f64 / dispatches,
    );
    out.push(
        "sampling.isolated_inflation",
        replayed.isolated_nodes as f64 / shared_nodes as f64,
    );
    out.push("memsim.peak_bytes", report.peak_mem_bytes as f64);
    out.push("serve.batches", report.num_batches as f64);
    out.push("serve.micro_batches", replayed.micro_batches as f64);
    out.push("serve.mean_batch", served / dispatches);
    out.push("serve.dedup_ratio", served / replayed.unique as f64);
    out.push("serve.queue_wait_ms", replayed.queue_wait_s / served * 1e3);
    out.push("serve.shed", report.shed.len() as f64);
    out.push("serve.missed", report.deadline_missed.len() as f64);
    out.push("serve.retries", report.recovery_counts().retries as f64);
    probes::run(ctx, &s.ds, out);
    Ok(())
}
