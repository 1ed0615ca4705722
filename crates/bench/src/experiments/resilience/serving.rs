//! `serving` and `serving-chaos`: one warmed engine, one request trace,
//! one scenario runner.
//!
//! `serving` (`BENCH_serving.json`) drives the engine through a seeded
//! Poisson trace with `serve_trace` — the same Prepare/Execute pipeline
//! and bucket scheduler as training, forward-only — under 60 % of the
//! single-dispatch footprint, so the scheduler visibly splits coalesced
//! batches to stay admitted. It reports throughput and the simulated
//! latency distribution, checks the peak stays under the budget, and
//! replays the run: serving is seeded and wall-clock-free, so the
//! per-request output digests must match bitwise.
//!
//! `serving-chaos` (`BENCH_serving_chaos.json`) takes that run as its
//! baseline and replays the trace under faults and overload:
//!
//! 1. **Answers never move.** Per-request neighborhoods are sampled in
//!    isolation, so transient faults, re-splits and whole-device failover
//!    may change *when* a request is answered but never *what* the answer
//!    is: every completed request's class — and, when nothing was shed,
//!    the folded `answer_digest` — equals the baseline's.
//! 2. **Admitted work completes**, and the books balance exactly
//!    (`offered = completed + shed + missed`).
//! 3. **Latency pays, quantified**: the p50/p95/p99 deltas against the
//!    baseline are the simulated price of retries, backoff and failover.

use super::{light_config, lose_spec, pool, tight_budget};
use crate::context::{load_workload_with, Workload};
use crate::output::{check_artifact, mem, print_document};
use buffalo_core::json::Json;
use buffalo_core::serve::{serve_trace, RequestTrace, ServeConfig, ServeReport, ServedRequest};
use buffalo_core::train::Engine;
use buffalo_graph::datasets::DatasetName;
use buffalo_memsim::{CostModel, DeviceMemory, DevicePool};

const WARMUP_ITERS: usize = 3;
const REQUESTS: usize = 512;

/// A 256-seed Cora batch at fanouts 5,10, the light model warmed on it,
/// a 512-request Poisson trace, and a budget of 60 % of what serving that
/// trace peaks at on a roomy device.
struct Fixture {
    w: Workload,
    cost: CostModel,
    engine: Engine,
    trace: RequestTrace,
    budget: u64,
}

impl Fixture {
    fn new() -> Self {
        let w = load_workload_with(DatasetName::Cora, 256, vec![5, 10], 42);
        let cost = CostModel::rtx6000();
        // A few training iterations, so served predictions come from a
        // trained parameterization, not the init.
        let mut engine = Engine::buffalo(light_config(&w.dataset.spec, &w.fanouts), w.clustering);
        let warm = DeviceMemory::with_gib(24.0);
        for _ in 0..WARMUP_ITERS {
            engine
                .train_iteration(&w.dataset, &w.batch, &warm, &cost)
                .expect("warmup iteration");
        }
        let trace = RequestTrace::poisson(REQUESTS, 256.0, w.dataset.graph.num_nodes(), 7)
            .expect("poisson trace");
        let budget = tight_budget(|roomy| {
            serve_trace(
                &engine,
                &w.dataset,
                roomy,
                &cost,
                &trace,
                &ServeConfig::default(),
            )
            .expect("roomy serve run")
            .peak_mem_bytes
        });
        Fixture {
            w,
            cost,
            engine,
            trace,
            budget,
        }
    }

    /// Serves the trace on a pool of `gpus` budgeted members replaying
    /// `faults`; the pool comes back for its allocation counts and dead
    /// set.
    fn serve(&self, gpus: usize, faults: &str, cfg: &ServeConfig) -> (ServeReport, DevicePool) {
        let pool = pool(gpus, self.budget, faults);
        let report = serve_trace(
            &self.engine,
            &self.w.dataset,
            &pool,
            &self.cost,
            &self.trace,
            cfg,
        )
        .unwrap_or_else(|e| panic!("serve run ({gpus} device(s), faults `{faults}`): {e}"));
        (report, pool)
    }
}

/// Runs the serving experiment — prints the `BENCH_serving.json` payload
/// and the claims it supports — and checks (or, with `write_bench`,
/// rewrites) the file.
///
/// # Errors
///
/// See [`check_artifact`].
pub(crate) fn serving(write_bench: bool) -> Result<(), String> {
    let fx = Fixture::new();
    let cfg = ServeConfig::default();
    let (report, _) = fx.serve(1, "", &cfg);
    let (replay, _) = fx.serve(1, "", &cfg);
    let json = report.to_json("rtx6000");
    print_document(&json, "");
    println!(
        "(budget {} = 60% of the roomy peak; under budget: {}; scheduler split \
         dispatches: {}; replay digest and p99 bitwise identical: {})",
        mem(fx.budget),
        report.peak_mem_bytes <= report.budget_bytes,
        report.num_micro_batches > report.num_batches,
        report.output_digest == replay.output_digest
            && report.latency.p99.to_bits() == replay.latency.p99.to_bits()
    );
    check_artifact("BENCH_serving.json", &json.render(), write_bench)
}

/// Whether every request `r` completed got the baseline's answer for the
/// same trace index. Sheds and misses shrink the set but never change a
/// survivor's answer.
fn answers_match(r: &ServeReport, baseline: &ServeReport) -> bool {
    let answered = |q: &ServedRequest| (q.index, q.node, q.class);
    r.requests
        .iter()
        .all(|q| baseline.requests.iter().any(|b| answered(b) == answered(q)))
}

/// One scenario's `BENCH_serving_chaos.json` row, against the fault-free
/// `baseline`.
fn chaos_row(name: &str, r: &ServeReport, baseline: &ServeReport, answers_match: bool) -> Json {
    // Only a run that completed everything can match the folded digest.
    let full = r.shed.is_empty() && r.deadline_missed.is_empty();
    let digest_match = full && r.answer_digest == baseline.answer_digest;
    let (rc, lat, base) = (r.recovery_counts(), &r.latency, &baseline.latency);
    Json::Object(vec![
        ("scenario", name.into()),
        ("offered", r.num_admitted.into()),
        ("completed", r.requests.len().into()),
        ("shed", r.shed.len().into()),
        ("deadline_missed", r.deadline_missed.len().into()),
        ("retries", rc.retries.into()),
        ("degrades", rc.degrades.into()),
        ("resplits", rc.resplits.into()),
        ("failovers", rc.failovers.into()),
        ("answers_match_baseline", Json::Bool(answers_match)),
        ("answer_digest_match", Json::Bool(digest_match)),
        ("answer_digest", digest(r)),
        ("p50_s", Json::Fixed(lat.p50, 6)),
        ("p95_s", Json::Fixed(lat.p95, 6)),
        ("p99_s", Json::Fixed(lat.p99, 6)),
        ("p50_delta_s", Json::Fixed(lat.p50 - base.p50, 6)),
        ("p95_delta_s", Json::Fixed(lat.p95 - base.p95, 6)),
        ("p99_delta_s", Json::Fixed(lat.p99 - base.p99, 6)),
    ])
}

fn digest(report: &ServeReport) -> Json {
    Json::Str(format!("{:016x}", report.answer_digest))
}

/// Runs the serving chaos suite and checks (or, with `write_bench`,
/// rewrites) `BENCH_serving_chaos.json`.
///
/// # Errors
///
/// See [`check_artifact`].
pub(crate) fn serving_chaos(write_bench: bool) -> Result<(), String> {
    let fx = Fixture::new();
    let cfg = ServeConfig::default();
    let (baseline, _) = fx.serve(1, "", &cfg);
    assert_eq!(
        baseline.requests.len(),
        REQUESTS,
        "fault-free baseline completes everything"
    );

    let mut rows: Vec<Json> = Vec::new();
    let (mut all_accounted, mut all_match) = (true, true);
    let mut run = |name, gpus, faults: &str, cfg: &ServeConfig| {
        let (r, pool) = fx.serve(gpus, faults, cfg);
        all_accounted &=
            r.num_admitted == r.requests.len() + r.shed.len() + r.deadline_missed.len();
        let matched = answers_match(&r, &baseline);
        all_match &= matched;
        rows.push(chaos_row(name, &r, &baseline, matched));
        pool
    };
    // Seeded transient faults on one device: retries and re-splits absorb
    // them.
    run("transient-p20", 1, "transient:p=0.2,seed=11", &cfg);
    // Pooling alone must not move answers; its allocation counts place
    // the loss a third of the way through member 1's run.
    let pool = run("2gpu-fault-free", 2, "", &cfg);
    let lose = lose_spec(&pool.snapshot_position().0, &[(1, 0.34)]);
    let pool = run("2gpu-lose-1", 2, &lose, &cfg);
    assert_eq!(pool.dead(), vec![1], "device 1 must end the run dead");
    // Overload: a queue bound plus deadlines shed work at the admission
    // edge; every survivor still answers exactly like the baseline.
    let overload = ServeConfig {
        max_batch: 8,
        queue_depth: 8,
        deadline: Some(0.04),
        ..cfg
    };
    run("overload-shed", 1, "", &overload);

    let baseline_row = Json::Object(vec![
        ("answer_digest", digest(&baseline)),
        ("p50_s", Json::Fixed(baseline.latency.p50, 6)),
        ("p95_s", Json::Fixed(baseline.latency.p95, 6)),
        ("p99_s", Json::Fixed(baseline.latency.p99, 6)),
    ]);
    let json = Json::Object(vec![
        ("dataset", "cora".into()),
        ("requests", REQUESTS.into()),
        ("budget_bytes", fx.budget.into()),
        ("baseline", baseline_row),
        ("exact_accounting", Json::Bool(all_accounted)),
        ("answers_match_baseline", Json::Bool(all_match)),
        ("scenarios", Json::Array(rows)),
    ]);
    print_document(
        &json,
        "scenario completed shed deadline_missed retries degrades resplits failovers \
         answers_match_baseline p50_s p95_s p99_s",
    );
    check_artifact("BENCH_serving_chaos.json", &json.render(), write_bench)
}
