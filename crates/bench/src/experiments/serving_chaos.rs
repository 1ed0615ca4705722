//! Serving chaos experiment, written to `BENCH_serving_chaos.json`.
//!
//! Replays the `BENCH_serving.json` workload under injected faults and
//! overload and proves the resilience contract:
//!
//! 1. **Answers never move.** Per-request neighborhoods are sampled in
//!    isolation, so transient faults, re-splits, and whole-device
//!    failover may change *when* a request is answered but never *what*
//!    the answer is. Every completed request's class — and the folded
//!    `answer_digest` for full-completion scenarios — must be bitwise
//!    identical to the fault-free baseline.
//! 2. **Admitted work completes.** 100 % of admitted, non-shed requests
//!    finish despite the fault plan; the books balance exactly
//!    (`offered = completed + shed + missed`).
//! 3. **Latency pays, quantified.** The p50/p95/p99 deltas against the
//!    fault-free baseline are the measured price of retries, backoff,
//!    and failover penalties.
//!
//! Scenarios: seeded transient faults on one device, a 2-member pool
//! losing device 1 mid-run (fire point derived from the pool baseline's
//! allocation count, as in the failover experiment), and an overload run
//! with a bounded queue plus deadlines whose shed/missed ledgers must
//! account for every offered request.

use crate::context::load_workload_with;
use crate::output::{mem, secs, Table};
use buffalo_core::serve::{serve_trace, RequestTrace, ServeConfig, ServeReport};
use buffalo_core::train::{DevicePool, Engine, TrainConfig};
use buffalo_graph::datasets::DatasetName;
use buffalo_memsim::{AggregatorKind, CostModel, Device, DeviceMemory, FaultPlan, FaultyDevice};
use std::collections::BTreeMap;

const WARMUP_ITERS: usize = 3;

fn light_config(w: &crate::context::Workload) -> TrainConfig {
    TrainConfig {
        shape: w.shape(32, AggregatorKind::Mean),
        fanouts: w.fanouts.clone(),
        lr: 0.01,
        seed: 17,
        parallelism: buffalo_par::Parallelism::auto(),
    }
}

struct Outcome {
    name: String,
    report: ServeReport,
    /// Every completed request's class equals the baseline's for the same
    /// trace index (the composition-independence claim, per request).
    answers_match: bool,
    /// Full-completion scenarios must also match the folded digest.
    digest_match: bool,
}

/// `true` when every request `r` completed and its class equals the
/// baseline class for the same trace index. Sheds/misses shrink the set
/// but never change a survivor's answer.
fn classes_match(baseline: &ServeReport, report: &ServeReport) -> bool {
    let base: BTreeMap<usize, (u32, u32)> = baseline
        .requests
        .iter()
        .map(|r| (r.index, (r.node, r.class)))
        .collect();
    report
        .requests
        .iter()
        .all(|r| base.get(&r.index) == Some(&(r.node, r.class)))
}

/// Runs the serving chaos suite; with `write_bench` it also rewrites
/// `BENCH_serving_chaos.json`.
pub fn serving_chaos(quick: bool, write_bench: bool) {
    let w = load_workload_with(DatasetName::Cora, 256, vec![5, 10], 42);
    let cost = CostModel::rtx6000();

    let mut engine = Engine::buffalo(light_config(&w), w.clustering);
    let warm_dev = DeviceMemory::with_gib(24.0);
    for _ in 0..WARMUP_ITERS {
        engine
            .train_iteration(&w.dataset, &w.batch, &warm_dev, &cost)
            .expect("warmup iteration");
    }

    let n = if quick { 128 } else { 512 };
    let trace =
        RequestTrace::poisson(n, 256.0, w.dataset.graph.num_nodes(), 7).expect("poisson trace");
    let cfg = ServeConfig::default();

    // Same budget derivation as the serving experiment: 60 % of the
    // roomy-device footprint, so the scheduler actively splits dispatches
    // while the chaos plans fire.
    let probe = DeviceMemory::with_gib(24.0);
    let wide =
        serve_trace(&engine, &w.dataset, &probe, &cost, &trace, &cfg).expect("roomy serve run");
    let budget = (wide.peak_mem_bytes * 3 / 5).max(1);

    let baseline = {
        let device = DeviceMemory::new(budget);
        serve_trace(&engine, &w.dataset, &device, &cost, &trace, &cfg).expect("baseline run")
    };
    assert_eq!(
        baseline.requests.len(),
        n,
        "fault-free baseline completes everything"
    );

    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut push = |name: &str, report: ServeReport| {
        let full = report.shed.is_empty() && report.deadline_missed.is_empty();
        outcomes.push(Outcome {
            name: name.to_string(),
            answers_match: classes_match(&baseline, &report),
            digest_match: full && report.answer_digest == baseline.answer_digest,
            report,
        });
    };

    // Scenario: seeded transient faults on a single device. Retries and
    // re-splits absorb them; answers must not move.
    {
        let plan = FaultPlan::parse("transient:p=0.2,seed=11").expect("transient plan");
        let device = FaultyDevice::new(DeviceMemory::new(budget), plan);
        let report =
            serve_trace(&engine, &w.dataset, &device, &cost, &trace, &cfg).expect("transient run");
        push("transient-p20", report);
    }

    // Scenario: a 2-member pool, fault-free — pooling alone must not move
    // answers — and its alloc counts seed the loss fire point below.
    let pool_base_allocs = {
        let pool = DevicePool::homogeneous(2, budget, &FaultPlan::none()).expect("fault-free pool");
        let report =
            serve_trace(&engine, &w.dataset, &pool, &cost, &trace, &cfg).expect("pool run");
        let allocs = pool.snapshot_position().0;
        push("2gpu-fault-free", report);
        allocs
    };

    // Scenario: the pool loses device 1 about a third of the way through
    // its fault-free allocation count; the survivors absorb its work.
    {
        let at = ((pool_base_allocs.get(1).copied().unwrap_or(1) as f64 * 0.34) as u64).max(1);
        let plan = FaultPlan::parse(&format!("lose:1,{at}")).expect("lose plan");
        let pool = DevicePool::homogeneous(2, budget, &plan).expect("lossy pool");
        let report =
            serve_trace(&engine, &w.dataset, &pool, &cost, &trace, &cfg).expect("lose run");
        assert_eq!(pool.dead(), vec![1], "device 1 must end the run dead");
        push("2gpu-lose-1", report);
    }

    // Scenario: overload. A queue bound plus deadlines shed work at the
    // admission edge; every survivor still answers exactly like the
    // baseline and the ledgers balance.
    {
        let device = DeviceMemory::new(budget);
        let overload = ServeConfig {
            max_batch: 8,
            queue_depth: 8,
            deadline: Some(0.04),
            ..cfg
        };
        let report = serve_trace(&engine, &w.dataset, &device, &cost, &trace, &overload)
            .expect("overload run");
        push("overload-shed", report);
    }

    let mut t = Table::new([
        "scenario",
        "completed",
        "shed",
        "missed",
        "retry/degr/split/fail",
        "answers match",
        "p50",
        "p95",
        "p99",
    ]);
    t.row([
        "baseline".to_string(),
        format!("{}/{}", baseline.requests.len(), baseline.num_admitted),
        "0".into(),
        "0".into(),
        "-".into(),
        "-".into(),
        secs(baseline.latency.p50),
        secs(baseline.latency.p95),
        secs(baseline.latency.p99),
    ]);
    for o in &outcomes {
        let r = &o.report;
        let rc = r.recovery_counts();
        t.row([
            o.name.clone(),
            format!("{}/{}", r.requests.len(), r.num_admitted),
            r.shed.len().to_string(),
            r.deadline_missed.len().to_string(),
            format!(
                "{}/{}/{}/{}",
                rc.retries, rc.degrades, rc.resplits, rc.failovers
            ),
            o.answers_match.to_string(),
            secs(r.latency.p50),
            secs(r.latency.p95),
            secs(r.latency.p99),
        ]);
    }
    t.print();
    println!(
        "(budget {} = 60% of roomy peak; `answers match` = every completed \
         request's class equals the fault-free baseline's; full-completion \
         scenarios also fold to the identical answer digest)",
        mem(budget)
    );

    let all_accounted = outcomes.iter().all(|o| {
        o.report.num_admitted
            == o.report.requests.len() + o.report.shed.len() + o.report.deadline_missed.len()
    });
    let all_match = outcomes.iter().all(|o| o.answers_match);
    println!(
        "exact accounting on every scenario: {all_accounted}; \
         answers bitwise identical to baseline: {all_match}"
    );

    let rows: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let r = &o.report;
            let rc = r.recovery_counts();
            format!(
                "    {{\"scenario\": \"{}\", \"offered\": {}, \"completed\": {}, \
                 \"shed\": {}, \"deadline_missed\": {}, \"retries\": {}, \
                 \"degrades\": {}, \"resplits\": {}, \"failovers\": {}, \
                 \"answers_match_baseline\": {}, \"answer_digest_match\": {}, \
                 \"answer_digest\": \"{:016x}\", \"p50_s\": {:.6}, \"p95_s\": {:.6}, \
                 \"p99_s\": {:.6}, \"p50_delta_s\": {:.6}, \"p95_delta_s\": {:.6}, \
                 \"p99_delta_s\": {:.6}}}",
                o.name,
                r.num_admitted,
                r.requests.len(),
                r.shed.len(),
                r.deadline_missed.len(),
                rc.retries,
                rc.degrades,
                rc.resplits,
                rc.failovers,
                o.answers_match,
                o.digest_match,
                r.answer_digest,
                r.latency.p50,
                r.latency.p95,
                r.latency.p99,
                r.latency.p50 - baseline.latency.p50,
                r.latency.p95 - baseline.latency.p95,
                r.latency.p99 - baseline.latency.p99,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"dataset\": \"cora\",\n  \"requests\": {n},\n  \
         \"budget_bytes\": {budget},\n  \"baseline\": {{\"answer_digest\": \
         \"{:016x}\", \"p50_s\": {:.6}, \"p95_s\": {:.6}, \"p99_s\": {:.6}}},\n  \
         \"exact_accounting\": {all_accounted},\n  \
         \"answers_match_baseline\": {all_match},\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        baseline.answer_digest,
        baseline.latency.p50,
        baseline.latency.p95,
        baseline.latency.p99,
        rows.join(",\n")
    );
    crate::output::write_artifact("BENCH_serving_chaos.json", &json, write_bench);
}
