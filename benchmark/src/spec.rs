//! The benchmark's vocabulary: workload names, metric names, units, kinds,
//! directions and bounds. `BENCHMARK.json` is `manifest()` printed; the
//! README tables repeat the same names and `selftest.sh` checks all three
//! agree with what a run prints.

use crate::json::Json;

/// Bumped whenever a workload's inputs or a metric's definition change, so
/// `compare` refuses to set results of two different rulers side by side.
pub const VERSION: &str = "1";

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 18;
/// Measured seconds per workload under `--quick`.
pub const QUICK_SECONDS: f64 = 1.5;

/// Three kinds of number that are never added to one another: wall is
/// really executed host time or memory, simulated comes from the device
/// cost model or the simulated serving clock, exact is a count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Wall,
    Simulated,
    Exact,
}

impl Kind {
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Wall => "wall",
            Kind::Simulated => "simulated",
            Kind::Exact => "exact",
        }
    }
}

#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub kind: Kind,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse;
    /// only end-to-end metrics have one.
    pub bound: Option<f64>,
}

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "train_arxiv_roomy",
        "default training path, K=1, scalar f32: dense math does most of the work, so a kernel gain shows here and a scheduler gain must not",
    ),
    (
        "train_products_tight",
        "same layers under a 40 MB budget (K>1), bf16 features, vector SIMD, pipeline and checkpoints on: per-micro-batch schedule, restrict and block-gen cost shows here",
    ),
    (
        "plan_products_paper",
        "the paper's regime: whole-split batches, host phases real, device costed, no dense math; sampler, scheduler and block-gen work shows here and nowhere else",
    ),
    (
        "serve_arxiv_poisson",
        "open-loop Poisson serving on the simulated clock beside a trained engine: host cost per request and simulated latency under rate",
    ),
];

fn def(name: &str, unit: &'static str, kind: Kind, higher: bool, bound: Option<f64>) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        kind,
        higher_is_better: higher,
        bound,
    }
}

/// The end-to-end metrics, measured with tracing off. Every workload
/// reports every one; README.md says what each means on each workload.
///
/// Bounds: every bound is at least three times the widest inter-quartile
/// spread that ten runs with ten different seeds showed on the reference
/// box (simulated metrics repeat exactly for one seed; their spread is what
/// the seed moves). Wall time there moves by 2–6 % from run to run after
/// everything README.md lists under "Noise", and by up to 9 % in a bad
/// hour, hence 20 % and not the 10 % the issue asked for; set-up time and
/// peak RSS spread up to 10 %, hence the widest bound the driver allows.
pub fn end_to_end() -> Vec<MetricDef> {
    use Kind::*;
    vec![
        def("setup_s", "s", Wall, false, Some(0.25)),
        def("iter_wall_s", "s", Wall, false, Some(0.20)),
        def("iter_cpu_s", "s", Wall, false, Some(0.20)),
        def("req_host_us", "us", Wall, false, Some(0.20)),
        def("req_cpu_us", "us", Wall, false, Some(0.20)),
        def("peak_rss_mb", "MB", Wall, false, Some(0.25)),
        def("sim_iter_s", "s", Simulated, false, Some(0.01)),
        def("sim_peak_mem_mb", "MB", Simulated, false, Some(0.05)),
        def("sim_p50_ms", "ms", Simulated, false, Some(0.02)),
        def("sim_p99_ms", "ms", Simulated, false, Some(0.01)),
        def("sim_max_rate_rps", "1/s", Simulated, true, Some(0.25)),
    ]
}

/// SIMD backends the kernel probes name. Fixed (not `available()`) so the
/// metric set is the same on every host; a backend the CPU lacks reads 0.
pub const BACKENDS: [&str; 3] = ["scalar", "sse", "avx2"];

/// Span names below the root, in pipeline order.
pub const SPANS: [&str; 15] = [
    "sampling.sample",
    "bucketing.schedule",
    "sampling.restrict",
    "blocks.generate",
    "graph.gather",
    "memsim.alloc",
    "models.forward",
    "tensor.loss",
    "models.backward",
    "memsim.free",
    "tensor.optimizer",
    "checkpoint.save",
    "checkpoint.capture",
    "sampling.isolated",
    "serve.infer",
];

/// The per-layer metrics of the traced run. Times and counts are per
/// iteration (per dispatch on the serving workload); a layer that does no
/// work on a workload reads 0 there.
pub fn per_layer() -> Vec<MetricDef> {
    use Kind::*;
    let mut v = vec![
        def("graph.load_s", "s", Wall, false, None),
        def("graph.bf16_build_s", "s", Wall, false, None),
        def("graph.clustering_s", "s", Wall, false, None),
        def("graph.gather_rows", "count", Exact, false, None),
        def("graph.gather_gbps", "GB/s", Wall, true, None),
        def("sampling.batch_nodes", "count", Exact, false, None),
        def("sampling.batch_edges", "count", Exact, false, None),
        def("sampling.edges_per_s", "1/s", Wall, true, None),
        def("sampling.restrict_calls", "count", Exact, false, None),
        def("sampling.isolated_inflation", "ratio", Exact, false, None),
        def("bucketing.k", "count", Exact, false, None),
        def("bucketing.imbalance", "ratio", Exact, false, None),
        def("bucketing.redundancy_ratio", "ratio", Exact, false, None),
        def("bucketing.est_err_pct", "%", Exact, false, None),
        def("bucketing.est_err_max_pct", "%", Exact, false, None),
        def("blocks.edges", "count", Exact, false, None),
        def("blocks.edges_per_s", "1/s", Wall, true, None),
        def("memsim.alloc_calls", "count", Exact, false, None),
        def("memsim.sim_compute_s", "s", Simulated, false, None),
        def("memsim.sim_transfer_s", "s", Simulated, false, None),
        def("memsim.peak_bytes", "B", Simulated, false, None),
        def("models.forward_gflops", "GFLOP/s", Wall, true, None),
    ];
    for op in ["matmul_nn", "matmul_nt", "matmul_tn"] {
        for b in BACKENDS {
            v.push(def(
                &format!("tensor.{op}_gflops.{b}"),
                "GFLOP/s",
                Wall,
                true,
                None,
            ));
        }
    }
    for (op, unit) in [
        ("axpy_gbps", "GB/s"),
        ("dot_gflops", "GFLOP/s"),
        ("widen_bf16_gbps", "GB/s"),
    ] {
        for b in BACKENDS {
            v.push(def(&format!("simd.{op}.{b}"), unit, Wall, true, None));
        }
    }
    v.extend([
        def("par.matmul_speedup", "ratio", Wall, true, None),
        def("par.aggregate_speedup", "ratio", Wall, true, None),
        def("par.gather_speedup", "ratio", Wall, true, None),
        def("checkpoint.bytes", "B", Exact, false, None),
        def("checkpoint.saves", "count", Exact, false, None),
        def("train.unattributed_s", "s", Wall, false, None),
        def("train.overlap_ratio", "ratio", Wall, true, None),
        def("train.reported_prepare_s", "s", Wall, false, None),
        def("serve.batches", "count", Exact, false, None),
        def("serve.micro_batches", "count", Exact, false, None),
        def("serve.mean_batch", "count", Exact, true, None),
        def("serve.dedup_ratio", "ratio", Exact, true, None),
        def("serve.queue_wait_ms", "ms", Simulated, false, None),
        def("serve.shed", "count", Exact, false, None),
        def("serve.missed", "count", Exact, false, None),
        def("serve.retries", "count", Exact, false, None),
    ]);
    // Every span: self seconds, allocations and allocated megabytes.
    for span in SPANS {
        v.push(def(&format!("{span}_s"), "s", Wall, false, None));
        v.push(def(&format!("{span}.allocs"), "count", Exact, false, None));
        v.push(def(&format!("{span}.alloc_mb"), "MB", Exact, false, None));
    }
    // The allocator's cold state (see `common::Reps`): minor page faults
    // per iteration in the process's first repetition and in the measured
    // ones, and how much slower the first repetition's iterations were.
    v.push(def("alloc.cold_faults", "count", Wall, false, None));
    v.push(def("alloc.warm_faults", "count", Wall, false, None));
    v.push(def("alloc.cold_slowdown", "ratio", Wall, false, None));
    v.push(def("trace.overhead_pct", "%", Wall, false, None));
    v
}

/// `BENCHMARK.json`, built from the tables above.
pub fn manifest() -> Json {
    let better = |d: &MetricDef| {
        Json::str(if d.higher_is_better {
            "higher"
        } else {
            "lower"
        })
    };
    Json::obj(vec![
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(Json::str)
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj(vec![("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                end_to_end()
                    .iter()
                    .map(|d| {
                        Json::obj(vec![
                            ("name", Json::str(d.name.clone())),
                            ("unit", Json::str(d.unit)),
                            ("better", better(d)),
                            (
                                "bound",
                                Json::Num(d.bound.expect("end-to-end metrics have a bound")),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|d| {
                        Json::obj(vec![
                            ("name", Json::str(d.name.clone())),
                            ("unit", Json::str(d.unit)),
                            ("better", better(d)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
