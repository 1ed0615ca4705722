//! The standing benchmark: four workloads, end-to-end metrics with tracing
//! off, per-layer metrics from a traced replay through the layers' public
//! functions. See README.md beside this crate's manifest.
//!
//! ```text
//! buffalo-benchmark [--seed N] [--seconds S] [--quick] [--traced]
//!     every workload, each in its own child process; writes out/results.json
//! buffalo-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one workload in this process; the last stdout line is the result JSON
//! buffalo-benchmark compare A.json B.json
//! buffalo-benchmark manifest
//!     prints BENCHMARK.json
//! ```

mod common;
mod compare;
mod host;
mod json;
mod plan;
mod probes;
mod serve;
mod spec;
mod trace;
mod train;

use common::{Ctx, Outcome};
use json::Json;
use spec::{Kind, MetricDef};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

#[global_allocator]
static GLOBAL: trace::CountingAlloc = trace::CountingAlloc;

/// Calibration drift above which a workload's wall metrics are `noisy`.
const NOISE_LIMIT: f64 = 0.05;

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    quick: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            workload: None,
            seed: 42,
            seconds: None,
            traced: false,
            quick: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => o.workload = Some(value()?.clone()),
                "--seed" => o.seed = value()?.parse().map_err(|_| "bad --seed")?,
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|_| "bad --seconds")?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err("--seconds must be positive".into());
                    }
                    o.seconds = Some(s);
                }
                "--trace" => {
                    o.traced = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                "--traced" => o.traced = true,
                "--quick" => o.quick = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(o)
    }

    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            spec::QUICK_SECONDS
        } else {
            spec::RUN_SECONDS as f64
        })
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn result_path(workload: &str, traced: bool) -> PathBuf {
    let suffix = if traced { "_traced" } else { "" };
    out_dir().join(format!("{workload}{suffix}.json"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::run(&args[1..]),
        Some("manifest") => {
            print!("{}", spec::manifest().pretty(2));
            Ok(true)
        }
        _ => Options::parse(&args).and_then(|o| match o.workload.clone() {
            Some(name) => run_one(&name, &o),
            None => run_all(&o),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("buffalo-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload in this process. `Ok(false)` when a check failed.
fn run_one(name: &str, o: &Options) -> Result<bool, String> {
    let (_, why) = spec::WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("creating {:?}: {e}", out_dir()))?;
    let ctx = Ctx {
        seed: o.seed,
        seconds: o.seconds(),
        traced: o.traced,
        quick: o.quick,
        threads: host::kernel_threads(),
        out_dir: out_dir(),
    };
    let load_average = host::load_average();
    let calibration_before = host::calibrate();
    let mut outcome = match name {
        "train_arxiv_roomy" => train::run(&train::ARXIV_ROOMY, &ctx),
        "train_products_tight" => train::run(&train::PRODUCTS_TIGHT, &ctx),
        "plan_products_paper" => plan::run(&ctx),
        "serve_arxiv_poisson" => serve::run(&ctx),
        _ => unreachable!("checked against spec::WORKLOADS above"),
    };
    if !o.traced {
        // Read last: VmHWM at the end of the workload's process.
        outcome.push("peak_rss_mb", host::peak_rss_mb());
    }
    let calibration_after = host::calibrate();
    let noisy = (calibration_after / calibration_before - 1.0).abs() > NOISE_LIMIT;

    let defs = if o.traced {
        spec::per_layer()
    } else {
        spec::end_to_end()
    };
    let measured = assemble(&defs, &mut outcome, o.traced);
    for (def, samples) in &measured {
        let (q1, q3) = host::quartiles(samples);
        println!(
            "{name} {} {} {}  ({}; median {} q1 {q1} q3 {q3} n={})",
            def.name,
            value(def, samples),
            def.unit,
            def.kind.as_str(),
            host::median(samples),
            samples.len()
        );
    }
    for note in &outcome.notes {
        println!("# {name}: {note}");
    }
    if noisy {
        println!(
            "# {name}: noisy — calibration loop took {calibration_before:.4} s before and {calibration_after:.4} s after"
        );
    }
    for failure in &outcome.failures {
        eprintln!("CHECK FAILED {name}: {failure}");
    }
    let correct = outcome.failures.is_empty();

    let metric_json = |(def, samples): &(MetricDef, Vec<f64>)| {
        let (q1, q3) = host::quartiles(samples);
        let mut fields = vec![
            ("name", Json::str(def.name.clone())),
            ("unit", Json::str(def.unit)),
            ("kind", Json::str(def.kind.as_str())),
            (
                "better",
                Json::str(if def.higher_is_better {
                    "higher"
                } else {
                    "lower"
                }),
            ),
            ("value", Json::Num(value(def, samples))),
            ("median", Json::Num(host::median(samples))),
            ("q1", Json::Num(q1)),
            ("q3", Json::Num(q3)),
            ("n", Json::Num(samples.len() as f64)),
        ];
        if let Some(b) = def.bound {
            fields.push(("bound", Json::Num(b)));
        }
        Json::obj(fields)
    };
    let record = Json::obj(vec![
        ("name", Json::str(name)),
        ("why", Json::str(*why)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("noisy", Json::Bool(noisy)),
        ("calibration_before_s", Json::Num(calibration_before)),
        ("calibration_after_s", Json::Num(calibration_after)),
        ("load_average", Json::Num(load_average)),
        (
            "metrics",
            Json::Arr(measured.iter().map(metric_json).collect()),
        ),
    ]);
    let path = result_path(name, o.traced);
    std::fs::write(&path, record.pretty(2)).map_err(|e| format!("writing {path:?}: {e}"))?;

    // The driver's contract: one JSON object as the last line of stdout.
    let metrics = measured
        .iter()
        .map(|(def, samples)| {
            let entry = Json::obj(vec![
                ("value", Json::Num(value(def, samples))),
                ("unit", Json::str(def.unit)),
            ]);
            (def.name.clone(), entry)
        })
        .collect();
    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.compact());
    Ok(correct)
}

/// What a metric reports from its samples: simulated and exact metrics
/// have one; a wall metric reports `host::low` of its repetitions.
fn value(def: &MetricDef, samples: &[f64]) -> f64 {
    match def.kind {
        Kind::Wall => host::low(samples),
        Kind::Simulated | Kind::Exact => host::median(samples),
    }
}

/// Pairs every metric of the run's kind with its samples. An end-to-end
/// metric the workload did not measure is a failed check; a per-layer
/// metric of a layer that did no work on this workload reads 0. A sample
/// under a name the vocabulary lacks is a bug in this crate.
fn assemble(defs: &[MetricDef], outcome: &mut Outcome, traced: bool) -> Vec<(MetricDef, Vec<f64>)> {
    let mut measured = Vec::with_capacity(defs.len());
    for def in defs {
        let samples = match outcome.samples.remove(&def.name) {
            Some(s) if !s.is_empty() => s,
            _ if traced => vec![0.0],
            _ => {
                outcome
                    .failures
                    .push(format!("{} was not measured", def.name));
                vec![0.0]
            }
        };
        if def.kind != Kind::Wall && samples.len() != 1 {
            outcome.failures.push(format!(
                "{} is {} but has {} samples",
                def.name,
                def.kind.as_str(),
                samples.len()
            ));
        }
        measured.push((def.clone(), samples));
    }
    for name in outcome.samples.keys() {
        outcome
            .failures
            .push(format!("sample under unknown metric name `{name}`"));
    }
    measured
}

/// Runs every workload, one child process each, so `peak_rss_mb` and the
/// noise guard are per workload and nothing else loads the machine.
fn run_all(o: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut ok = true;
    let mut records = Vec::new();
    for (name, _) in spec::WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds().to_string()])
            .args(["--trace", if o.traced { "1" } else { "0" }]);
        if o.quick {
            cmd.arg("--quick");
        }
        let output = cmd.output().map_err(|e| format!("running {name}: {e}"))?;
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        // The child's last line is the driver's JSON; the rows above it
        // are what a person reads.
        lines.pop();
        lines.iter().for_each(|l| println!("{l}"));
        ok &= output.status.success();
        let path = result_path(name, o.traced);
        let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path:?}: {e}"))?;
        records.push(Json::parse(&text).map_err(|e| format!("{path:?}: {e}"))?);
    }
    let results = Json::obj(vec![
        ("benchmark_version", Json::str(spec::VERSION)),
        ("seed", Json::Num(o.seed as f64)),
        ("seconds", Json::Num(o.seconds())),
        ("quick", Json::Bool(o.quick)),
        ("traced", Json::Bool(o.traced)),
        (
            "nproc",
            Json::Num(buffalo_par::Parallelism::auto().threads as f64),
        ),
        ("threads", Json::Num(host::kernel_threads() as f64)),
        ("cpu_features", Json::str(host::cpu_features())),
        ("workloads", Json::Arr(records)),
    ]);
    let name = if o.traced {
        "results_traced.json"
    } else {
        "results.json"
    };
    let path = out_dir().join(name);
    std::fs::write(&path, results.pretty(4)).map_err(|e| format!("writing {path:?}: {e}"))?;
    println!("# wrote {}", path.display());
    Ok(ok)
}
