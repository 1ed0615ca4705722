//! `compare A.json B.json`: one row per (workload, metric) of two result
//! files, A as the base. A metric with a bound gets a verdict; exits
//! non-zero when any regressed.

use crate::json::Json;

/// Fields that must agree for two result files to be comparable: they fix
/// the inputs (seed, sizes), the code path (threads, CPU features) and the
/// meaning of the numbers (version, traced or not).
const IDENTITY: [&str; 8] = [
    "benchmark_version",
    "seed",
    "seconds",
    "quick",
    "traced",
    "nproc",
    "threads",
    "cpu_features",
];

struct Summary {
    value: f64,
    median: f64,
    q1: f64,
    q3: f64,
}

impl Summary {
    fn of(metric: &Json) -> Option<Summary> {
        Some(Summary {
            value: metric.get("value")?.as_f64()?,
            median: metric.get("median")?.as_f64()?,
            q1: metric.get("q1")?.as_f64()?,
            q3: metric.get("q3")?.as_f64()?,
        })
    }

    /// Distance between the quartiles as a share of the median.
    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn named<'a>(items: &'a [Json], name: &str) -> Option<&'a Json> {
    items
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
}

/// `Ok(false)` when a metric regressed.
pub fn run(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: compare <a.json> <b.json>".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    for field in IDENTITY {
        let (va, vb) = (a.get(field), b.get(field));
        if va.is_none() || va != vb {
            return Err(format!(
                "refusing to compare: `{field}` is {} in {a_path} and {} in {b_path}",
                va.map_or("missing".into(), Json::compact),
                vb.map_or("missing".into(), Json::compact),
            ));
        }
    }
    let empty = Json::Arr(Vec::new());
    let workloads = |j: &'_ Json| j.get("workloads").unwrap_or(&empty).as_arr().to_vec();
    let (wa, wb) = (workloads(&a), workloads(&b));
    let mut regressed = 0;
    println!("workload metric a[q1,q3] b[q1,q3] b/a bound verdict   (a is the base)");
    for work_a in &wa {
        let name = work_a
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        let work_b = named(&wb, name).ok_or_else(|| format!("{b_path} lacks workload {name}"))?;
        let flag = |w: &Json, key: &str| w.get(key).and_then(Json::as_bool).unwrap_or(false);
        let noisy = flag(work_a, "noisy") || flag(work_b, "noisy");
        if !(flag(work_a, "correct") && flag(work_b, "correct")) {
            return Err(format!(
                "refusing to compare: {name} failed its output checks"
            ));
        }
        let metrics_b = work_b.get("metrics").unwrap_or(&empty).as_arr();
        for metric_a in work_a.get("metrics").unwrap_or(&empty).as_arr() {
            let metric = metric_a
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let metric_b = named(metrics_b, metric)
                .ok_or_else(|| format!("{b_path} lacks {name} {metric}"))?;
            let (sa, sb) = match (Summary::of(metric_a), Summary::of(metric_b)) {
                (Some(sa), Some(sb)) => (sa, sb),
                _ => return Err(format!("{name} {metric}: malformed summary")),
            };
            let higher = metric_a.get("better").and_then(Json::as_str) == Some("higher");
            let wall = metric_a.get("kind").and_then(Json::as_str) == Some("wall");
            let ratio = if sa.value == 0.0 {
                if sb.value == 0.0 {
                    1.0
                } else {
                    f64::INFINITY
                }
            } else {
                sb.value / sa.value
            };
            // Positive when B is worse than A, as a share of A.
            let worse = if higher { 1.0 - ratio } else { ratio - 1.0 };
            let (bound_text, verdict) = match metric_a.get("bound").and_then(Json::as_f64) {
                None => ("-".to_string(), "-"),
                Some(bound) => {
                    // A wall number taken while the machine changed speed
                    // settles nothing, whichever way it points.
                    let verdict = if (noisy && wall) || sa.spread().max(sb.spread()) > bound {
                        "unresolved"
                    } else if worse > bound {
                        regressed += 1;
                        "regressed"
                    } else if worse < -bound {
                        "improved"
                    } else {
                        "unchanged"
                    };
                    (format!("{:.0}%", bound * 100.0), verdict)
                }
            };
            let exact = if wall {
                ""
            } else if sa.value.to_bits() == sb.value.to_bits() {
                " identical"
            } else {
                " differs"
            };
            println!(
                "{name} {metric} {:.6}[{:.6},{:.6}] {:.6}[{:.6},{:.6}] {ratio:.4} {bound_text} {verdict}{exact}{}",
                sa.value,
                sa.q1,
                sa.q3,
                sb.value,
                sb.q1,
                sb.q3,
                if noisy && wall { " noisy" } else { "" },
            );
        }
    }
    if regressed > 0 {
        println!("# {regressed} metric(s) regressed");
    }
    Ok(regressed == 0)
}
