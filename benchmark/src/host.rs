//! What the benchmark reads from the machine it runs on: summary
//! statistics over repeated samples, process accounting from `/proc`, and
//! the noise guard's calibration loop.

use buffalo_par::Parallelism;
use std::hint::black_box;
use std::time::Instant;

/// Hardware threads the benchmark lets itself see: what the library's
/// default would use, capped so a large box does not change the workloads'
/// shape.
pub fn hardware_threads() -> usize {
    Parallelism::auto().threads.min(4)
}

/// Kernel threads every workload uses: one hardware thread is left for the
/// rest of the machine. With every vCPU of the 2-vCPU reference box busy,
/// wall metrics swung by 9–21 % between runs; with one left free, by 2–4 %.
pub fn kernel_threads() -> usize {
    (hardware_threads() - 1).max(1)
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the "exclusive" method), so the spreads `compare` prints
/// are the spreads the driver computes. A single sample has no spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The value a wall metric reports: the lower quartile of its samples (the
/// minimum of fewer than four). Interference from the rest of the machine
/// only ever slows a repetition down, by tens of percent for seconds at a
/// time on the reference box, so the slow half of the samples says more
/// about the neighbours than about the code; the lower quartile is what
/// the code costs when it is left alone, without resting on one sample.
pub fn low(values: &[f64]) -> f64 {
    if values.len() < 4 {
        values.iter().copied().fold(f64::INFINITY, f64::min)
    } else {
        quartiles(values).0
    }
}

fn proc_file(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// CPU seconds (user + system) this process has consumed, all threads,
/// including threads that have already exited. `/proc/self/schedstat`
/// would give nanoseconds but only for the main thread; the kernel
/// threads and the pipeline's Prepare thread are exactly what
/// `iter_cpu_s` exists to catch, so this reads the process-wide counters
/// in `/proc/self/stat` (USER_HZ = 100 ticks per second, fixed by the
/// Linux ABI).
pub fn cpu_seconds() -> f64 {
    let [utime, stime] = stat_fields([14, 15]);
    (utime + stime) / 100.0
}

/// Minor page faults this process has taken so far, all threads.
pub fn minor_faults() -> f64 {
    let [minflt] = stat_fields([10]);
    minflt
}

/// Fields of `/proc/self/stat`, numbered from 1 as proc(5) numbers them.
fn stat_fields<const N: usize>(which: [usize; N]) -> [f64; N] {
    let stat = proc_file("/proc/self/stat");
    // The command name (field 2) may contain spaces; count from the
    // closing parenthesis, after which field 3 comes first.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    which.map(|n| {
        fields
            .get(n - 3)
            .and_then(|f| f.parse().ok())
            .unwrap_or_else(|| panic!("unexpected /proc/self/stat layout"))
    })
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_file("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .expect("VmHWM in /proc/self/status")
}

/// One-minute load average.
pub fn load_average() -> f64 {
    proc_file("/proc/loadavg")
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .expect("load average in /proc/loadavg")
}

/// CPU features the SIMD layer detected, as a comma-separated list.
pub fn cpu_features() -> String {
    buffalo_simd::detected_features()
        .iter()
        .filter(|(_, on)| *on)
        .map(|(name, _)| *name)
        .collect::<Vec<_>>()
        .join(",")
}

/// Seconds a fixed integer spin loop takes: the fastest of six rounds, the
/// one the rest of the machine disturbed least. Timed before and after
/// every workload: if the two differ by more than 5 % the machine itself
/// changed speed under the workload and its wall metrics are marked noisy.
pub fn calibrate() -> f64 {
    (0..6)
        .map(|_| {
            let t = Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..20_000_000u64 {
                x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
            }
            black_box(x);
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
