//! Pieces every workload shares: the run context, the repetition loop, the
//! outcome a workload hands back, and a device wrapper that sees what the
//! engine does to the simulated device.

use crate::host::median;
use crate::trace::Tracer;
use buffalo_memsim::{AllocId, Device, DeviceMemory, OomError};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub struct Ctx {
    pub seed: u64,
    /// How long the repetition loop measures.
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
    pub threads: usize,
    pub out_dir: PathBuf,
}

impl Ctx {
    /// Repetitions a run makes however slow the machine is. Medians and
    /// quartiles need five; the smoke run only needs "more than one" so
    /// the across-repetition checks run.
    pub fn min_reps(&self) -> usize {
        if self.quick {
            2
        } else {
            5
        }
    }
}

/// `while let Some(rep) = reps.next_rep() { ... }`. Repetition 0 is the
/// warm-up: it runs like every other but is not recorded and not on the
/// clock. The clock starts with repetition 1, and repetitions go on until
/// another would overrun `seconds`, but at least `min` are measured.
///
/// Why a whole repetition of warm-up: glibc's allocator adapts its mmap and
/// trim thresholds to the largest block freed so far. Until a repetition
/// has freed its dataset, every large tensor is mapped, faulted in and
/// unmapped again on each use, and on a virtual machine the price of those
/// page faults is set by the hypervisor and swings by tens of percent from
/// run to run. The measured repetitions run with the allocator settled;
/// what the cold state costs is printed as a note and shows in the traced
/// run's `alloc.*` metrics, which count instead of timing.
pub struct Reps {
    start: Option<Instant>,
    issued: usize,
    min: usize,
    seconds: f64,
}

impl Reps {
    pub fn new(min: usize, seconds: f64) -> Self {
        Reps {
            start: None,
            issued: 0,
            min,
            seconds,
        }
    }

    /// The index of the repetition to run, or `None` to stop.
    pub fn next_rep(&mut self) -> Option<usize> {
        match self.start {
            None if self.issued == 0 => {}
            None => self.start = Some(Instant::now()),
            Some(start) => {
                let measured = self.issued - 1;
                let elapsed = start.elapsed().as_secs_f64();
                let next = elapsed / measured as f64;
                if measured >= self.min && elapsed + next > self.seconds {
                    return None;
                }
            }
        }
        self.issued += 1;
        Some(self.issued - 1)
    }
}

/// A traced repetition runs the workload twice, untraced and traced, and
/// `trace.overhead_pct` sets one against the other. Whichever goes first
/// pays for growing the heap, so the order alternates between repetitions.
/// `true` is the traced pass.
pub fn pass_order(rep: usize) -> [bool; 2] {
    if rep.is_multiple_of(2) {
        [false, true]
    } else {
        [true, false]
    }
}

/// What a workload measured. `samples` maps a metric name to its samples
/// (one per repetition for wall metrics, a single value for simulated and
/// exact ones); a failed check goes to `failures` and fails the command.
#[derive(Default)]
pub struct Outcome {
    pub samples: BTreeMap<String, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Extra lines for the human-readable output.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// Records a simulated or exact metric measured once per repetition:
    /// the values must agree bit for bit, and one of them is kept.
    pub fn set_exact(&mut self, name: &str, values: &[f64]) {
        let Some(&first) = values.first() else {
            self.failures.push(format!("{name}: no value measured"));
            return;
        };
        if values.iter().any(|v| v.to_bits() != first.to_bits()) {
            self.failures.push(format!(
                "{name} differs between repetitions of one seed: {values:?}"
            ));
        }
        self.samples.insert(name.to_string(), vec![first]);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Per-span metrics of a traced run — `<span>_s`, `<span>.allocs` and
    /// `<span>.alloc_mb` per unit (iteration or dispatch), the root span's
    /// self time — and the two numbers that reconcile the traced passes
    /// with the untraced ones, given each side's wall time per unit.
    pub fn span_metrics(
        &mut self,
        tracer: &Tracer,
        root: &str,
        units: u64,
        untraced_unit_s: f64,
        traced_unit_s: f64,
    ) {
        let per_unit = units.max(1) as f64;
        let (mut layers_s, mut root_s) = (0.0, 0.0);
        for (name, t) in tracer.totals() {
            if name == root {
                root_s += t.self_s;
                self.push("train.unattributed_s", t.self_s / per_unit);
                continue;
            }
            layers_s += t.self_s;
            self.push(&format!("{name}_s"), t.self_s / per_unit);
            self.push(&format!("{name}.allocs"), t.self_allocs / per_unit);
            self.push(
                &format!("{name}.alloc_mb"),
                t.self_alloc_bytes / per_unit / 1e6,
            );
        }
        // The layers' share of the traced unit, against the untraced unit:
        // above 1 only when the engine overlaps work the serial replay
        // does in sequence.
        let layer_share = layers_s / (layers_s + root_s).max(f64::MIN_POSITIVE);
        self.push(
            "train.overlap_ratio",
            layer_share * traced_unit_s / untraced_unit_s,
        );
        self.push(
            "trace.overhead_pct",
            100.0 * (traced_unit_s / untraced_unit_s - 1.0),
        );
    }
}

/// Runs a workload's untraced or traced half, as `ctx` asks, and folds an
/// early error into the outcome as a failed check.
pub fn measure(
    ctx: &Ctx,
    untraced: impl FnOnce(&mut Outcome) -> Result<(), String>,
    traced: impl FnOnce(&mut Outcome) -> Result<(), String>,
) -> Outcome {
    let mut out = Outcome::default();
    let result = if ctx.traced {
        traced(&mut out)
    } else {
        untraced(&mut out)
    };
    if let Err(e) = result {
        out.failures.push(e);
    }
    out
}

/// The untraced passes as the allocator saw them (see [`Reps`]): wall time
/// and minor page faults per unit in the warm-up repetition, faults per
/// unit in the measured ones.
#[derive(Default)]
pub struct ColdStart {
    cold_unit_s: f64,
    cold_faults: f64,
    warm_faults: Vec<f64>,
}

impl ColdStart {
    pub fn record(&mut self, rep: usize, unit_s: f64, faults: f64) {
        if rep == 0 {
            (self.cold_unit_s, self.cold_faults) = (unit_s, faults);
        } else {
            self.warm_faults.push(faults);
        }
    }

    fn warm_faults(&self) -> f64 {
        if self.warm_faults.is_empty() {
            0.0
        } else {
            median(&self.warm_faults)
        }
    }

    /// The line the untraced run prints, `unit` being "iteration" or
    /// "dispatch".
    pub fn note(&self, unit: &str) -> String {
        format!(
            "warm-up repetition (fresh allocator): {:.6} s/{unit}, {:.0} minor faults/{unit}; measured repetitions: {:.0} minor faults/{unit}",
            self.cold_unit_s,
            self.cold_faults,
            self.warm_faults()
        )
    }

    /// The traced run's `alloc.*` metrics; `measured_unit_s` is the
    /// measured repetitions' wall time per unit.
    pub fn metrics(&self, out: &mut Outcome, measured_unit_s: f64) {
        out.push("alloc.cold_faults", self.cold_faults);
        out.push("alloc.warm_faults", self.warm_faults());
        out.push("alloc.cold_slowdown", self.cold_unit_s / measured_unit_s);
    }
}

/// What a traced replay counts while it plans and costs micro-batches —
/// the part `train_*` and `plan_*` share. Sums over `iters` iterations.
#[derive(Default)]
pub struct PlanCounts {
    pub iters: u64,
    /// Micro-batches (non-empty groups).
    pub k: u64,
    pub imbalance: f64,
    /// Input rows summed over micro-batches / nodes of the whole batches.
    pub micro_rows: u64,
    pub whole_rows: u64,
    pub batch_edges: u64,
    pub block_edges: u64,
    pub alloc_calls: u64,
    pub peak_bytes: u64,
    pub sim_compute_s: f64,
    pub sim_transfer_s: f64,
    /// Relative estimator error of each micro-batch.
    pub est_err: Vec<f64>,
    /// Batches in which some seed was not in exactly one group.
    pub bad_partitions: u64,
}

impl PlanCounts {
    pub fn metrics(&self, out: &mut Outcome, tracer: &Tracer) {
        let n = self.iters.max(1) as f64;
        let totals = tracer.totals();
        let rate = |work: u64, span: &str| match totals.get(span) {
            Some(t) if t.self_s > 0.0 => work as f64 / t.self_s,
            _ => 0.0,
        };
        let errs = &self.est_err;
        out.push("sampling.batch_nodes", self.whole_rows as f64 / n);
        out.push("sampling.batch_edges", self.batch_edges as f64 / n);
        out.push(
            "sampling.edges_per_s",
            rate(self.batch_edges, "sampling.sample"),
        );
        out.push("sampling.restrict_calls", self.k as f64 / n);
        out.push("bucketing.k", self.k as f64 / n);
        out.push("bucketing.imbalance", self.imbalance / n);
        out.push(
            "bucketing.redundancy_ratio",
            self.micro_rows as f64 / self.whole_rows.max(1) as f64,
        );
        out.push(
            "bucketing.est_err_pct",
            100.0 * errs.iter().sum::<f64>() / errs.len().max(1) as f64,
        );
        out.push(
            "bucketing.est_err_max_pct",
            100.0 * errs.iter().copied().fold(0.0, f64::max),
        );
        out.push("blocks.edges", self.block_edges as f64 / n);
        out.push(
            "blocks.edges_per_s",
            rate(self.block_edges, "blocks.generate"),
        );
        out.push("memsim.alloc_calls", self.alloc_calls as f64 / n);
        out.push("memsim.sim_compute_s", self.sim_compute_s / n);
        out.push("memsim.sim_transfer_s", self.sim_transfer_s / n);
        out.push("memsim.peak_bytes", self.peak_bytes as f64);
    }
}

/// FNV-1a over little-endian `u64`s — the digest `serve_trace` folds its
/// answers with, repeated here so a replay can be checked against it.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// A plain simulated device that also remembers the highest `in_use` it
/// ever held and how often `alloc` was called. The engine resets the
/// device's own peak every iteration and the epoch driver does not pass
/// per-iteration peaks on, so this is how the benchmark sees the peak over
/// a whole run from outside.
pub struct PeakDevice {
    inner: DeviceMemory,
    max_in_use: AtomicU64,
    alloc_calls: AtomicU64,
}

impl PeakDevice {
    pub fn new(budget: u64) -> Self {
        PeakDevice {
            inner: DeviceMemory::new(budget),
            max_in_use: AtomicU64::new(0),
            alloc_calls: AtomicU64::new(0),
        }
    }

    pub fn max_in_use(&self) -> u64 {
        self.max_in_use.load(Ordering::Relaxed)
    }

    pub fn calls(&self) -> u64 {
        self.alloc_calls.load(Ordering::Relaxed)
    }
}

impl Device for PeakDevice {
    fn alloc(&self, bytes: u64) -> Result<AllocId, OomError> {
        // Relaxed: both counters are statistics read after the run.
        self.alloc_calls.fetch_add(1, Ordering::Relaxed);
        let id = self.inner.alloc(bytes)?;
        self.max_in_use
            .fetch_max(self.inner.in_use(), Ordering::Relaxed);
        Ok(id)
    }
    fn free(&self, id: AllocId) {
        self.inner.free(id);
    }
    fn budget(&self) -> u64 {
        self.inner.budget()
    }
    fn set_budget(&self, bytes: u64) {
        self.inner.set_budget(bytes);
    }
    fn in_use(&self) -> u64 {
        self.inner.in_use()
    }
    fn peak(&self) -> u64 {
        self.inner.peak()
    }
    fn reset_peak(&self) {
        self.inner.reset_peak();
    }
    fn free_all(&self) {
        self.inner.free_all();
    }
}
