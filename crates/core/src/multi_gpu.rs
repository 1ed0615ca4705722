//! Data-parallel multi-GPU simulation (§V-G).
//!
//! The paper's multi-GPU result is deliberately modest: with micro-batch
//! generation on the CPU unchanged and training only 9–12 % of iteration
//! time, two GPUs shave 3–5 % off the iteration while all-reduce adds
//! 0.9–1.2 %. This module reproduces that arithmetic against real
//! scheduling/generation times: micro-batches are distributed round-robin
//! across simulated devices, device compute overlaps across GPUs, and the
//! gradient all-reduce is costed over the PCIe link.
//!
//! This is an *analytic* driver over [`crate::sim`]; it holds no model
//! state. It now has an *executing* counterpart: the elastic
//! [`DevicePool`](buffalo_memsim::DevicePool) runs real multi-device epochs
//! through the shared [`crate::train::Engine`], round-robin-sharding
//! bucket groups across pool members and surviving whole-device loss
//! mid-epoch via the recovery ladder's failover rung (`--gpus` in the
//! CLI). This module remains the cheap what-if calculator for speedup
//! and all-reduce arithmetic; the pool is where state actually lives.

use crate::sim::{simulate_iteration, SimContext, SimReport, Strategy};
use crate::TrainError;
use buffalo_memsim::{CostModel, DeviceMemory};
use buffalo_sampling::Batch;

/// Result of a simulated data-parallel iteration.
#[derive(Debug, Clone)]
pub struct MultiGpuReport {
    /// End-to-end iteration seconds.
    pub iteration_seconds: f64,
    /// Seconds spent in the gradient all-reduce.
    pub comm_seconds: f64,
    /// CPU-side seconds (scheduling + micro-batch generation), which do
    /// not parallelize across GPUs.
    pub cpu_seconds: f64,
    /// Device compute seconds of the busiest GPU.
    pub max_gpu_seconds: f64,
    /// The underlying single-device simulation.
    pub base: SimReport,
}

/// Simulates one Buffalo iteration over `num_gpus` identical devices with
/// `per_gpu_budget` bytes each, using ring all-reduce over a link with
/// `link_bw` bytes/s.
///
/// # Errors
///
/// * [`TrainError::InvalidConfig`] if `num_gpus == 0`, or if `link_bw` is
///   not a positive finite number (a zero/negative/NaN bandwidth would
///   silently yield an infinite or negative all-reduce time).
/// * Propagates any error from the underlying single-device simulation.
pub fn simulate_data_parallel(
    batch: &Batch,
    ctx: SimContext<'_>,
    per_gpu_budget: u64,
    num_gpus: usize,
    link_bw: f64,
    cost: &CostModel,
) -> Result<MultiGpuReport, TrainError> {
    if num_gpus == 0 {
        return Err(TrainError::InvalidConfig(
            "data-parallel simulation needs at least one GPU (num_gpus = 0)".into(),
        ));
    }
    if !(link_bw.is_finite() && link_bw > 0.0) {
        return Err(TrainError::InvalidConfig(format!(
            "link bandwidth must be a positive finite number of bytes/s (got {link_bw})"
        )));
    }
    let device = DeviceMemory::new(per_gpu_budget);
    let base = simulate_iteration(batch, ctx, Strategy::Buffalo, &device, cost)?;
    // CPU phases stay serial: scheduling + extraction + block generation.
    let cpu_seconds =
        base.phases.scheduling + base.phases.connection_check + base.phases.block_construction;
    // Distribute micro-batch device time round-robin. Without per-micro
    // compute times we approximate by splitting the device phases evenly
    // over micro-batches, which is accurate because Buffalo balances
    // micro-batch sizes (Figure 14: 4–6 % spread).
    let device_total = base.phases.data_loading + base.phases.gpu_compute;
    let m = base.num_micro_batches.max(1);
    let per_micro = device_total / m as f64;
    let mut gpu_time = vec![0.0f64; num_gpus];
    for i in 0..m {
        gpu_time[i % num_gpus] += per_micro;
    }
    let max_gpu_seconds = gpu_time.iter().copied().fold(0.0, f64::max);
    // Ring all-reduce on gradients: 2 (n-1)/n of the parameter bytes.
    let comm_seconds = if num_gpus > 1 {
        let grad_bytes = ctx.shape.parameter_bytes() as f64 / 4.0; // grads only
        2.0 * (num_gpus as f64 - 1.0) / num_gpus as f64 * grad_bytes / link_bw
    } else {
        0.0
    };
    Ok(MultiGpuReport {
        iteration_seconds: cpu_seconds + max_gpu_seconds + comm_seconds,
        comm_seconds,
        cpu_seconds,
        max_gpu_seconds,
        base,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffalo_graph::generators;
    use buffalo_memsim::{AggregatorKind, GnnShape};
    use buffalo_sampling::BatchSampler;

    fn fixture() -> (buffalo_graph::CsrGraph, Batch, GnnShape) {
        let g = generators::barabasi_albert(20_000, 8, 0.5, 4).unwrap();
        let seeds: Vec<u32> = (0..500).collect();
        let batch = BatchSampler::new(vec![10, 25]).sample(&g, &seeds, 1);
        let shape = GnnShape::new(128, 128, 2, 16, AggregatorKind::Lstm);
        (g, batch, shape)
    }

    #[test]
    fn two_gpus_give_modest_speedup() {
        let (g, batch, shape) = fixture();
        let ctx = SimContext {
            shape: &shape,
            fanouts: &[10, 25],
            clustering: 0.3,
            original: &g,
        };
        let cost = CostModel::a100_80gb();
        // A budget tight enough to force several micro-batches.
        let single = simulate_data_parallel(&batch, ctx, u64::MAX, 1, 25e9, &cost).unwrap();
        let budget = single.base.per_micro_mem.iter().copied().max().unwrap() * 3 / 4;
        let one = simulate_data_parallel(&batch, ctx, budget, 1, 25e9, &cost).unwrap();
        let two = simulate_data_parallel(&batch, ctx, budget, 2, 25e9, &cost).unwrap();
        assert!(one.base.num_micro_batches > 1, "budget did not force split");
        // Device time drops with the second GPU; the CPU-side phases are
        // wall-clock measurements that vary between runs, so compare the
        // deterministic device component.
        assert!(two.max_gpu_seconds < one.max_gpu_seconds);
        // The paper's point: the overall reduction is small because
        // CPU-side generation dominates and does not parallelize.
        assert!(two.cpu_seconds > 0.0);
        let device_speedup = one.max_gpu_seconds / two.max_gpu_seconds;
        assert!(
            device_speedup <= 2.0 + 1e-9,
            "speedup {device_speedup} impossibly large"
        );
        assert!(two.comm_seconds > 0.0);
        assert_eq!(one.comm_seconds, 0.0);
    }

    #[test]
    fn zero_gpus_rejected() {
        // Library code must reject bad input with a structured error, not
        // a panic.
        let (g, batch, shape) = fixture();
        let ctx = SimContext {
            shape: &shape,
            fanouts: &[10, 25],
            clustering: 0.3,
            original: &g,
        };
        let err = simulate_data_parallel(&batch, ctx, u64::MAX, 0, 1e9, &CostModel::a100_80gb())
            .unwrap_err();
        assert!(matches!(err, TrainError::InvalidConfig(_)), "{err:?}");
        assert!(err.to_string().contains("at least one GPU"), "{err}");
    }

    #[test]
    fn bogus_link_bandwidth_rejected() {
        // Satellite regression: link_bw <= 0 used to flow into the ring
        // all-reduce formula and come out as comm_seconds = inf (or a
        // negative time), silently poisoning every downstream total.
        let (g, batch, shape) = fixture();
        let ctx = SimContext {
            shape: &shape,
            fanouts: &[10, 25],
            clustering: 0.3,
            original: &g,
        };
        let cost = CostModel::a100_80gb();
        for bad in [0.0, -25e9, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = simulate_data_parallel(&batch, ctx, u64::MAX, 2, bad, &cost).unwrap_err();
            assert!(
                matches!(err, TrainError::InvalidConfig(_)),
                "bw {bad}: {err:?}"
            );
            assert!(err.to_string().contains("bandwidth"), "bw {bad}: {err}");
        }
        // The boundary stays usable: a tiny positive bandwidth is merely
        // slow, not invalid.
        let ok = simulate_data_parallel(&batch, ctx, u64::MAX, 2, 1.0, &cost).unwrap();
        assert!(ok.comm_seconds.is_finite() && ok.comm_seconds > 0.0);
    }
}
