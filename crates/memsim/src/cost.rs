//! Analytical compute/transfer cost model.
//!
//! Converts counted work (FLOPs, bytes) into simulated seconds using
//! published device characteristics. CPU-side phases of Buffalo
//! (scheduling, partitioning, block generation) are *really executed and
//! really timed*; only the device-side dense math and PCIe transfers go
//! through this model, because this reproduction has no GPU.

use crate::shape::GnnShape;
use buffalo_blocks::Block;

/// Device characteristics for time simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Peak sustained fp32 throughput in FLOP/s.
    pub flops_per_sec: f64,
    /// Device memory bandwidth in bytes/s (bounds aggregation kernels).
    pub device_bw: f64,
    /// Host→device transfer bandwidth in bytes/s (PCIe).
    pub transfer_bw: f64,
    /// Fixed overhead per kernel launch, seconds.
    pub kernel_overhead: f64,
    /// Fixed overhead per micro-batch, seconds: allocator churn,
    /// host–device synchronization, and framework dispatch — the cost
    /// that makes minimizing the number of bucket groups worthwhile
    /// (Algorithm 3 "minimizes K to reduce the overhead of data
    /// preparation and loading").
    pub micro_batch_overhead: f64,
    /// Fraction of peak the irregular GNN kernels sustain (0, 1].
    pub efficiency: f64,
}

impl CostModel {
    /// NVIDIA Quadro RTX 6000 (the paper's 24 GB machine): ~16.3 TFLOP/s
    /// fp32, 672 GB/s GDDR6, PCIe 3.0 x16 ≈ 12 GB/s.
    pub fn rtx6000() -> Self {
        CostModel {
            flops_per_sec: 16.3e12,
            device_bw: 672.0e9,
            transfer_bw: 12.0e9,
            kernel_overhead: 8.0e-6,
            micro_batch_overhead: 0.03,
            efficiency: 0.25,
        }
    }

    /// NVIDIA A100 80 GB (the paper's large machine): 19.5 TFLOP/s fp32,
    /// 2039 GB/s HBM2e, PCIe 4.0 x16 ≈ 25 GB/s.
    pub fn a100_80gb() -> Self {
        CostModel {
            flops_per_sec: 19.5e12,
            device_bw: 2039.0e9,
            transfer_bw: 25.0e9,
            kernel_overhead: 6.0e-6,
            micro_batch_overhead: 0.02,
            efficiency: 0.3,
        }
    }

    /// Seconds to move `bytes` from host to device.
    pub fn transfer_seconds(&self, bytes: f64) -> f64 {
        bytes / self.transfer_bw
    }

    /// Simulated seconds for one *training step* (forward + backward +
    /// update) over the given blocks. The backward pass is costed at 2× the
    /// forward FLOPs, the usual rule of thumb.
    pub fn training_seconds(&self, blocks: &[Block], shape: &GnnShape) -> f64 {
        let fwd = training_forward_flops(blocks, shape);
        let agg_bytes = aggregation_bytes(blocks, shape);
        // Per-layer kernels: aggregation + dense transform, forward and
        // backward.
        let kernels = (blocks.len() * 4) as f64;
        self.micro_batch_overhead
            + 3.0 * fwd / (self.flops_per_sec * self.efficiency)
            + 2.0 * agg_bytes / self.device_bw
            + kernels * self.kernel_overhead
    }

    /// Simulated seconds for one *inference step* (forward only) over the
    /// given blocks: 1× the forward FLOPs and aggregation traffic, and
    /// half the per-layer kernels of a training step.
    pub fn inference_seconds(&self, blocks: &[Block], shape: &GnnShape) -> f64 {
        let fwd = training_forward_flops(blocks, shape);
        let agg_bytes = aggregation_bytes(blocks, shape);
        // Per-layer kernels: aggregation + dense transform, forward only.
        let kernels = (blocks.len() * 2) as f64;
        self.micro_batch_overhead
            + fwd / (self.flops_per_sec * self.efficiency)
            + agg_bytes / self.device_bw
            + kernels * self.kernel_overhead
    }
}

/// Forward-pass FLOPs for one step over `blocks` with `shape`.
///
/// Per layer: aggregator work per edge plus the dense transform
/// `2 · in_dim · out_dim` per destination node (self + aggregated paths).
pub fn training_forward_flops(blocks: &[Block], shape: &GnnShape) -> f64 {
    let dims = shape.layer_dims();
    blocks
        .iter()
        .zip(dims.iter())
        .map(|(b, &(i, o))| {
            let edge_flops = shape.aggregator.flops_per_edge(i, o) * b.num_edges() as f64;
            let dense_flops = 2.0 * 2.0 * (i * o) as f64 * b.num_dst() as f64;
            edge_flops + dense_flops
        })
        .sum()
}

/// Bytes the aggregation kernels stream per forward pass (reads of source
/// embeddings plus writes of aggregated outputs).
pub fn aggregation_bytes(blocks: &[Block], shape: &GnnShape) -> f64 {
    let dims = shape.layer_dims();
    blocks
        .iter()
        .zip(dims.iter())
        .map(|(b, &(i, o))| 4.0 * (b.num_edges() * i + b.num_dst() * o) as f64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::AggregatorKind;

    fn toy_blocks() -> Vec<Block> {
        // One layer: 2 dsts, srcs {0,1,2}, edges 0<-{1,2}, 1<-{2}
        vec![Block::from_parts(
            vec![0, 1],
            vec![0, 1, 2],
            vec![0, 2, 3],
            vec![1, 2, 2],
        )]
    }

    #[test]
    fn a100_is_faster_than_rtx6000() {
        let blocks = toy_blocks();
        let shape = GnnShape::new(8, 8, 1, 4, AggregatorKind::Mean);
        let t_rtx = CostModel::rtx6000().training_seconds(&blocks, &shape);
        let t_a100 = CostModel::a100_80gb().training_seconds(&blocks, &shape);
        assert!(t_a100 < t_rtx);
    }

    #[test]
    fn lstm_step_costs_more_than_mean() {
        let blocks = toy_blocks();
        let mean = GnnShape::new(64, 64, 1, 8, AggregatorKind::Mean);
        let lstm = GnnShape::new(64, 64, 1, 8, AggregatorKind::Lstm);
        let m = CostModel::rtx6000();
        assert!(m.training_seconds(&blocks, &lstm) > m.training_seconds(&blocks, &mean));
    }

    #[test]
    fn inference_is_cheaper_than_training() {
        let blocks = toy_blocks();
        let shape = GnnShape::new(8, 8, 1, 4, AggregatorKind::Mean);
        let m = CostModel::rtx6000();
        assert!(m.inference_seconds(&blocks, &shape) < m.training_seconds(&blocks, &shape));
    }

    #[test]
    fn transfer_time_is_linear() {
        let m = CostModel::a100_80gb();
        let t1 = m.transfer_seconds(1e9);
        let t2 = m.transfer_seconds(2e9);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn forward_flops_scale_with_edges() {
        let shape = GnnShape::new(16, 16, 1, 4, AggregatorKind::Mean);
        let small = toy_blocks();
        let big = vec![Block::from_parts(
            vec![0, 1],
            vec![0, 1, 2, 3],
            vec![0, 3, 6],
            vec![1, 2, 3, 2, 3, 0],
        )];
        assert!(training_forward_flops(&big, &shape) > training_forward_flops(&small, &shape));
    }
}
