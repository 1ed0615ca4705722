//! Exact (ground-truth) memory accounting from generated blocks.
//!
//! Given the actual blocks of a micro-batch, the training footprint can be
//! counted exactly: every retained tensor's size follows from block node
//! and edge counts and the model shape. This plays the role of the
//! "profiling from actual GPU training" that the paper's analytical
//! estimator is validated against (Table III), and it is what the
//! [`crate::DeviceMemory`] allocations in the trainers are sized from.

use crate::estimate::LayerCount;
use crate::shape::GnnShape;
use buffalo_blocks::Block;

/// Byte-level breakdown of one micro-batch's training-time footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryBreakdown {
    /// Input feature rows for the innermost layer's source nodes.
    pub features: u64,
    /// Per-layer output activations (retained for backward).
    pub activations: u64,
    /// Aggregator workspace (messages, gate states …) retained for
    /// backward.
    pub workspace: u64,
    /// Parameters, gradients, and optimizer state.
    pub parameters: u64,
    /// Block structure (offsets/indices) resident on device.
    pub structure: u64,
}

impl MemoryBreakdown {
    /// The training footprint of a micro-batch with the given per-layer
    /// counts, input layer first — the one statement of the accounting
    /// (all tensors fp32):
    ///
    /// * features: `num_src(innermost) × feat_dim`
    /// * per layer `l`: activations `num_dst × out_dim`; workspace
    ///   `num_edges × in_dim × aggregator.workspace_floats_per_edge_dim()`
    /// * parameters: weights + grads + Adam moments
    /// * structure: the raw block arrays
    ///
    /// # Panics
    ///
    /// Panics if `layers.len() != shape.num_layers`.
    pub(crate) fn from_counts(layers: &[LayerCount], shape: &GnnShape) -> Self {
        assert_eq!(
            layers.len(),
            shape.num_layers,
            "layer count must equal model depth"
        );
        let per_edge = shape.aggregator.workspace_floats_per_edge_dim();
        let mut b = MemoryBreakdown {
            features: (layers[0].num_src * shape.feat_dim * 4) as u64,
            parameters: shape.parameter_bytes(),
            ..MemoryBreakdown::default()
        };
        for (layer, &(in_dim, out_dim)) in layers.iter().zip(&shape.layer_dims()) {
            b.activations += (layer.num_dst * out_dim * 4) as u64;
            b.workspace += (layer.num_edges as f64 * in_dim as f64 * per_edge * 4.0) as u64;
            b.structure += layer.structure_bytes();
        }
        b
    }

    /// Total bytes.
    pub fn total(&self) -> u64 {
        self.features + self.activations + self.workspace + self.parameters + self.structure
    }
}

/// The exact training footprint of a micro-batch, from its blocks (input
/// layer first) and the model shape: `MemoryBreakdown::from_counts` over
/// the counts read off each block.
///
/// # Panics
///
/// Panics if `blocks.len() != shape.num_layers`.
pub fn training_memory(blocks: &[Block], shape: &GnnShape) -> MemoryBreakdown {
    let layers: Vec<LayerCount> = blocks.iter().map(LayerCount::of).collect();
    MemoryBreakdown::from_counts(&layers, shape)
}

/// Host→device bytes to load one micro-batch (features + block structure).
///
/// # Panics
///
/// Panics if `blocks.len() != shape.num_layers`.
pub fn transfer_bytes(blocks: &[Block], shape: &GnnShape) -> u64 {
    let m = training_memory(blocks, shape);
    m.features + m.structure
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::AggregatorKind;

    fn two_layer_blocks() -> Vec<Block> {
        // Output layer: dst {0}, src {0,1}; inner layer: dst {0,1}, src {0,1,2}
        let out = Block::from_parts(vec![0], vec![0, 1], vec![0, 1], vec![1]);
        let inner = Block::from_parts(vec![0, 1], vec![0, 1, 2], vec![0, 1, 3], vec![1, 2, 0]);
        vec![inner, out]
    }

    #[test]
    fn feature_bytes_follow_innermost_src() {
        let blocks = two_layer_blocks();
        let shape = GnnShape::new(10, 4, 2, 3, AggregatorKind::Mean);
        let m = training_memory(&blocks, &shape);
        assert_eq!(m.features, (3 * 10 * 4) as u64);
    }

    #[test]
    fn lstm_workspace_dominates_mean() {
        let blocks = two_layer_blocks();
        let mean = GnnShape::new(10, 4, 2, 3, AggregatorKind::Mean);
        let lstm = GnnShape::new(10, 4, 2, 3, AggregatorKind::Lstm);
        let wm = training_memory(&blocks, &mean).workspace;
        let wl = training_memory(&blocks, &lstm).workspace;
        assert_eq!(wl, wm * 10);
    }

    #[test]
    fn totals_add_up() {
        let blocks = two_layer_blocks();
        let shape = GnnShape::new(10, 4, 2, 3, AggregatorKind::MaxPool);
        let m = training_memory(&blocks, &shape);
        assert_eq!(
            m.total(),
            m.features + m.activations + m.workspace + m.parameters + m.structure
        );
        assert!(m.total() > 0);
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn rejects_depth_mismatch() {
        let blocks = two_layer_blocks();
        let shape = GnnShape::new(10, 4, 3, 3, AggregatorKind::Mean);
        let _ = training_memory(&blocks, &shape);
    }

    #[test]
    fn transfer_is_less_than_total() {
        let blocks = two_layer_blocks();
        let shape = GnnShape::new(10, 4, 2, 3, AggregatorKind::Lstm);
        assert!(transfer_bytes(&blocks, &shape) < training_memory(&blocks, &shape).total());
    }
}
