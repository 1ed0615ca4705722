//! GNN model shape description shared by the estimator, the ground-truth
//! measurement, and the cost model.

/// Neighborhood aggregator kind (§II-A). The aggregator dominates working
/// memory: LSTM keeps per-step gate activations for backprop, which is what
/// pushes large graphs over the memory wall in Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregatorKind {
    /// Element-wise mean of neighbor embeddings.
    Mean,
    /// Max-pooling over a learned per-neighbor projection.
    MaxPool,
    /// Sequential LSTM over the neighbor list (GraphSAGE-LSTM).
    Lstm,
    /// Attention-weighted sum (GAT-style).
    Attention,
}

impl AggregatorKind {
    /// Floats of *retained* workspace per message edge, as a multiple of
    /// the layer's input dimension. Retained means kept until the backward
    /// pass — the quantity that actually occupies device memory at peak.
    ///
    /// * `Mean` keeps the gathered neighbor embedding (1×).
    /// * `MaxPool` keeps the projected embedding and its pre-activation
    ///   (2×).
    /// * `Lstm` keeps the four gate activations plus hidden and cell state
    ///   per step (10×) — the paper's motivating blow-up.
    /// * `Attention` is accounted as the standard 8-head GAT: each head
    ///   retains its per-edge message plus attention scores (≈10× total),
    ///   which is why GAT hits the memory wall alongside LSTM in the
    ///   paper's Table IV.
    pub fn workspace_floats_per_edge_dim(&self) -> f64 {
        match self {
            AggregatorKind::Mean => 1.0,
            AggregatorKind::MaxPool => 2.0,
            AggregatorKind::Lstm => 10.0,
            AggregatorKind::Attention => 10.0,
        }
    }

    /// FLOPs per message edge as a multiple of `in_dim × out_dim` work
    /// (dense transform) plus per-edge streaming cost. Used by the cost
    /// model.
    pub fn flops_per_edge(&self, in_dim: usize, out_dim: usize) -> f64 {
        let d_in = in_dim as f64;
        let d_out = out_dim as f64;
        match self {
            AggregatorKind::Mean => 2.0 * d_in,
            AggregatorKind::MaxPool => 2.0 * d_in * d_out / 8.0 + 2.0 * d_in,
            // One LSTM step per edge: 8 h² multiply-adds over 4 gates.
            AggregatorKind::Lstm => 8.0 * d_out * d_out + 8.0 * d_out,
            AggregatorKind::Attention => 4.0 * d_in + 10.0,
        }
    }

    /// Canonical lowercase name.
    pub fn as_str(&self) -> &'static str {
        match self {
            AggregatorKind::Mean => "mean",
            AggregatorKind::MaxPool => "pool",
            AggregatorKind::Lstm => "lstm",
            AggregatorKind::Attention => "attention",
        }
    }
}

impl std::fmt::Display for AggregatorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Shape of a GNN for memory/compute accounting: layer dimensions and the
/// aggregator. `layer_dims()[l] = (in_dim, out_dim)` for layer `l` (input
/// layer first).
#[derive(Debug, Clone, PartialEq)]
pub struct GnnShape {
    /// Input feature dimension.
    pub feat_dim: usize,
    /// Hidden dimension of every intermediate layer.
    pub hidden: usize,
    /// Number of layers (= aggregation depth `L`).
    pub num_layers: usize,
    /// Output dimension (number of classes).
    pub num_classes: usize,
    /// Aggregator used at every layer.
    pub aggregator: AggregatorKind,
}

impl GnnShape {
    /// Convenience constructor.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(
        feat_dim: usize,
        hidden: usize,
        num_layers: usize,
        num_classes: usize,
        aggregator: AggregatorKind,
    ) -> Self {
        assert!(
            feat_dim > 0 && hidden > 0 && num_layers > 0 && num_classes > 0,
            "all shape dimensions must be positive"
        );
        GnnShape {
            feat_dim,
            hidden,
            num_layers,
            num_classes,
            aggregator,
        }
    }

    /// `(in_dim, out_dim)` per layer, input layer first.
    pub fn layer_dims(&self) -> Vec<(usize, usize)> {
        (0..self.num_layers)
            .map(|l| {
                let input = if l == 0 { self.feat_dim } else { self.hidden };
                let output = if l + 1 == self.num_layers {
                    self.num_classes
                } else {
                    self.hidden
                };
                (input, output)
            })
            .collect()
    }

    /// Total parameter count (dense transform per layer; the LSTM
    /// aggregator adds its recurrent weights).
    pub fn num_parameters(&self) -> usize {
        self.layer_dims()
            .iter()
            .map(|&(i, o)| {
                // self transform + neighbor transform + bias
                let base = 2 * i * o + o;
                let agg = match self.aggregator {
                    AggregatorKind::Lstm => 4 * (i * i + i * i + i),
                    AggregatorKind::MaxPool => i * i + i,
                    AggregatorKind::Attention => 2 * i,
                    AggregatorKind::Mean => 0,
                };
                base + agg
            })
            .sum()
    }

    /// Bytes for parameters + gradients + Adam optimizer state (4 copies).
    pub fn parameter_bytes(&self) -> u64 {
        (self.num_parameters() * 4 * 4) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_dims_chain_correctly() {
        let s = GnnShape::new(128, 256, 3, 40, AggregatorKind::Mean);
        assert_eq!(s.layer_dims(), vec![(128, 256), (256, 256), (256, 40)]);
    }

    #[test]
    fn single_layer_goes_straight_to_classes() {
        let s = GnnShape::new(10, 99, 1, 4, AggregatorKind::Mean);
        assert_eq!(s.layer_dims(), vec![(10, 4)]);
    }

    #[test]
    fn lstm_needs_more_workspace_than_mean() {
        assert!(
            AggregatorKind::Lstm.workspace_floats_per_edge_dim()
                > 4.0 * AggregatorKind::Mean.workspace_floats_per_edge_dim()
        );
    }

    #[test]
    fn lstm_has_more_parameters() {
        let mean = GnnShape::new(64, 64, 2, 10, AggregatorKind::Mean);
        let lstm = GnnShape::new(64, 64, 2, 10, AggregatorKind::Lstm);
        assert!(lstm.num_parameters() > mean.num_parameters());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_dims() {
        let _ = GnnShape::new(0, 1, 1, 1, AggregatorKind::Mean);
    }

    #[test]
    fn aggregator_names_round_trip_display() {
        for a in [
            AggregatorKind::Mean,
            AggregatorKind::MaxPool,
            AggregatorKind::Lstm,
            AggregatorKind::Attention,
        ] {
            assert!(!a.to_string().is_empty());
        }
    }
}
