//! Analytical memory estimation (§IV-D).
//!
//! The two halves of the paper's estimator, as the scheduler uses them:
//!
//! * [`mem_from_counts`] — the paper's *BucketMemEstimator*: the working
//!   memory of the micro-batch a single bucket would generate, computed
//!   from the per-layer counts of its dependency closure by the one
//!   accounting rule the measurement uses
//!   (`MemoryBreakdown::from_counts`).
//! * [`grouping_ratio`] — the discount of the paper's
//!   *RedundancyAwareMemEstimator*: the memory of a *group* of buckets is
//!   **not** the linear sum of the per-bucket estimates, because
//!   micro-batches share input nodes. Each bucket's contribution is
//!   discounted by the grouping ratio of Eq. 1:
//!
//!   ```text
//!   R_group[i] = min(1, I_i / (O_i · D_i · C))        (Eq. 1)
//!   M_group    = Σ  M_est[i] · R_group[i]             (Eq. 2)
//!   ```
//!
//!   where `I`/`O` are the bucket's input/output node counts, `D` its
//!   degree, and `C` the graph's average clustering coefficient. The sum
//!   of Eq. 2 itself is not here: it is the running per-group total
//!   inside `buffalo_bucketing`'s `mem_balanced_grouping`, which opens
//!   each group with its first bucket undiscounted.

use crate::measure::MemoryBreakdown;
use crate::shape::GnnShape;
use buffalo_blocks::Block;

/// Per-bucket statistics the estimators consume. `I`, `O`, and `D` in the
/// paper's notation; all are byproducts of bucketing/micro-batch
/// generation, so collecting them is free (§IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketStats {
    /// `D`: the (sampled) degree shared by the bucket's output nodes.
    pub degree: usize,
    /// `O`: number of output nodes in the bucket.
    pub num_output: usize,
    /// `I`: number of distinct layer-`L` input nodes feeding the bucket.
    pub num_input: usize,
}

/// The grouping ratio `R_group` of Eq. 1.
///
/// Returns 1.0 (perfectly linear, no discount) when the denominator is
/// degenerate (empty bucket, zero degree, or non-positive clustering).
///
/// # Examples
///
/// ```
/// use buffalo_memsim::estimate::{grouping_ratio, BucketStats};
///
/// // 10 outputs of degree 8 reached 60 distinct inputs in a graph with
/// // clustering coefficient 0.4: R = 60 / (10 * 8 * 0.4) = 1.875 -> capped at 1.
/// let r = grouping_ratio(&BucketStats { degree: 8, num_output: 10, num_input: 60 }, 0.4);
/// assert_eq!(r, 1.0);
/// // Same bucket in a highly clustered graph discounts:
/// let r = grouping_ratio(&BucketStats { degree: 8, num_output: 10, num_input: 60 }, 1.0);
/// assert!(r < 1.0);
/// ```
pub fn grouping_ratio(stats: &BucketStats, clustering: f64) -> f64 {
    let denom = stats.num_output as f64 * stats.degree as f64 * clustering;
    if denom <= 0.0 {
        return 1.0;
    }
    (stats.num_input as f64 / denom).min(1.0)
}

/// Per-layer node/edge counts of a bucket's dependency closure, input
/// layer first — the byproduct of micro-batch generation the paper says
/// is free to collect (§IV-D: "`I`, `O` and `D` can be obtained during
/// the micro-batch generation").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerCount {
    /// Destinations of the layer.
    pub num_dst: usize,
    /// Sources of the layer (includes the destinations, MFG convention).
    pub num_src: usize,
    /// Message edges of the layer.
    pub num_edges: usize,
}

impl LayerCount {
    /// The counts of a generated block.
    pub(crate) fn of(block: &Block) -> Self {
        LayerCount {
            num_dst: block.num_dst(),
            num_src: block.num_src(),
            num_edges: block.num_edges(),
        }
    }

    /// Bytes of the layer's block structure resident on device: dst and
    /// src id arrays (`u32`), row offsets (`usize`), edge indices (`u32`).
    pub(crate) fn structure_bytes(&self) -> u64 {
        ((self.num_dst + self.num_src) * 4 + (self.num_dst + 1) * 8 + self.num_edges * 4) as u64
    }
}

/// Closure counts for a whole micro-batch, input layer first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosureCounts {
    /// One entry per layer, `layers[0]` innermost.
    pub layers: Vec<LayerCount>,
}

impl ClosureCounts {
    /// The `I` of Eq. 1: source count of the output layer.
    pub fn output_layer_inputs(&self) -> usize {
        self.layers.last().map_or(0, |l| l.num_src)
    }
}

/// The paper's *BucketMemEstimator* operating on exact closure counts:
/// the total of the accounting [`crate::measure::training_memory`] applies
/// to generated blocks, so a single bucket's estimate is exact and all
/// remaining estimator error comes from the grouping discount of Eq. 1 —
/// which is what Table III quantifies.
///
/// # Panics
///
/// Panics if the closure depth differs from `shape.num_layers`.
pub fn mem_from_counts(counts: &ClosureCounts, shape: &GnnShape) -> u64 {
    MemoryBreakdown::from_counts(&counts.layers, shape).total()
}

/// Relative error (`|est - actual| / actual`) between an estimate and a
/// measured ground truth, as reported in Table III.
///
/// Returns 0.0 when both are zero.
pub fn relative_error(estimated: u64, actual: u64) -> f64 {
    if actual == 0 {
        return if estimated == 0 { 0.0 } else { f64::INFINITY };
    }
    (estimated as f64 - actual as f64).abs() / actual as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::AggregatorKind;

    fn shape() -> GnnShape {
        GnnShape::new(128, 256, 2, 40, AggregatorKind::Lstm)
    }

    #[test]
    fn ratio_caps_at_one() {
        let s = BucketStats {
            degree: 2,
            num_output: 3,
            num_input: 1_000,
        };
        assert_eq!(grouping_ratio(&s, 0.5), 1.0);
    }

    #[test]
    fn ratio_decreases_with_clustering() {
        let s = BucketStats {
            degree: 10,
            num_output: 100,
            num_input: 300,
        };
        let sparse = grouping_ratio(&s, 0.1);
        let dense = grouping_ratio(&s, 0.9);
        assert!(dense < sparse);
    }

    #[test]
    fn ratio_decreases_with_degree() {
        let lo = BucketStats {
            degree: 5,
            num_output: 100,
            num_input: 300,
        };
        let hi = BucketStats {
            degree: 50,
            num_output: 100,
            num_input: 300,
        };
        assert!(grouping_ratio(&hi, 0.5) < grouping_ratio(&lo, 0.5));
    }

    #[test]
    fn degenerate_ratio_is_one() {
        let s = BucketStats {
            degree: 0,
            num_output: 0,
            num_input: 0,
        };
        assert_eq!(grouping_ratio(&s, 0.5), 1.0);
        let s2 = BucketStats {
            degree: 5,
            num_output: 10,
            num_input: 20,
        };
        assert_eq!(grouping_ratio(&s2, 0.0), 1.0);
    }

    #[test]
    fn relative_error_basics() {
        assert_eq!(relative_error(110, 100), 0.1);
        assert_eq!(relative_error(90, 100), 0.1);
        assert_eq!(relative_error(0, 0), 0.0);
        assert!(relative_error(1, 0).is_infinite());
    }

    #[test]
    fn mem_from_counts_matches_measure() {
        use crate::measure;
        use buffalo_blocks::Block;
        // Build real blocks and check the count-based estimate reproduces
        // the measured footprint exactly.
        let out = Block::from_parts(vec![0], vec![0, 1], vec![0, 1], vec![1]);
        let inner = Block::from_parts(vec![0, 1], vec![0, 1, 2], vec![0, 1, 3], vec![1, 2, 0]);
        let blocks = vec![inner, out];
        let shape = GnnShape::new(10, 4, 2, 3, AggregatorKind::Lstm);
        let counts = ClosureCounts {
            layers: blocks.iter().map(LayerCount::of).collect(),
        };
        let measured = measure::training_memory(&blocks, &shape).total();
        assert_eq!(mem_from_counts(&counts, &shape), measured);
    }

    #[test]
    fn output_layer_inputs_reads_last_layer() {
        let counts = ClosureCounts {
            layers: vec![
                LayerCount {
                    num_dst: 10,
                    num_src: 20,
                    num_edges: 30,
                },
                LayerCount {
                    num_dst: 2,
                    num_src: 10,
                    num_edges: 8,
                },
            ],
        };
        assert_eq!(counts.output_layer_inputs(), 10);
    }

    #[test]
    #[should_panic(expected = "model depth")]
    fn mem_from_counts_rejects_depth_mismatch() {
        let counts = ClosureCounts {
            layers: vec![LayerCount {
                num_dst: 1,
                num_src: 1,
                num_edges: 0,
            }],
        };
        let _ = mem_from_counts(&counts, &shape());
    }
}
