//! Gradient-equivalence verification: machine-checkable evidence for the
//! paper's §IV-B claim that Buffalo's micro-batch training is the same
//! computation as whole-batch training.
//!
//! The check compares the *accumulated gradients* the two execution
//! strategies produce from identical weights — the mathematically
//! meaningful quantity. (Comparing weights after several optimizer steps
//! is not robust: Adam divides by √v̂, so a 1e-7 float-reassociation
//! difference in a near-zero gradient can flip a step's sign and push
//! weight trajectories percent-level apart while the computation is still
//! equivalent.)

use crate::models::GnnModel;
use crate::train::{gather, TrainConfig};
use crate::TrainError;
use buffalo_blocks::{generate_blocks_fast, GenerateOptions};
use buffalo_bucketing::BuffaloScheduler;
use buffalo_graph::datasets::Dataset;
use buffalo_sampling::Batch;
use buffalo_tensor::softmax_cross_entropy;

/// Outcome of an equivalence check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EquivalenceReport {
    /// Worst absolute gradient difference between the whole-batch and the
    /// accumulated micro-batch runs, normalized by each tensor's own
    /// maximum gradient magnitude.
    pub max_grad_divergence: f64,
    /// Relative difference between the whole-batch loss and the
    /// accumulated micro-batch loss.
    pub loss_divergence: f64,
    /// Micro-batches Buffalo used (must exceed 1 for the check to be
    /// meaningful).
    pub micro_batches: usize,
}

impl EquivalenceReport {
    /// Whether the two strategies computed the same gradients within f32
    /// reassociation noise.
    pub fn equivalent(&self) -> bool {
        self.micro_batches > 1 && self.max_grad_divergence < 5e-3 && self.loss_divergence < 1e-4
    }
}

/// Runs forward + backward over `blocks_of` a (micro-)batch, accumulating
/// gradients into `model`; returns the summed (not averaged) loss.
fn accumulate(
    model: &mut GnnModel,
    ds: &Dataset,
    batch: &Batch,
    depth: usize,
    divisor: usize,
) -> f64 {
    let blocks = generate_blocks_fast(
        &batch.graph,
        batch.num_seeds,
        depth,
        GenerateOptions::default(),
    );
    let data = gather(ds, batch, &blocks);
    let (logits, cache) = model.forward(&blocks, &data.features);
    let out = softmax_cross_entropy(&logits, &data.labels, Some(divisor));
    model.backward(&blocks, &cache, &out.dlogits);
    out.loss as f64 * data.labels.len() as f64
}

/// Computes whole-batch and Buffalo micro-batch gradients from identical
/// weights and reports the worst divergence.
///
/// # Errors
///
/// Propagates scheduling failures.
pub fn verify_gradient_equivalence(
    ds: &Dataset,
    batch: &Batch,
    config: &TrainConfig,
    clustering: f64,
    budget_bytes: u64,
) -> Result<EquivalenceReport, TrainError> {
    let depth = config.shape.num_layers;
    let n = batch.num_seeds;
    // Whole-batch gradient.
    let mut whole = GnnModel::for_shape(&config.shape, config.seed);
    whole.zero_grad();
    let whole_loss = accumulate(&mut whole, ds, batch, depth, n) / n as f64;
    // Micro-batch gradient accumulation over a Buffalo plan.
    let scheduler = BuffaloScheduler::new(config.shape.clone(), config.fanouts.clone(), clustering);
    let plan = scheduler.schedule(&batch.graph, batch.num_seeds, budget_bytes)?;
    let mut micro = GnnModel::for_shape(&config.shape, config.seed);
    micro.zero_grad();
    let mut micro_loss = 0.0f64;
    let mut micro_batches = 0usize;
    for group in plan.groups.iter().filter(|g| !g.is_empty()) {
        let m = batch.restrict_to_seeds(group);
        micro_loss += accumulate(&mut micro, ds, &m, depth, n);
        micro_batches += 1;
    }
    micro_loss /= n as f64;
    // Compare gradients with per-tensor normalization: the worst absolute
    // entry difference relative to the tensor's own gradient magnitude
    // (the standard `allclose`-style check). Summation-order noise is a
    // uniform ~1e-6 absolute floor in f32 regardless of entry magnitude,
    // so per-entry relative errors on near-zero entries are meaningless.
    let mut max_grad_divergence = 0.0f64;
    let ga = whole.params_mut();
    let gb = micro.params_mut();
    for (a, b) in ga.iter().zip(gb.iter()) {
        let scale = a
            .grad
            .data()
            .iter()
            .fold(0.0f32, |m, &x| m.max(x.abs()))
            .max(1e-9) as f64;
        for (&x, &y) in a.grad.data().iter().zip(b.grad.data()) {
            let d = (x - y).abs() as f64 / scale;
            max_grad_divergence = max_grad_divergence.max(d);
        }
    }
    Ok(EquivalenceReport {
        max_grad_divergence,
        loss_divergence: (whole_loss - micro_loss).abs() / whole_loss.abs().max(1e-9),
        micro_batches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffalo_graph::datasets::{self, DatasetName};
    use buffalo_memsim::{measure, AggregatorKind, GnnShape};
    use buffalo_sampling::BatchSampler;

    fn setup(aggregator: AggregatorKind) -> (Dataset, Batch, TrainConfig, u64) {
        let ds = datasets::load(DatasetName::OgbnArxiv, 13);
        let seeds: Vec<u32> = (0..96).collect();
        let batch = BatchSampler::new(vec![4, 6]).sample(&ds.graph, &seeds, 11);
        let config = TrainConfig {
            shape: GnnShape::new(ds.spec.feat_dim, 16, 2, ds.spec.num_classes, aggregator),
            fanouts: vec![4, 6],
            lr: 0.02,
            seed: 5,
            parallelism: buffalo_par::Parallelism::auto(),
        };
        let blocks =
            generate_blocks_fast(&batch.graph, batch.num_seeds, 2, GenerateOptions::default());
        let whole = measure::training_memory(&blocks, &config.shape).total();
        (ds, batch, config, whole * 7 / 10)
    }

    fn check(aggregator: AggregatorKind) {
        let (ds, batch, config, budget) = setup(aggregator);
        let report = verify_gradient_equivalence(&ds, &batch, &config, 0.2, budget).unwrap();
        assert!(
            report.micro_batches > 1,
            "{aggregator:?}: budget did not force a split"
        );
        assert!(
            report.equivalent(),
            "{aggregator:?}: grads {}, loss {}",
            report.max_grad_divergence,
            report.loss_divergence
        );
    }

    #[test]
    fn mean_gradients_are_equivalent() {
        check(AggregatorKind::Mean);
    }

    #[test]
    fn maxpool_gradients_are_equivalent() {
        check(AggregatorKind::MaxPool);
    }

    #[test]
    fn lstm_gradients_are_equivalent() {
        // Order-sensitive aggregation: requires the order-preserving
        // micro-batch relabeling in `Batch::restrict_to_seeds`.
        check(AggregatorKind::Lstm);
    }

    #[test]
    fn attention_gradients_are_equivalent() {
        check(AggregatorKind::Attention);
    }

    #[test]
    fn different_weights_are_detected() {
        // Sanity: the metric must flag genuinely different gradients.
        let (ds, batch, config, _) = setup(AggregatorKind::Mean);
        let mut a = GnnModel::for_shape(&config.shape, 5);
        let mut b = GnnModel::for_shape(&config.shape, 999);
        a.zero_grad();
        b.zero_grad();
        let _ = accumulate(&mut a, &ds, &batch, 2, batch.num_seeds);
        let _ = accumulate(&mut b, &ds, &batch, 2, batch.num_seeds);
        let mut worst = 0.0f64;
        for (x, y) in a.params_mut().iter().zip(b.params_mut().iter()) {
            for (&u, &v) in x.grad.data().iter().zip(y.grad.data()) {
                worst = worst.max((u - v).abs() as f64 / (1e-6 + u.abs().max(v.abs()) as f64));
            }
        }
        assert!(
            worst > 1e-2,
            "different models must produce different grads"
        );
    }
}
