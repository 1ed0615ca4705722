//! Trainable parameter: value, gradient, and optimizer state.

use crate::tensor::Tensor;

/// A trainable parameter tensor with its gradient accumulator and Adam
/// moment estimates.
///
/// Gradient *accumulation* across micro-batches — Algorithm 2's
/// `AccumulatePartialGradients` — falls out naturally: backward passes call
/// [`accumulate`](Self::accumulate) and the optimizer only runs once all
/// micro-batches of an iteration have been processed.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient.
    pub grad: Tensor,
    /// Adam first-moment estimate.
    pub m: Tensor,
    /// Adam second-moment estimate.
    pub v: Tensor,
}

impl Param {
    /// A parameter initialized with Xavier-uniform values.
    pub fn xavier(rows: usize, cols: usize, seed: u64) -> Self {
        Param::from_value(Tensor::xavier(rows, cols, seed))
    }

    /// A parameter initialized to zeros (biases).
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        Param::from_value(Tensor::zeros(rows, cols))
    }

    /// Wraps an existing value tensor.
    pub(crate) fn from_value(value: Tensor) -> Self {
        let (r, c) = (value.rows(), value.cols());
        Param {
            value,
            grad: Tensor::zeros(r, c),
            m: Tensor::zeros(r, c),
            v: Tensor::zeros(r, c),
        }
    }

    /// Adds `g` into the gradient accumulator.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn accumulate(&mut self, g: &Tensor) {
        self.grad.add_assign(g);
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_sums_gradients() {
        let mut p = Param::zeros(1, 2);
        let g = Tensor::from_vec(1, 2, vec![1.0, 2.0]);
        p.accumulate(&g);
        p.accumulate(&g);
        assert_eq!(p.grad.data(), &[2.0, 4.0]);
        p.zero_grad();
        assert_eq!(p.grad.data(), &[0.0, 0.0]);
    }
}
