//! Optimizers over [`Param`]s.

use crate::param::Param;

/// A first-order optimizer stepping a set of parameters from their
/// accumulated gradients.
pub trait Optimizer {
    /// Applies one update to every parameter and clears its gradient.
    fn step(&mut self, params: &mut [&mut Param]);
}

/// Adam (Kingma & Ba 2015) with bias correction.
#[derive(Debug, Clone, Copy)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    t: u64,
}

impl Adam {
    /// Adam with the standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
        }
    }

    /// Steps taken so far (bias correction depends on this).
    pub fn t(&self) -> u64 {
        self.t
    }

    /// Restores the step counter — used by checkpoint resume, where bias
    /// correction must continue from the snapshot's step, not from zero.
    pub fn set_t(&mut self, t: u64) {
        self.t = t;
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Param]) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for p in params.iter_mut() {
            let n = p.value.data().len();
            for i in 0..n {
                let g = p.grad.data()[i];
                let m = self.beta1 * p.m.data()[i] + (1.0 - self.beta1) * g;
                let v = self.beta2 * p.v.data()[i] + (1.0 - self.beta2) * g * g;
                p.m.data_mut()[i] = m;
                p.v.data_mut()[i] = v;
                let m_hat = m / bc1;
                let v_hat = v / bc2;
                p.value.data_mut()[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    /// Minimizes f(x) = x² from x = 4.
    fn quadratic_descent(mut opt: Adam, iters: usize) -> f32 {
        let mut p = Param::from_value(Tensor::from_vec(1, 1, vec![4.0]));
        for _ in 0..iters {
            let x = p.value.get(0, 0);
            p.grad.set(0, 0, 2.0 * x);
            opt.step(&mut [&mut p]);
        }
        p.value.get(0, 0).abs()
    }

    #[test]
    fn adam_minimizes_quadratic() {
        assert!(quadratic_descent(Adam::new(0.1), 300) < 1e-2);
    }

    #[test]
    fn step_clears_gradients() {
        let mut p = Param::from_value(Tensor::from_vec(1, 1, vec![1.0]));
        p.grad.set(0, 0, 1.0);
        Adam::new(0.5).step(&mut [&mut p]);
        assert_eq!(p.grad.get(0, 0), 0.0);
        // Adam's first bias-corrected step moves by `lr` against the sign.
        assert!((p.value.get(0, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn adam_state_persists_across_steps() {
        let mut p = Param::from_value(Tensor::from_vec(1, 1, vec![1.0]));
        let mut adam = Adam::new(0.01);
        p.grad.set(0, 0, 1.0);
        adam.step(&mut [&mut p]);
        let m_after_one = p.m.get(0, 0);
        assert!(m_after_one > 0.0);
        p.grad.set(0, 0, 1.0);
        adam.step(&mut [&mut p]);
        assert!(p.m.get(0, 0) > m_after_one);
    }
}
