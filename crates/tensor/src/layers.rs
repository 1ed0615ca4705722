//! Layers with explicit forward/backward: `Linear` and `LstmCell`.

use crate::param::Param;
use crate::tensor::Tensor;

/// Fully-connected layer `y = x·W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight, `in_dim × out_dim`.
    pub w: Param,
    /// Bias, `1 × out_dim`.
    pub b: Param,
}

impl Linear {
    /// Xavier-initialized layer.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        Linear {
            w: Param::xavier(in_dim, out_dim, seed),
            b: Param::zeros(1, out_dim),
        }
    }

    /// Forward pass.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut y = x.matmul(&self.w.value);
        y.add_bias(&self.b.value);
        y
    }

    /// Backward pass: accumulates weight/bias gradients and returns the
    /// input gradient.
    pub fn backward(&mut self, x: &Tensor, dy: &Tensor) -> Tensor {
        self.backward_params(x, dy);
        dy.matmul_nt(&self.w.value)
    }

    /// The parameter half of [`backward`](Self::backward) — `w += xᵀ·dy`,
    /// `b += Σ dy` — for a caller that has no use for the input gradient
    /// `dy·Wᵀ` (an untrained input, or one it computes itself).
    pub fn backward_params(&mut self, x: &Tensor, dy: &Tensor) {
        self.w.accumulate(&x.matmul_tn(dy));
        self.b.accumulate(&dy.sum_rows());
    }

    /// Zeroes both gradients.
    pub fn zero_grad(&mut self) {
        self.w.zero_grad();
        self.b.zero_grad();
    }

    /// The layer's parameters, for optimizers.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Cached forward state of one LSTM unroll, needed for backward.
#[derive(Debug, Clone)]
pub struct LstmState {
    xs: Vec<Tensor>,
    /// Per step: gates after nonlinearity, `n × 4h` in (i, f, g, o) order.
    gates: Vec<Tensor>,
    /// Per step: cell state after the step. `cs[t]` is `c_t`.
    cs: Vec<Tensor>,
    /// Per step: hidden state after the step.
    hs: Vec<Tensor>,
}

impl LstmState {
    /// Bytes retained for backward — the quantity that makes the LSTM
    /// aggregator the paper's memory-wall villain.
    pub fn bytes(&self) -> u64 {
        let per = |v: &Vec<Tensor>| v.iter().map(Tensor::bytes).sum::<u64>();
        per(&self.xs) + per(&self.gates) + per(&self.cs) + per(&self.hs)
    }
}

/// A single-layer LSTM unrolled over neighbor sequences — the GraphSAGE
/// LSTM aggregator. Hidden size equals input size so aggregated output can
/// replace a mean over the same embeddings.
#[derive(Debug, Clone)]
pub struct LstmCell {
    /// Input projection `in_dim × 4·h` (gate order i, f, g, o).
    pub w_x: Param,
    /// Recurrent projection `h × 4·h`.
    pub w_h: Param,
    /// Gate bias `1 × 4·h`.
    pub b: Param,
    hidden: usize,
}

impl LstmCell {
    /// Creates a cell with `hidden` units (input dimension must equal
    /// `hidden`).
    pub fn new(hidden: usize, seed: u64) -> Self {
        LstmCell {
            w_x: Param::xavier(hidden, 4 * hidden, seed),
            w_h: Param::xavier(hidden, 4 * hidden, seed.wrapping_add(1)),
            b: Param::zeros(1, 4 * hidden),
            hidden,
        }
    }

    /// Hidden size.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Runs the cell over `seq` (one tensor per step, each `n × hidden`),
    /// returning the final hidden state and the cached state for
    /// backward.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is empty or any step has the wrong width.
    pub fn forward(&self, seq: &[Tensor]) -> (Tensor, LstmState) {
        let mut state = LstmState {
            xs: Vec::with_capacity(seq.len()),
            gates: Vec::with_capacity(seq.len()),
            cs: Vec::with_capacity(seq.len()),
            hs: Vec::with_capacity(seq.len()),
        };
        let h_final = self.unroll(seq, Some(&mut state));
        (h_final, state)
    }

    /// The final hidden state of [`forward`](Self::forward) alone — the
    /// same unroll, keeping nothing for a backward pass.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is empty or any step has the wrong width.
    pub fn final_hidden(&self, seq: &[Tensor]) -> Tensor {
        self.unroll(seq, None)
    }

    /// The unroll behind both entry points; each step is recorded into
    /// `state` when there is one.
    fn unroll(&self, seq: &[Tensor], mut state: Option<&mut LstmState>) -> Tensor {
        assert!(!seq.is_empty(), "LSTM sequence must be non-empty");
        let n = seq[0].rows();
        let h = self.hidden;
        let mut h_prev = Tensor::zeros(n, h);
        let mut c_prev = Tensor::zeros(n, h);
        for x in seq {
            assert_eq!(x.cols(), h, "LSTM step width mismatch");
            assert_eq!(x.rows(), n, "LSTM step batch mismatch");
            let mut z = x.matmul(&self.w_x.value);
            z.add_assign(&h_prev.matmul(&self.w_h.value));
            z.add_bias(&self.b.value);
            // Nonlinearities per gate block.
            let mut gates = z;
            let mut c = Tensor::zeros(n, h);
            let mut h_new = Tensor::zeros(n, h);
            for r in 0..n {
                for j in 0..h {
                    let i_g = sigmoid(gates.get(r, j));
                    let f_g = sigmoid(gates.get(r, h + j));
                    let g_g = gates.get(r, 2 * h + j).tanh();
                    let o_g = sigmoid(gates.get(r, 3 * h + j));
                    gates.set(r, j, i_g);
                    gates.set(r, h + j, f_g);
                    gates.set(r, 2 * h + j, g_g);
                    gates.set(r, 3 * h + j, o_g);
                    let c_val = f_g * c_prev.get(r, j) + i_g * g_g;
                    c.set(r, j, c_val);
                    h_new.set(r, j, o_g * c_val.tanh());
                }
            }
            if let Some(state) = state.as_deref_mut() {
                state.xs.push(x.clone());
                state.gates.push(gates);
                state.cs.push(c.clone());
                state.hs.push(h_new.clone());
            }
            h_prev = h_new;
            c_prev = c;
        }
        h_prev
    }

    /// Backpropagates `dh_final` through the unroll, accumulating weight
    /// gradients and returning the per-step input gradients.
    pub fn backward(&mut self, state: &LstmState, dh_final: &Tensor) -> Vec<Tensor> {
        self.unroll_back(state, dh_final, true)
    }

    /// [`backward`](Self::backward) for a caller that has no use for the
    /// input gradients: the same weight gradients and `dh` recurrence,
    /// without the per-step `dz·W_xᵀ`.
    pub fn backward_params(&mut self, state: &LstmState, dh_final: &Tensor) {
        self.unroll_back(state, dh_final, false);
    }

    /// The reverse unroll behind both entry points; returns the per-step
    /// input gradients, or nothing when `input_grads` is off.
    fn unroll_back(
        &mut self,
        state: &LstmState,
        dh_final: &Tensor,
        input_grads: bool,
    ) -> Vec<Tensor> {
        let steps = state.xs.len();
        let n = dh_final.rows();
        let h = self.hidden;
        let mut dxs = vec![Tensor::zeros(n, h); if input_grads { steps } else { 0 }];
        let h_zero = Tensor::zeros(n, h);
        let mut dh = dh_final.clone();
        let mut dc = Tensor::zeros(n, h);
        for t in (0..steps).rev() {
            let gates = &state.gates[t];
            let c = &state.cs[t];
            let c_prev_val = |r: usize, j: usize| {
                if t == 0 {
                    0.0
                } else {
                    state.cs[t - 1].get(r, j)
                }
            };
            // dz: gradient at the pre-nonlinearity gate block.
            let mut dz = Tensor::zeros(n, 4 * h);
            let mut dc_prev = Tensor::zeros(n, h);
            for r in 0..n {
                for j in 0..h {
                    let i_g = gates.get(r, j);
                    let f_g = gates.get(r, h + j);
                    let g_g = gates.get(r, 2 * h + j);
                    let o_g = gates.get(r, 3 * h + j);
                    let c_t = c.get(r, j);
                    let tanh_c = c_t.tanh();
                    let dh_v = dh.get(r, j);
                    let mut dc_v = dc.get(r, j) + dh_v * o_g * (1.0 - tanh_c * tanh_c);
                    let do_v = dh_v * tanh_c;
                    let di_v = dc_v * g_g;
                    let dg_v = dc_v * i_g;
                    let df_v = dc_v * c_prev_val(r, j);
                    dc_v *= f_g; // flows to c_{t-1}
                    dc_prev.set(r, j, dc_v);
                    dz.set(r, j, di_v * i_g * (1.0 - i_g));
                    dz.set(r, h + j, df_v * f_g * (1.0 - f_g));
                    dz.set(r, 2 * h + j, dg_v * (1.0 - g_g * g_g));
                    dz.set(r, 3 * h + j, do_v * o_g * (1.0 - o_g));
                }
            }
            // Parameter gradients.
            self.w_x.accumulate(&state.xs[t].matmul_tn(&dz));
            let h_prev = if t == 0 { &h_zero } else { &state.hs[t - 1] };
            self.w_h.accumulate(&h_prev.matmul_tn(&dz));
            self.b.accumulate(&dz.sum_rows());
            // Input (`dxs` is empty when none are wanted) and recurrent
            // gradients.
            if let Some(dx) = dxs.get_mut(t) {
                *dx = dz.matmul_nt(&self.w_x.value);
            }
            dh = dz.matmul_nt(&self.w_h.value);
            dc = dc_prev;
        }
        dxs
    }

    /// Zeroes all gradients.
    pub fn zero_grad(&mut self) {
        self.w_x.zero_grad();
        self.w_h.zero_grad();
        self.b.zero_grad();
    }

    /// The cell's parameters, for optimizers.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w_x, &mut self.w_h, &mut self.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_forward_known_values() {
        let mut l = Linear::new(2, 2, 1);
        l.w.value = Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        l.b.value = Tensor::from_vec(1, 2, vec![0.5, -0.5]);
        let y = l.forward(&Tensor::from_vec(1, 2, vec![2.0, 3.0]));
        assert_eq!(y.data(), &[2.5, 2.5]);
    }

    #[test]
    fn linear_gradcheck() {
        let mut l = Linear::new(3, 2, 7);
        let x = Tensor::xavier(4, 3, 9);
        // Loss = sum(y); dy = ones.
        let dy = Tensor::from_vec(4, 2, vec![1.0; 8]);
        l.zero_grad();
        let dx = l.backward(&x, &dy);
        // Numeric check on w[0,0] and x[0,0].
        let eps = 1e-3f32;
        let loss = |l: &Linear, x: &Tensor| l.forward(x).sum();
        let base_w = l.w.value.get(0, 0);
        l.w.value.set(0, 0, base_w + eps);
        let up = loss(&l, &x);
        l.w.value.set(0, 0, base_w - eps);
        let down = loss(&l, &x);
        l.w.value.set(0, 0, base_w);
        let num = (up - down) / (2.0 * eps);
        assert!((num - l.w.grad.get(0, 0)).abs() < 1e-2, "w grad mismatch");
        let mut x2 = x.clone();
        x2.set(0, 0, x.get(0, 0) + eps);
        let up = loss(&l, &x2);
        x2.set(0, 0, x.get(0, 0) - eps);
        let down = loss(&l, &x2);
        let num = (up - down) / (2.0 * eps);
        assert!((num - dx.get(0, 0)).abs() < 1e-2, "x grad mismatch");
    }

    #[test]
    fn lstm_final_state_shape() {
        let cell = LstmCell::new(4, 3);
        let seq: Vec<Tensor> = (0..5).map(|i| Tensor::xavier(2, 4, i)).collect();
        let (h, state) = cell.forward(&seq);
        assert_eq!((h.rows(), h.cols()), (2, 4));
        assert!(state.bytes() > 0);
    }

    #[test]
    fn lstm_state_bytes_grow_with_sequence() {
        let cell = LstmCell::new(4, 3);
        let short: Vec<Tensor> = (0..2).map(|i| Tensor::xavier(2, 4, i)).collect();
        let long: Vec<Tensor> = (0..10).map(|i| Tensor::xavier(2, 4, i)).collect();
        let (_, s1) = cell.forward(&short);
        let (_, s2) = cell.forward(&long);
        assert_eq!(s2.bytes(), 5 * s1.bytes());
    }

    #[test]
    fn lstm_gradcheck_input() {
        let mut cell = LstmCell::new(3, 5);
        let seq: Vec<Tensor> = (0..3).map(|i| Tensor::xavier(2, 3, 10 + i)).collect();
        let (h, state) = cell.forward(&seq);
        let dh = Tensor::from_vec(2, 3, vec![1.0; 6]);
        cell.zero_grad();
        let dxs = cell.backward(&state, &dh);
        let _ = h;
        // Numeric check on seq[1][0,0].
        let eps = 1e-3f32;
        let loss = |cell: &LstmCell, seq: &[Tensor]| cell.forward(seq).0.sum();
        let mut seq2 = seq.clone();
        let base = seq[1].get(0, 0);
        seq2[1].set(0, 0, base + eps);
        let up = loss(&cell, &seq2);
        seq2[1].set(0, 0, base - eps);
        let down = loss(&cell, &seq2);
        let num = (up - down) / (2.0 * eps);
        assert!(
            (num - dxs[1].get(0, 0)).abs() < 5e-2,
            "lstm dx mismatch: numeric {num} vs analytic {}",
            dxs[1].get(0, 0)
        );
    }

    #[test]
    fn lstm_gradcheck_weights() {
        let mut cell = LstmCell::new(2, 21);
        let seq: Vec<Tensor> = (0..2).map(|i| Tensor::xavier(3, 2, 30 + i)).collect();
        let (_, state) = cell.forward(&seq);
        let dh = Tensor::from_vec(3, 2, vec![1.0; 6]);
        cell.zero_grad();
        let _ = cell.backward(&state, &dh);
        let eps = 1e-3f32;
        let loss = |cell: &LstmCell, seq: &[Tensor]| cell.forward(seq).0.sum();
        let base = cell.w_h.value.get(0, 1);
        cell.w_h.value.set(0, 1, base + eps);
        let up = loss(&cell, &seq);
        cell.w_h.value.set(0, 1, base - eps);
        let down = loss(&cell, &seq);
        cell.w_h.value.set(0, 1, base);
        let num = (up - down) / (2.0 * eps);
        assert!(
            (num - cell.w_h.grad.get(0, 1)).abs() < 5e-2,
            "lstm w_h grad mismatch: numeric {num} vs analytic {}",
            cell.w_h.grad.get(0, 1)
        );
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn lstm_rejects_empty_sequence() {
        let cell = LstmCell::new(2, 0);
        let _ = cell.forward(&[]);
    }
}
