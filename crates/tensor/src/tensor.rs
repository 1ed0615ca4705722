//! 2-D row-major f32 tensor.
//!
//! The three GEMM kernels ([`Tensor::matmul`], [`Tensor::matmul_tn`],
//! [`Tensor::matmul_nt`]) share one cache-blocked implementation
//! (`Tensor::gemm`), parallelized over disjoint output-row ranges
//! through [`buffalo_par`] with the inner loops dispatched to the
//! configured [`buffalo_par::SimdBackend`]. Each output element always
//! accumulates its terms in ascending-`p` order, so within a backend
//! results are bit-identical for every thread count (the default scalar
//! backend reproduces the historical bits exactly).

use buffalo_par::{parallel_rows, Parallelism, SimdBackend, DEFAULT_TILE_K, DEFAULT_TILE_N};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// The three dense-product layouts collapsed into `Tensor::gemm`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gemm {
    /// `A · B` — forward projections.
    Nn,
    /// `Aᵀ · B` without materializing the transpose — weight gradients.
    Tn,
    /// `A · Bᵀ` — input gradients.
    Nt,
}

/// Output elements [`nt_row_scalar`] advances side by side.
const NT_BLOCK: usize = 16;

/// `b` (`n × k`) transposed to `k` rows of `n` rounded up to a multiple of
/// [`NT_BLOCK`] (zero padded), so that the `NT_BLOCK` elements
/// [`nt_row_scalar`] reads at each depth `p` are contiguous.
fn nt_pack_scalar(b: &[f32], n: usize, k: usize) -> Vec<f32> {
    let n_pad = n.next_multiple_of(NT_BLOCK);
    let mut bt = vec![0.0f32; k * n_pad];
    for (j, b_row) in b.chunks_exact(k).enumerate() {
        for (p, &v) in b_row.iter().enumerate() {
            bt[p * n_pad + j] = v;
        }
    }
    bt
}

/// One row of a scalar `A · Bᵀ`: `out[j] = Σ_p a[p] · b[j][p]`, with `bt`
/// from [`nt_pack_scalar`]. A lone scalar dot is one dependent add chain
/// and stalls on its latency, so [`NT_BLOCK`] elements advance together
/// (register blocking over `j`, never over `k`): each is still its own
/// full-depth ascending-`p` chain from 0.0, bit for bit what
/// `SimdBackend::Scalar.dot` returns for it.
fn nt_row_scalar(a: &[f32], bt: &[f32], out: &mut [f32]) {
    let n_pad = out.len().next_multiple_of(NT_BLOCK);
    for (o, j0) in out.chunks_mut(NT_BLOCK).zip((0..).step_by(NT_BLOCK)) {
        let mut acc = [0.0f32; NT_BLOCK];
        for (&av, bt_row) in a.iter().zip(bt.chunks_exact(n_pad)) {
            for (s, &bv) in acc.iter_mut().zip(&bt_row[j0..j0 + NT_BLOCK]) {
                *s += av * bv;
            }
        }
        o.copy_from_slice(&acc[..o.len()]);
    }
}

/// A dense 2-D `f32` matrix, row-major.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// All-zeros `rows × cols` tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Tensor from raw row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Tensor { rows, cols, data }
    }

    /// Deterministic Xavier/Glorot-uniform initialization.
    pub fn xavier(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Tensor { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The `r`-th row.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable `r`-th row.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Fills with zeros.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Matrix product `self × rhs` (`m×k · k×n = m×n`) with the ambient
    /// [`Parallelism`]; see [`matmul_with`](Self::matmul_with).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        self.matmul_with(rhs, &buffalo_par::ambient())
    }

    /// Matrix product `self × rhs` (`m×k · k×n = m×n`), cache-blocked and
    /// parallelized over disjoint output-row ranges.
    ///
    /// Each output element accumulates `a[i][p] * b[p][j]` in ascending-`p`
    /// order (zero `a` terms skipped) for every thread count, so results
    /// are bit-identical across configurations with the same backend.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_with(&self, rhs: &Tensor, par: &Parallelism) -> Tensor {
        self.gemm(rhs, par, Gemm::Nn)
    }

    /// `selfᵀ × rhs` (`k×m ᵀ · k×n = m×n`) with the ambient
    /// [`Parallelism`]; see [`matmul_tn_with`](Self::matmul_tn_with).
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    pub fn matmul_tn(&self, rhs: &Tensor) -> Tensor {
        self.matmul_tn_with(rhs, &buffalo_par::ambient())
    }

    /// `selfᵀ × rhs` (`k×m ᵀ · k×n = m×n`) without materializing the
    /// transpose — the weight-gradient layout. Cache-blocked, parallel
    /// over disjoint output rows, ascending-`p` accumulation (zero terms
    /// skipped): bit-identical for every thread count.
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    pub fn matmul_tn_with(&self, rhs: &Tensor, par: &Parallelism) -> Tensor {
        self.gemm(rhs, par, Gemm::Tn)
    }

    /// `self × rhsᵀ` (`m×k · n×k ᵀ = m×n`) with the ambient
    /// [`Parallelism`]; see [`matmul_nt_with`](Self::matmul_nt_with).
    ///
    /// # Panics
    ///
    /// Panics if column counts differ.
    pub fn matmul_nt(&self, rhs: &Tensor) -> Tensor {
        self.matmul_nt_with(rhs, &buffalo_par::ambient())
    }

    /// `self × rhsᵀ` (`m×k · n×k ᵀ = m×n`) — the input-gradient layout.
    /// Parallel over disjoint output rows and tiled over B rows; each
    /// element is one full-depth dot product accumulated in ascending-`p`
    /// order, so results are bit-identical for every thread count (k is
    /// never split — that would reassociate the chain).
    ///
    /// # Panics
    ///
    /// Panics if column counts differ.
    pub fn matmul_nt_with(&self, rhs: &Tensor, par: &Parallelism) -> Tensor {
        self.gemm(rhs, par, Gemm::Nt)
    }

    /// The one dense-product kernel behind all six `matmul*` entry
    /// points. The three layouts share shape validation, row-parallel
    /// dispatch and the SIMD backend wiring (`par.simd` — exactly one
    /// call site per inner-loop shape):
    ///
    /// * `Nn`/`Tn` accumulate rank-1 updates — the inner loop is an
    ///   `axpy_panel` (a k-tile's worth of axpys with the
    ///   `DEFAULT_TILE_N`-wide output tile held in registers), k-tiled so
    ///   a `DEFAULT_TILE_K × DEFAULT_TILE_N` panel of B stays cache
    ///   resident. Per element the `p` order is
    ///   globally ascending (k-tiles ascend, `p` ascends within each)
    ///   and zero `a` terms are skipped.
    /// * `Nt` computes one full-depth dot product per element (k is
    ///   never split — that would reassociate the chain): `simd.dot`
    ///   under a vector backend, `nt_row_scalar`'s side-by-side chains
    ///   under scalar.
    ///
    /// Within a backend, results are bit-identical for every thread
    /// count (rows are disjoint and each row's work is independent of
    /// the chunking). Under a vector backend the fixed tile grid decides
    /// where each axpy's lane body ends and its scalar tail begins, so
    /// it is part of that backend's (run-to-run deterministic) rounding;
    /// under scalar it is bitwise-neutral. See
    /// [`buffalo_par::SimdBackend`].
    fn gemm(&self, rhs: &Tensor, par: &Parallelism, layout: Gemm) -> Tensor {
        let (m, k, n) = match layout {
            Gemm::Nn => {
                assert_eq!(self.cols, rhs.rows, "matmul inner dimension mismatch");
                (self.rows, self.cols, rhs.cols)
            }
            Gemm::Tn => {
                assert_eq!(self.rows, rhs.rows, "matmul_tn row mismatch");
                (self.cols, self.rows, rhs.cols)
            }
            Gemm::Nt => {
                assert_eq!(self.cols, rhs.cols, "matmul_nt column mismatch");
                (self.rows, self.cols, rhs.rows)
            }
        };
        let mut out = Tensor::zeros(m, n);
        // A zero depth leaves every element at the empty sum, 0.0.
        if m == 0 || n == 0 || k == 0 {
            return out;
        }
        let simd = par.simd;
        let a = &self.data; // Tn reads it as k × m, down column i.
        let b = &rhs.data;
        let bt_scalar =
            (layout == Gemm::Nt && simd == SimdBackend::Scalar).then(|| nt_pack_scalar(b, n, k));
        parallel_rows(&mut out.data, n, par, |row0, chunk| match layout {
            Gemm::Nn | Gemm::Tn => {
                for p0 in (0..k).step_by(DEFAULT_TILE_K) {
                    let p1 = (p0 + DEFAULT_TILE_K).min(k);
                    for j0 in (0..n).step_by(DEFAULT_TILE_N) {
                        let j1 = (j0 + DEFAULT_TILE_N).min(n);
                        for (r, o_row) in chunk.chunks_exact_mut(n).enumerate() {
                            let i = row0 + r;
                            // Row i's coefficients for this k-tile.
                            let (coeffs, stride) = match layout {
                                Gemm::Nn => (&a[i * k + p0..], 1),
                                _ => (&a[p0 * m + i..], m),
                            };
                            let panel = &b[p0 * n + j0..];
                            simd.axpy_panel(&mut o_row[j0..j1], panel, n, coeffs, stride, p1 - p0);
                        }
                    }
                }
            }
            Gemm::Nt => {
                if let Some(bt) = &bt_scalar {
                    for (r, o_row) in chunk.chunks_exact_mut(n).enumerate() {
                        nt_row_scalar(&a[(row0 + r) * k..(row0 + r + 1) * k], bt, o_row);
                    }
                    return;
                }
                for j0 in (0..n).step_by(DEFAULT_TILE_N) {
                    let j1 = (j0 + DEFAULT_TILE_N).min(n);
                    for (r, o_row) in chunk.chunks_exact_mut(n).enumerate() {
                        let a_row = &a[(row0 + r) * k..(row0 + r + 1) * k];
                        for (j, o) in o_row[j0..j1].iter_mut().enumerate() {
                            *o = simd.dot(a_row, &b[(j0 + j) * k..(j0 + j + 1) * k]);
                        }
                    }
                }
            }
        });
        out
    }

    /// Element-wise `self += other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add_assign shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Element-wise `self += scale * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add_scaled shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Multiplies every element by `s`.
    pub fn scale(&mut self, s: f32) {
        self.data.iter_mut().for_each(|x| *x *= s);
    }

    /// Adds a 1×cols bias row to every row.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 × cols`.
    pub fn add_bias(&mut self, bias: &Tensor) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (x, &b) in row.iter_mut().zip(&bias.data) {
                *x += b;
            }
        }
    }

    /// In-place ReLU; returns the activation mask for backward.
    pub fn relu_inplace(&mut self) -> Vec<bool> {
        self.data
            .iter_mut()
            .map(|x| {
                if *x > 0.0 {
                    true
                } else {
                    *x = 0.0;
                    false
                }
            })
            .collect()
    }

    /// In-place ReLU with no mask kept — the forward-only form of
    /// [`relu_inplace`](Self::relu_inplace), same values.
    pub fn relu(&mut self) {
        for x in &mut self.data {
            *x = if *x > 0.0 { *x } else { 0.0 };
        }
    }

    /// Masks a gradient by a ReLU activation mask.
    ///
    /// # Panics
    ///
    /// Panics if mask length differs from element count.
    pub fn relu_backward(&mut self, mask: &[bool]) {
        assert_eq!(mask.len(), self.data.len(), "mask length mismatch");
        for (x, &m) in self.data.iter_mut().zip(mask) {
            if !m {
                *x = 0.0;
            }
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Column-wise sum producing a `1 × cols` tensor (bias gradients).
    pub fn sum_rows(&self) -> Tensor {
        let mut out = Tensor::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &x) in out.data.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
        out
    }

    /// Copy of the first `n` rows.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the row count.
    pub fn head_rows(&self, n: usize) -> Tensor {
        assert!(n <= self.rows, "row prefix out of range");
        Tensor {
            rows: n,
            cols: self.cols,
            data: self.data[..n * self.cols].to_vec(),
        }
    }

    /// Gathers rows by index into a new tensor. Row copies are
    /// parallelized over disjoint output rows (pure moves, so the result
    /// is bitwise-independent of the configuration).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        let mut out = Tensor::zeros(indices.len(), self.cols);
        // Validate everything up front so the parallel phase is a plain
        // infallible copy.
        for &idx in indices {
            assert!(idx < self.rows, "row index out of range");
        }
        if self.cols == 0 {
            return out;
        }
        let cols = self.cols;
        parallel_rows(
            &mut out.data,
            cols,
            &buffalo_par::ambient(),
            |row0, chunk| {
                for (r, row) in chunk.chunks_exact_mut(cols).enumerate() {
                    row.copy_from_slice(self.row(indices[row0 + r]));
                }
            },
        );
        out
    }

    /// Scatter-adds rows of `src` into `self` at `indices` (inverse of
    /// [`gather_rows`](Self::gather_rows), for gradients).
    ///
    /// # Panics
    ///
    /// Panics on index/shape mismatch.
    pub fn scatter_add_rows(&mut self, indices: &[usize], src: &Tensor) {
        assert_eq!(indices.len(), src.rows, "index count mismatch");
        assert_eq!(self.cols, src.cols, "column mismatch");
        for (i, &idx) in indices.iter().enumerate() {
            assert!(idx < self.rows, "row index out of range");
            let dst = &mut self.data[idx * self.cols..(idx + 1) * self.cols];
            for (d, &s) in dst.iter_mut().zip(src.row(i)) {
                *d += s;
            }
        }
    }

    /// Bytes this tensor occupies (`rows × cols × 4`).
    pub fn bytes(&self) -> u64 {
        (self.data.len() * 4) as u64
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}x{})", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(simd: SimdBackend, threads: usize) -> Parallelism {
        Parallelism { threads, simd }
    }

    fn t(rows: usize, cols: usize, v: &[f32]) -> Tensor {
        Tensor::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_small_known_result() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = t(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]); // 3x2
        let b = t(3, 2, &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]); // 3x2
        let c = a.matmul_tn(&b); // (2x3)·(3x2)
                                 // a^T = [[1,3,5],[2,4,6]]
        assert_eq!(c.data(), &[6.0, 8.0, 8.0, 10.0]);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]); // 2x3
        let b = t(2, 3, &[1.0, 1.0, 0.0, 0.0, 1.0, 1.0]); // 2x3
        let c = a.matmul_nt(&b); // (2x3)·(3x2)
        assert_eq!(c.data(), &[3.0, 5.0, 9.0, 11.0]);
    }

    #[test]
    fn gemm_layouts_are_consistent() {
        // (A B)ᵀ = Bᵀ Aᵀ cross-check using random matrices.
        let a = Tensor::xavier(4, 5, 1);
        let b = Tensor::xavier(5, 3, 2);
        let ab = a.matmul(&b);
        // ab via matmul_tn: need Aᵀ stored, so compute (Aᵀ)ᵀ·B ≡ matmul_tn on transposed a.
        let mut at = Tensor::zeros(5, 4);
        for i in 0..4 {
            for j in 0..5 {
                at.set(j, i, a.get(i, j));
            }
        }
        let ab2 = at.matmul_tn(&b);
        for (x, y) in ab.data().iter().zip(ab2.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn relu_roundtrip() {
        let mut x = t(1, 4, &[-1.0, 2.0, -3.0, 4.0]);
        let mask = x.relu_inplace();
        assert_eq!(x.data(), &[0.0, 2.0, 0.0, 4.0]);
        assert_eq!(mask, vec![false, true, false, true]);
        let mut g = t(1, 4, &[1.0, 1.0, 1.0, 1.0]);
        g.relu_backward(&mask);
        assert_eq!(g.data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn bias_broadcasts_over_rows() {
        let mut x = Tensor::zeros(3, 2);
        x.add_bias(&t(1, 2, &[1.0, -1.0]));
        assert_eq!(x.row(2), &[1.0, -1.0]);
    }

    #[test]
    fn gather_scatter_are_adjoint() {
        let base = t(4, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let g = base.gather_rows(&[3, 1, 3]);
        assert_eq!(g.row(0), &[7.0, 8.0]);
        assert_eq!(g.row(2), &[7.0, 8.0]);
        let mut acc = Tensor::zeros(4, 2);
        acc.scatter_add_rows(&[3, 1, 3], &g);
        assert_eq!(acc.row(3), &[14.0, 16.0]); // row 3 hit twice
        assert_eq!(acc.row(1), &[3.0, 4.0]);
        assert_eq!(acc.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn sum_rows_column_totals() {
        let x = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(x.sum_rows().data(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn xavier_is_deterministic_and_bounded() {
        let a = Tensor::xavier(10, 10, 3);
        let b = Tensor::xavier(10, 10, 3);
        assert_eq!(a, b);
        let bound = (6.0 / 20.0f32).sqrt();
        assert!(a.data().iter().all(|&x| x.abs() <= bound));
    }

    #[test]
    #[should_panic(expected = "inner dimension")]
    fn matmul_shape_checked() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Tensor::zeros(1, 2);
        let b = t(1, 2, &[2.0, 4.0]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.data(), &[1.0, 2.0]);
    }

    mod kernel_equivalence {
        use super::*;

        /// Sparse-ish values so the `a == 0.0` skip path is exercised.
        fn sparse(rows: usize, cols: usize, seed: u64) -> Tensor {
            let mut t = Tensor::xavier(rows, cols, seed);
            for (i, v) in t.data_mut().iter_mut().enumerate() {
                if i % 3 == 0 {
                    *v = 0.0;
                }
            }
            t
        }

        /// The `m × n` product whose coefficient `(i, p)` is `a_at(i, p)`,
        /// one `simd.axpy` per term: k-tiles ascend, n-tiles within, `p`
        /// within those, zero coefficients skipped. The 64 × 128 grid is
        /// spelled out because it is part of a vector backend's rounding
        /// (each tile splits into lane body and scalar tail on its own).
        fn axpy_reference(
            simd: SimdBackend,
            (m, k): (usize, usize),
            a_at: impl Fn(usize, usize) -> f32,
            b: &Tensor,
        ) -> Tensor {
            let n = b.cols();
            let mut out = Tensor::zeros(m, n);
            for i in 0..m {
                for p0 in (0..k).step_by(64) {
                    for j0 in (0..n).step_by(128) {
                        let j1 = (j0 + 128).min(n);
                        for p in p0..(p0 + 64).min(k) {
                            let a = a_at(i, p);
                            if a != 0.0 {
                                simd.axpy(&mut out.row_mut(i)[j0..j1], &b.row(p)[j0..j1], a);
                            }
                        }
                    }
                }
            }
            out
        }

        fn assert_bits(got: &Tensor, want: &Tensor, what: &str) {
            assert_eq!(got.data().len(), want.data().len(), "{what}");
            for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}");
            }
        }

        /// Depths and widths one below, at, one above and past twice the
        /// tile sizes, with row counts one below, at and one above the
        /// serial-fallback threshold: on every backend each layout equals
        /// its term-by-term reference bit for bit, on one thread (always
        /// serial) and on four (parallel from 64 rows).
        #[test]
        fn gemm_is_the_axpy_reference_bitwise_at_tile_and_threshold_edges() {
            for simd in SimdBackend::available() {
                for m in [63, 64, 65] {
                    for k in [63, 64, 65, 130] {
                        for n in [127, 128, 129, 260] {
                            let a = sparse(m, k, 11);
                            let at = sparse(k, m, 13);
                            let b = Tensor::xavier(k, n, 12);
                            let bt = Tensor::xavier(n, k, 16);
                            let nn = axpy_reference(simd, (m, k), |i, p| a.get(i, p), &b);
                            let tn = axpy_reference(simd, (m, k), |i, p| at.get(p, i), &b);
                            let mut nt = Tensor::zeros(m, n);
                            for i in 0..m {
                                for j in 0..n {
                                    nt.set(i, j, simd.dot(a.row(i), bt.row(j)));
                                }
                            }
                            for threads in [1, 4] {
                                let par = cfg(simd, threads);
                                let what = format!("{simd:?} t={threads} {m}x{k}x{n}");
                                assert_bits(&a.matmul_with(&b, &par), &nn, &what);
                                assert_bits(&at.matmul_tn_with(&b, &par), &tn, &what);
                                assert_bits(&a.matmul_nt_with(&bt, &par), &nt, &what);
                            }
                        }
                    }
                }
            }
        }

        /// The scalar `Nt` kernel advances several output elements at
        /// once; each must still be the one-chain ascending-`p` sum.
        #[test]
        fn scalar_matmul_nt_is_the_one_chain_dot_bitwise() {
            let scalar = cfg(SimdBackend::Scalar, 1);
            for k in [0, 1, 7, 64] {
                for n in [1, 5, 8, 13, 27] {
                    let a = Tensor::xavier(3, k, 40 + k as u64);
                    let b = Tensor::xavier(n, k, 50 + n as u64);
                    let got = a.matmul_nt_with(&b, &scalar);
                    for i in 0..3 {
                        for j in 0..n {
                            let mut acc = 0.0f32;
                            for p in 0..k {
                                acc += a.get(i, p) * b.get(j, p);
                            }
                            assert_eq!(
                                got.get(i, j).to_bits(),
                                acc.to_bits(),
                                "k={k} n={n} ({i},{j})"
                            );
                        }
                    }
                }
            }
        }

        #[test]
        fn degenerate_shapes_are_safe() {
            let cfg = cfg(SimdBackend::Scalar, 4);
            let a = Tensor::zeros(0, 5);
            let b = Tensor::zeros(5, 4);
            assert_eq!(a.matmul_with(&b, &cfg).data(), &[] as &[f32]);
            let a = Tensor::zeros(3, 0);
            let b = Tensor::zeros(0, 4);
            assert_eq!(a.matmul_with(&b, &cfg).data(), &[0.0; 12]);
            let a = Tensor::zeros(3, 0);
            let b = Tensor::zeros(4, 0);
            assert_eq!(a.matmul_nt_with(&b, &cfg).data(), &[0.0; 12]);
        }
    }

    mod simd_backends {
        use super::*;

        fn close(x: f32, y: f32) -> bool {
            (x - y).abs() <= 1e-4 * (1.0 + x.abs().max(y.abs()))
        }

        /// Every available backend matches the scalar result to rounding
        /// tolerance, on shapes that exercise non-multiple-of-lane tails.
        #[test]
        fn backends_match_scalar_within_tolerance() {
            for backend in SimdBackend::available() {
                for (m, k, n) in [(1, 1, 1), (5, 7, 9), (16, 33, 17), (37, 19, 23)] {
                    let a = Tensor::xavier(m, k, 21);
                    let b = Tensor::xavier(k, n, 22);
                    let at = Tensor::xavier(k, m, 23);
                    let bt = Tensor::xavier(n, k, 24);
                    let scalar = cfg(SimdBackend::Scalar, 1);
                    let simd = cfg(backend, 1);
                    for (want, got) in [
                        (a.matmul_with(&b, &scalar), a.matmul_with(&b, &simd)),
                        (at.matmul_tn_with(&b, &scalar), at.matmul_tn_with(&b, &simd)),
                        (a.matmul_nt_with(&bt, &scalar), a.matmul_nt_with(&bt, &simd)),
                    ] {
                        for (x, y) in want.data().iter().zip(got.data()) {
                            assert!(close(*x, *y), "{backend:?} {m}x{k}x{n}: {x} vs {y}");
                        }
                    }
                }
            }
        }

        /// The determinism contract the golden gates rely on: within one
        /// backend, results stay bitwise-identical across thread counts
        /// and repeated runs (70 rows: past the serial-fallback threshold,
        /// so every count above one really dispatches).
        #[test]
        fn each_backend_bitwise_across_threads() {
            for backend in SimdBackend::available() {
                let a = Tensor::xavier(70, 19, 31);
                let b = Tensor::xavier(19, 23, 32);
                let bt = Tensor::xavier(23, 19, 33);
                let want = a.matmul_with(&b, &cfg(backend, 1));
                let want_nt = a.matmul_nt_with(&bt, &cfg(backend, 1));
                for threads in [1, 2, 4, 8] {
                    let c = cfg(backend, threads);
                    assert_eq!(
                        a.matmul_with(&b, &c).data(),
                        want.data(),
                        "{backend:?} t={threads}"
                    );
                    assert_eq!(
                        a.matmul_nt_with(&bt, &c).data(),
                        want_nt.data(),
                        "{backend:?} nt t={threads}"
                    );
                    // Repeated run, same config: identical bits.
                    assert_eq!(a.matmul_with(&b, &c).data(), want.data());
                }
            }
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Scalar reference GEMM for cross-checking the cache-tiled kernels.
        fn reference_matmul(a: &Tensor, b: &Tensor) -> Tensor {
            let mut out = Tensor::zeros(a.rows(), b.cols());
            for i in 0..a.rows() {
                for j in 0..b.cols() {
                    let mut acc = 0.0f32;
                    for p in 0..a.cols() {
                        acc += a.get(i, p) * b.get(p, j);
                    }
                    out.set(i, j, acc);
                }
            }
            out
        }

        fn close(a: &Tensor, b: &Tensor) -> bool {
            a.rows() == b.rows()
                && a.cols() == b.cols()
                && a.data()
                    .iter()
                    .zip(b.data())
                    .all(|(x, y)| (x - y).abs() <= 1e-4 * (1.0 + x.abs().max(y.abs())))
        }

        proptest! {
            #[test]
            fn matmul_matches_reference(m in 1usize..6, k in 1usize..6, n in 1usize..6, seed in 0u64..100) {
                let a = Tensor::xavier(m, k, seed);
                let b = Tensor::xavier(k, n, seed + 1);
                prop_assert!(close(&a.matmul(&b), &reference_matmul(&a, &b)));
            }

            /// matmul_tn(A, B) == Aᵀ · B and matmul_nt(A, B) == A · Bᵀ.
            #[test]
            fn transposed_layouts_match_reference(m in 1usize..6, k in 1usize..6, n in 1usize..6, seed in 0u64..100) {
                let a = Tensor::xavier(k, m, seed); // for tn: (k x m)ᵀ -> m x k
                let b = Tensor::xavier(k, n, seed + 1);
                let mut at = Tensor::zeros(m, k);
                for i in 0..k {
                    for j in 0..m {
                        at.set(j, i, a.get(i, j));
                    }
                }
                prop_assert!(close(&a.matmul_tn(&b), &reference_matmul(&at, &b)));
                let c = Tensor::xavier(m, k, seed + 2);
                let d = Tensor::xavier(n, k, seed + 3);
                let mut dt = Tensor::zeros(k, n);
                for i in 0..n {
                    for j in 0..k {
                        dt.set(j, i, d.get(i, j));
                    }
                }
                prop_assert!(close(&c.matmul_nt(&d), &reference_matmul(&c, &dt)));
            }

            /// Every available SIMD backend agrees with the scalar
            /// kernels to rounding tolerance on arbitrary shapes — the
            /// 1..34 ranges cross the 4- and 8-lane boundaries, so the
            /// remainder (tail) handling is exercised on every run.
            #[test]
            fn simd_backends_match_scalar(m in 1usize..34, k in 1usize..34, n in 1usize..10, seed in 0u64..50) {
                let a = Tensor::xavier(m, k, seed);
                let b = Tensor::xavier(k, n, seed + 1);
                let bt = Tensor::xavier(n, k, seed + 2);
                let scalar = buffalo_par::Parallelism {
                    simd: buffalo_par::SimdBackend::Scalar,
                    ..buffalo_par::Parallelism::serial()
                };
                for backend in buffalo_par::SimdBackend::available() {
                    let cfg = buffalo_par::Parallelism { simd: backend, ..scalar };
                    prop_assert!(close(&a.matmul_with(&b, &cfg), &a.matmul_with(&b, &scalar)));
                    prop_assert!(close(&a.matmul_nt_with(&bt, &cfg), &a.matmul_nt_with(&bt, &scalar)));
                }
            }

            /// gather followed by scatter_add is the identity on the
            /// gathered rows' sums (adjointness).
            #[test]
            fn gather_scatter_adjoint(rows in 1usize..8, cols in 1usize..6, seed in 0u64..100) {
                let x = Tensor::xavier(rows, cols, seed);
                let idx: Vec<usize> = (0..rows).collect();
                let g = x.gather_rows(&idx);
                let mut acc = Tensor::zeros(rows, cols);
                acc.scatter_add_rows(&idx, &g);
                prop_assert!(close(&acc, &x));
            }
        }
    }
}
