//! Single-head graph attention (GAT) layers over blocks.

use super::{activate, BlockLayer};
use buffalo_blocks::Block;
use buffalo_tensor::{Linear, Param, Tensor};
use std::borrow::Cow;

const LEAKY_SLOPE: f32 = 0.2;

/// One GAT layer: `h'_i = σ(Σ_j α_ij · W h_j)` with
/// `α = softmax_j(LeakyReLU(a_l · W h_i + a_r · W h_j))` over `j ∈ {i} ∪
/// N(i)` (a self edge is always included, as in the reference
/// implementation).
#[derive(Debug, Clone)]
pub struct GatLayer {
    lin: Linear,
    a_l: Param,
    a_r: Param,
    relu: bool,
    out_dim: usize,
}

/// Cached forward state of one [`GatLayer`]. The projection's weight
/// gradient is taken against the whole layer input, so the cache holds it:
/// borrowed from the features at layer 0, the previous activation moved in
/// above.
#[derive(Debug)]
pub struct GatCache<'a> {
    h_src: Cow<'a, Tensor>,
    z: Tensor,
    /// Per destination: attention weights over `{self} ∪ neighbors`.
    alphas: Vec<Vec<f32>>,
    /// Per destination: whether each pre-activation score was positive
    /// (LeakyReLU gradient selector).
    positive: Vec<Vec<bool>>,
    relu_mask: Option<Vec<bool>>,
}

impl GatLayer {
    /// Creates a layer `in_dim → out_dim`.
    pub fn new(in_dim: usize, out_dim: usize, relu: bool, seed: u64) -> Self {
        GatLayer {
            lin: Linear::new(in_dim, out_dim, seed),
            a_l: Param::xavier(1, out_dim, seed.wrapping_add(1)),
            a_r: Param::xavier(1, out_dim, seed.wrapping_add(2)),
            relu,
            out_dim,
        }
    }

    /// Candidate source rows for destination `i`: self first, then the
    /// block's in-neighbors.
    fn candidates(block: &Block, i: usize) -> Vec<usize> {
        let mut c = Vec::with_capacity(block.in_degree(i) + 1);
        c.push(i); // prefix invariant: dst i is src row i
        c.extend(block.src_positions(i).iter().map(|&p| p as usize));
        c
    }

    /// Trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps = self.lin.params_mut();
        ps.push(&mut self.a_l);
        ps.push(&mut self.a_r);
        ps
    }
}

impl BlockLayer for GatLayer {
    type Cache<'a> = GatCache<'a>;

    /// # Panics
    ///
    /// Panics if `h_src` rows mismatch `block.num_src()`.
    fn run<'a>(
        &self,
        block: &Block,
        h_src: Cow<'a, Tensor>,
        keep: bool,
    ) -> (Tensor, Option<GatCache<'a>>) {
        assert_eq!(h_src.rows(), block.num_src(), "h_src row count mismatch");
        let n_dst = block.num_dst();
        let out_dim = self.out_dim;
        let z = self.lin.forward(&h_src);
        // Score dots and the weighted sum dispatch to the configured SIMD
        // backend (the scalar backend reproduces the historical
        // `map(x*y).sum()` chain bitwise).
        let par = buffalo_par::ambient();
        let simd = par.simd;
        let dot = |a: &Tensor, row: &[f32]| -> f32 { simd.dot(a.row(0), row) };
        let mut y = Tensor::zeros(n_dst, out_dim);
        let mut alphas: Vec<Vec<f32>> = vec![Vec::new(); n_dst];
        let mut positive: Vec<Vec<bool>> = vec![Vec::new(); n_dst];
        // Each destination owns its output row, attention weights, and
        // sign mask, so row chunks fill all three in parallel with the
        // per-destination arithmetic unchanged — bit-identical for any
        // thread count. The weights and signs are only for backward: a
        // pass that keeps no cache leaves their slots empty.
        let z_ref = &z;
        let fill = |i0: usize, y_chunk: &mut [f32], al: &mut [Vec<f32>], po: &mut [Vec<bool>]| {
            for (r, out) in y_chunk.chunks_exact_mut(out_dim).enumerate() {
                let i = i0 + r;
                let cands = Self::candidates(block, i);
                let s_l = dot(&self.a_l.value, z_ref.row(i));
                let mut scores: Vec<f32> = cands
                    .iter()
                    .map(|&j| s_l + dot(&self.a_r.value, z_ref.row(j)))
                    .collect();
                if keep {
                    po[r] = scores.iter().map(|&s| s > 0.0).collect();
                }
                for s in scores.iter_mut() {
                    if *s <= 0.0 {
                        *s *= LEAKY_SLOPE;
                    }
                }
                // Softmax.
                let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let mut sum = 0.0f32;
                for s in scores.iter_mut() {
                    *s = (*s - max).exp();
                    sum += *s;
                }
                for s in scores.iter_mut() {
                    *s /= sum;
                }
                for (&j, &a) in cands.iter().zip(&scores) {
                    simd.axpy(out, z_ref.row(j), a);
                }
                if keep {
                    al[r] = scores;
                }
            }
        };
        let threads = par.effective_threads(n_dst);
        if threads <= 1 || out_dim == 0 {
            fill(0, y.data_mut(), &mut alphas, &mut positive);
        } else {
            let chunk_rows = n_dst.div_ceil(threads);
            let fill = &fill;
            let tasks: Vec<buffalo_par::Task<'_>> = y
                .data_mut()
                .chunks_mut(chunk_rows * out_dim)
                .zip(
                    alphas
                        .chunks_mut(chunk_rows)
                        .zip(positive.chunks_mut(chunk_rows)),
                )
                .enumerate()
                .map(|(ci, (yc, (ac, pc)))| -> buffalo_par::Task<'_> {
                    Box::new(move || fill(ci * chunk_rows, yc, ac, pc))
                })
                .collect();
            buffalo_par::run_tasks(tasks, threads);
        }
        let relu_mask = activate(&mut y, self.relu, keep);
        let cache = keep.then_some(GatCache {
            h_src,
            z,
            alphas,
            positive,
            relu_mask,
        });
        (y, cache)
    }

    /// Runs in three deterministic parallel phases, each replicating the
    /// sequential arithmetic chains exactly (see the phase comments), so
    /// gradients are bit-identical for any thread count.
    fn back(
        &mut self,
        block: &Block,
        cache: &GatCache<'_>,
        mut dy: Cow<'_, Tensor>,
        input_grad: bool,
    ) -> Option<Tensor> {
        let n_dst = block.num_dst();
        let out_dim = self.out_dim;
        if let Some(mask) = &cache.relu_mask {
            dy.to_mut().relu_backward(mask);
        }
        let dy: &Tensor = &dy;
        let par = buffalo_par::ambient();
        let simd = par.simd;
        let dot = |a: &[f32], b: &[f32]| -> f32 { simd.dot(a, b) };
        // Phase 1 (parallel over destinations): candidate lists and the
        // per-edge score gradients ds = α · (dα − Σ α·dα) through softmax
        // and LeakyReLU, with the sequential dot-product chains.
        let mut cands_all: Vec<Vec<usize>> = vec![Vec::new(); n_dst];
        let mut ds_all: Vec<Vec<f32>> = vec![Vec::new(); n_dst];
        {
            let dy_ref = dy;
            let z_ref = &cache.z;
            let fill = |i0: usize, cc: &mut [Vec<usize>], dd: &mut [Vec<f32>]| {
                for (r, (cands_out, ds_out)) in cc.iter_mut().zip(dd.iter_mut()).enumerate() {
                    let i = i0 + r;
                    let cands = GatLayer::candidates(block, i);
                    let alpha = &cache.alphas[i];
                    let pos = &cache.positive[i];
                    let dagg = dy_ref.row(i);
                    // dα and the softmax Jacobian.
                    let dalpha: Vec<f32> = cands.iter().map(|&j| dot(dagg, z_ref.row(j))).collect();
                    let sum_term: f32 = alpha.iter().zip(&dalpha).map(|(a, d)| a * d).sum();
                    *ds_out = alpha
                        .iter()
                        .zip(&dalpha)
                        .zip(pos)
                        .map(|((&a, &da), &p)| {
                            let mut ds = a * (da - sum_term);
                            if !p {
                                ds *= LEAKY_SLOPE;
                            }
                            ds
                        })
                        .collect();
                    *cands_out = cands;
                }
            };
            let threads = par.effective_threads(n_dst);
            if threads <= 1 {
                fill(0, &mut cands_all, &mut ds_all);
            } else {
                let chunk_rows = n_dst.div_ceil(threads);
                let fill = &fill;
                let tasks: Vec<buffalo_par::Task<'_>> = cands_all
                    .chunks_mut(chunk_rows)
                    .zip(ds_all.chunks_mut(chunk_rows))
                    .enumerate()
                    .map(|(ci, (cc, dd))| -> buffalo_par::Task<'_> {
                        Box::new(move || fill(ci * chunk_rows, cc, dd))
                    })
                    .collect();
                buffalo_par::run_tasks(tasks, threads);
            }
        }
        // Phase 2: dz. The sequential loop writes three kinds of updates —
        // per edge (i, c) with j = cands[c], in this order:
        //   AGG:   dz[j] += α · dagg_i
        //   SELF:  dz[i] += ds · a_l
        //   NEIGH: dz[j] += ds · a_r
        // Bucket them per target row (CSR built in sequential visit order:
        // ascending i, candidate order, AGG < SELF < NEIGH), then replay
        // each row's events on its owning thread — the per-element
        // accumulation order is exactly the sequential one.
        const KIND_AGG: u8 = 0;
        const KIND_SELF: u8 = 1;
        const KIND_NEIGH: u8 = 2;
        let n_src = cache.z.rows();
        let mut counts = vec![0usize; n_src];
        for (i, cands) in cands_all.iter().enumerate() {
            counts[i] += cands.len();
            for &j in cands {
                counts[j] += 2;
            }
        }
        let mut offsets = Vec::with_capacity(n_src + 1);
        let mut total = 0usize;
        offsets.push(0);
        for &c in &counts {
            total += c;
            offsets.push(total);
        }
        let mut cursor = offsets[..n_src].to_vec();
        let mut events: Vec<(u32, u32, u8)> = vec![(0, 0, 0); total];
        for (i, cands) in cands_all.iter().enumerate() {
            for (c, &j) in cands.iter().enumerate() {
                let mut push = |row: usize, kind: u8| {
                    let slot = &mut cursor[row];
                    events[*slot] = (i as u32, c as u32, kind);
                    *slot += 1;
                };
                push(j, KIND_AGG);
                push(i, KIND_SELF);
                push(j, KIND_NEIGH);
            }
        }
        let mut dz = Tensor::zeros(n_src, out_dim);
        let a_l_row = self.a_l.value.row(0);
        let a_r_row = self.a_r.value.row(0);
        {
            let dy_ref = dy;
            let (events_ref, offsets_ref) = (&events, &offsets);
            let (alphas_ref, ds_ref) = (&cache.alphas, &ds_all);
            buffalo_par::parallel_rows(dz.data_mut(), out_dim, &par, |row0, chunk| {
                for (r, row) in chunk.chunks_exact_mut(out_dim).enumerate() {
                    let q = row0 + r;
                    for &(i, c, kind) in &events_ref[offsets_ref[q]..offsets_ref[q + 1]] {
                        let (i, c) = (i as usize, c as usize);
                        match kind {
                            KIND_AGG => {
                                simd.axpy(row, dy_ref.row(i), alphas_ref[i][c]);
                            }
                            KIND_SELF => {
                                simd.axpy(row, a_l_row, ds_ref[i][c]);
                            }
                            _ => {
                                simd.axpy(row, a_r_row, ds_ref[i][c]);
                            }
                        }
                    }
                }
            });
        }
        // Phase 3 (parallel over columns): da_l / da_r. Each thread owns a
        // contiguous column range of both gradient rows and walks the edges
        // in sequential order (ascending i, candidate order) — per element
        // the accumulation chain is exactly the sequential one.
        let mut da_l = Tensor::zeros(1, out_dim);
        let mut da_r = Tensor::zeros(1, out_dim);
        {
            let z_ref = &cache.z;
            let (cands_ref, ds_ref) = (&cands_all, &ds_all);
            let acc = |d0: usize, dal: &mut [f32], dar: &mut [f32]| {
                for (i, cands) in cands_ref.iter().enumerate() {
                    for (c, &j) in cands.iter().enumerate() {
                        let ds = ds_ref[i][c];
                        simd.axpy(dal, &z_ref.row(i)[d0..d0 + dal.len()], ds);
                        simd.axpy(dar, &z_ref.row(j)[d0..d0 + dar.len()], ds);
                    }
                }
            };
            let threads = par.effective_threads(out_dim);
            if threads <= 1 {
                acc(0, da_l.data_mut(), da_r.data_mut());
            } else {
                let chunk_cols = out_dim.div_ceil(threads);
                let acc = &acc;
                let tasks: Vec<buffalo_par::Task<'_>> = da_l
                    .data_mut()
                    .chunks_mut(chunk_cols)
                    .zip(da_r.data_mut().chunks_mut(chunk_cols))
                    .enumerate()
                    .map(|(ci, (dal, dar))| -> buffalo_par::Task<'_> {
                        Box::new(move || acc(ci * chunk_cols, dal, dar))
                    })
                    .collect();
                buffalo_par::run_tasks(tasks, threads);
            }
        }
        self.a_l.accumulate(&da_l);
        self.a_r.accumulate(&da_r);
        self.lin.backward_params(&cache.h_src, &dz);
        // The source-embedding term, the only one that is not a
        // parameter gradient.
        input_grad.then(|| dz.matmul_nt(&self.lin.w.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::GnnModel;
    use buffalo_memsim::{AggregatorKind, GnnShape};
    use buffalo_tensor::softmax_cross_entropy;

    fn test_block() -> Block {
        Block::from_parts(
            vec![0, 1],
            vec![0, 1, 2, 3],
            vec![0, 2, 5],
            vec![1, 2, 2, 3, 0],
        )
    }

    fn inner_block() -> Block {
        Block::from_parts(
            vec![0, 1, 2, 3],
            vec![0, 1, 2, 3, 4],
            vec![0, 1, 2, 3, 4],
            vec![1, 2, 3, 4],
        )
    }

    #[test]
    fn attention_weights_sum_to_one() {
        let layer = GatLayer::new(3, 4, false, 5);
        let h = Tensor::xavier(4, 3, 2);
        let (_, cache) = layer.run(&test_block(), Cow::Borrowed(&h), true);
        for alpha in &cache.unwrap().alphas {
            let sum: f32 = alpha.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(alpha.iter().all(|&a| a >= 0.0));
        }
    }

    #[test]
    fn isolated_dst_attends_to_itself() {
        let layer = GatLayer::new(2, 2, false, 3);
        let block = Block::from_parts(vec![0], vec![0], vec![0, 0], vec![]);
        let h = Tensor::from_vec(1, 2, vec![1.0, -1.0]);
        let (y, cache) = layer.run(&block, Cow::Borrowed(&h), true);
        assert_eq!(cache.unwrap().alphas[0], vec![1.0]);
        // Output = 1.0 * z_self.
        let z = layer.lin.forward(&h);
        assert_eq!(y.row(0), z.row(0));
    }

    #[test]
    fn gradcheck_gat_model() {
        let shape = GnnShape::new(3, 4, 2, 2, AggregatorKind::Attention);
        let mut model = GnnModel::for_shape(&shape, 11);
        let blocks = vec![inner_block(), test_block()];
        let x = Tensor::xavier(5, 3, 6);
        let labels = [1u32, 0];
        let (logits, caches) = model.forward(&blocks, &x);
        let out = softmax_cross_entropy(&logits, &labels, None);
        for p in model.params_mut() {
            p.zero_grad();
        }
        model.backward(&blocks, &caches, &out.dlogits);
        let loss_of = |m: &GnnModel| {
            let (lg, _) = m.forward(&blocks, &x);
            softmax_cross_entropy(&lg, &labels, None).loss
        };
        let eps = 1e-2f32;
        let n_params = model.params_mut().len();
        for pi in 0..n_params {
            let (r, c, analytic, base) = {
                let mut ps = model.params_mut();
                let p = &mut ps[pi];
                let r = p.value.rows() / 2;
                let c = p.value.cols() / 2;
                (r, c, p.grad.get(r, c), p.value.get(r, c))
            };
            {
                model.params_mut()[pi].value.set(r, c, base + eps);
            }
            let up = loss_of(&model);
            {
                model.params_mut()[pi].value.set(r, c, base - eps);
            }
            let down = loss_of(&model);
            {
                model.params_mut()[pi].value.set(r, c, base);
            }
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "param {pi} ({r},{c}): numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn model_output_has_class_width() {
        let shape = GnnShape::new(3, 4, 2, 7, AggregatorKind::Attention);
        let model = GnnModel::for_shape(&shape, 2);
        let x = Tensor::xavier(5, 3, 1);
        let (logits, _) = model.forward(&[inner_block(), test_block()], &x);
        assert_eq!((logits.rows(), logits.cols()), (2, 7));
    }
}
