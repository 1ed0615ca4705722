//! GraphSAGE with mean, max-pool, and LSTM aggregators, implemented over
//! blocks with explicit backward passes.
//!
//! The LSTM path performs *degree bucketing* inside every layer exactly as
//! §II-C describes: destinations are grouped by in-degree so each group
//! runs the recurrent aggregator over equal-length neighbor sequences with
//! no padding.

use super::{activate, BlockLayer, Features};
use buffalo_blocks::{Block, ReverseIndex};
use buffalo_graph::{NodeId, PREFETCH_EDGES};
use buffalo_memsim::AggregatorKind;
use buffalo_tensor::{Linear, LstmCell, LstmState, Param, Tensor};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// One GraphSAGE layer: `h' = σ(W_self · h_dst + W_neigh · AGG(h_srcs))`.
#[derive(Debug, Clone)]
pub struct SageLayer {
    w_self: Linear,
    w_neigh: Linear,
    agg: AggregatorImpl,
    relu: bool,
    in_dim: usize,
}

#[derive(Debug, Clone)]
enum AggregatorImpl {
    Mean,
    MaxPool { proj: Linear },
    Lstm { cell: LstmCell },
}

/// Cached forward state of one [`SageLayer`]: the operands of the two
/// weight gradients plus what the aggregator's own backward reads. Only
/// max-pool reads the whole layer input again.
#[derive(Debug)]
pub struct SageCache<'a> {
    /// Rows `0..n_dst` of the layer input (the prefix invariant: dst `i`
    /// is src row `i`) — the self term's operand.
    h_dst: Tensor,
    agg: Tensor,
    relu_mask: Option<Vec<bool>>,
    agg_cache: AggCache<'a>,
}

#[derive(Debug)]
enum AggCache<'a> {
    Mean,
    MaxPool {
        /// The layer input, which `proj`'s weight gradient is taken
        /// against: borrowed from the features at layer 0, the previous
        /// activation moved in above.
        h_src: Cow<'a, Tensor>,
        proj_mask: Vec<bool>,
        /// Per destination, per output dim: the h_src row index that won
        /// the max (`u32::MAX` for degree-0 destinations).
        argmax: Vec<Vec<u32>>,
    },
    Lstm {
        buckets: Vec<LstmBucketCache>,
    },
}

#[derive(Debug)]
struct LstmBucketCache {
    /// Destination indices (rows of the layer output) in this bucket.
    dst_rows: Vec<usize>,
    state: LstmState,
}

impl SageLayer {
    /// Creates a layer `in_dim → out_dim` with the given aggregator.
    /// `relu` enables the output nonlinearity (disabled on the last
    /// layer).
    pub fn new(
        in_dim: usize,
        out_dim: usize,
        aggregator: AggregatorKind,
        relu: bool,
        seed: u64,
    ) -> Self {
        let agg = match aggregator {
            AggregatorKind::Mean => AggregatorImpl::Mean,
            AggregatorKind::MaxPool => AggregatorImpl::MaxPool {
                proj: Linear::new(in_dim, in_dim, seed.wrapping_add(2)),
            },
            AggregatorKind::Lstm => AggregatorImpl::Lstm {
                cell: LstmCell::new(in_dim, seed.wrapping_add(3)),
            },
            AggregatorKind::Attention => {
                // lint:allow(panic-reachability): unreachable from the engine — for_shape builds GatLayers for Attention shapes and SageLayers only for the rest; a direct SageLayer::new call with Attention is a programmer error (suppresses chain: Engine::full_batch → GnnModel::for_shape → SageLayer::new → panic!)
                panic!("use GatLayer for the attention aggregator")
            }
        };
        SageLayer {
            w_self: Linear::new(in_dim, out_dim, seed),
            w_neigh: Linear::new(in_dim, out_dim, seed.wrapping_add(1)),
            agg,
            relu,
            in_dim,
        }
    }

    /// Forward over one block. `h_src` rows follow `block.src_nodes()`
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `h_src` row count differs from `block.num_src()`.
    pub fn forward<'a>(&self, block: &Block, h_src: &'a Tensor) -> (Tensor, SageCache<'a>) {
        let (y, cache) = self.run(block, Cow::Borrowed(h_src), true);
        // lint:allow(panic-reachability): infallible — `run` returns the cache whenever `keep` is set; the models call `run` directly (suppresses chain: consume_one → SageLayer::forward → .expect())
        (y, cache.expect("run keeps the cache when asked to"))
    }

    /// The aggregated neighbor embeddings per destination and, if `keep`,
    /// what the aggregator's backward reads.
    fn aggregate<'a>(
        &self,
        block: &Block,
        h_src: Cow<'a, Tensor>,
        keep: bool,
    ) -> (Tensor, Option<AggCache<'a>>) {
        let n_dst = block.num_dst();
        let dim = self.in_dim;
        match &self.agg {
            AggregatorImpl::Mean => (mean_of_rows(block, &h_src), keep.then_some(AggCache::Mean)),
            AggregatorImpl::MaxPool { proj } => {
                let par = buffalo_par::ambient();
                let mut p = proj.forward(&h_src);
                let proj_mask = activate(&mut p, true, keep);
                let mut agg = Tensor::zeros(n_dst, dim);
                // Only backward reads the argmax rows, so inference leaves
                // each one empty and skips its writes.
                let arg_dim = if keep { dim } else { 0 };
                let mut argmax = vec![vec![u32::MAX; arg_dim]; n_dst];
                // Each destination row owns its agg row and argmax row, so
                // row chunks can fill both in parallel; per element the max
                // scan keeps block source order (first strict max wins).
                let p_ref = &p;
                let fill = |i0: usize, agg_chunk: &mut [f32], arg_chunk: &mut [Vec<u32>]| {
                    let rows = agg_chunk.chunks_exact_mut(dim).zip(arg_chunk.iter_mut());
                    for (r, (dst_row, arg_row)) in rows.enumerate() {
                        let pos = block.src_positions(i0 + r);
                        if pos.is_empty() {
                            continue;
                        }
                        for (d, out) in dst_row.iter_mut().enumerate() {
                            let mut best = f32::NEG_INFINITY;
                            let mut best_p = u32::MAX;
                            for &q in pos {
                                let v = p_ref.get(q as usize, d);
                                if v > best {
                                    best = v;
                                    best_p = q;
                                }
                            }
                            *out = best;
                            if let Some(slot) = arg_row.get_mut(d) {
                                *slot = best_p;
                            }
                        }
                    }
                };
                let rows = (agg.data_mut(), &mut argmax[..]);
                let work = block.num_edges() * dim * buffalo_par::ROW_ELEMENT_WORK;
                buffalo_par::split_rows(n_dst, work, &par, rows, |i0, (ac, xc)| fill(i0, ac, xc));
                let cache = proj_mask.map(|proj_mask| AggCache::MaxPool {
                    h_src,
                    proj_mask,
                    argmax,
                });
                (agg, cache)
            }
            AggregatorImpl::Lstm { cell } => {
                // Degree bucketing (§II-C): group destinations by
                // in-degree so every bucket processes equal-length
                // sequences without padding.
                let mut by_degree: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
                for i in 0..n_dst {
                    let d = block.in_degree(i);
                    if d > 0 {
                        by_degree.entry(d).or_default().push(i);
                    }
                }
                let mut agg = Tensor::zeros(n_dst, dim);
                let mut buckets = Vec::with_capacity(by_degree.len());
                for (degree, dst_rows) in by_degree {
                    let mut seq = Vec::with_capacity(degree);
                    for t in 0..degree {
                        let rows: Vec<usize> = dst_rows
                            .iter()
                            .map(|&i| block.src_positions(i)[t] as usize)
                            .collect();
                        seq.push(h_src.gather_rows(&rows));
                    }
                    let (h_final, state) = if keep {
                        let (h_final, state) = cell.forward(&seq);
                        (h_final, Some(state))
                    } else {
                        (cell.final_hidden(&seq), None)
                    };
                    for (j, &i) in dst_rows.iter().enumerate() {
                        agg.row_mut(i).copy_from_slice(h_final.row(j));
                    }
                    buckets.extend(state.map(|state| LstmBucketCache { dst_rows, state }));
                }
                (agg, keep.then_some(AggCache::Lstm { buckets }))
            }
        }
    }

    /// The aggregator kind this layer runs.
    pub(crate) fn aggregator(&self) -> AggregatorKind {
        match self.agg {
            AggregatorImpl::Mean => AggregatorKind::Mean,
            AggregatorImpl::MaxPool { .. } => AggregatorKind::MaxPool,
            AggregatorImpl::Lstm { .. } => AggregatorKind::Lstm,
        }
    }

    /// Trainable parameters.
    pub(crate) fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps = self.w_self.params_mut();
        ps.extend(self.w_neigh.params_mut());
        match &mut self.agg {
            AggregatorImpl::Mean => {}
            AggregatorImpl::MaxPool { proj } => ps.extend(proj.params_mut()),
            AggregatorImpl::Lstm { cell } => ps.extend(cell.params_mut()),
        }
        ps
    }

    /// The layer's output from the destinations' own rows and their
    /// aggregated neighbors, and, if `agg_cache` is kept, the cache.
    fn combine<'a>(
        &self,
        h_dst: Tensor,
        agg: Tensor,
        agg_cache: Option<AggCache<'a>>,
        keep: bool,
    ) -> (Tensor, Option<SageCache<'a>>) {
        let mut y = self.w_self.forward(&h_dst);
        y.add_assign(&self.w_neigh.forward(&agg));
        let relu_mask = activate(&mut y, self.relu, keep);
        let cache = agg_cache.map(|agg_cache| SageCache {
            h_dst,
            agg,
            relu_mask,
            agg_cache,
        });
        (y, cache)
    }
}

/// The mean aggregation: row `i` of the result is the mean of
/// destination `i`'s sources, each added by `add(ids, dst_row, i,
/// positions, 1 / degree)` as one `axpy_gather`-style run over the listed
/// source positions; `ids` is scratch the caller may use. Parallel over
/// disjoint destination rows; each row still accumulates its sources in
/// block order, so the result is bit-identical for any thread count (under
/// scalar on an AVX host the row stays in registers across its sources).
fn mean_rows(
    block: &Block,
    dim: usize,
    add: impl Fn(&mut Vec<NodeId>, &mut [f32], usize, &[u32], f32) + Sync,
) -> Tensor {
    let par = buffalo_par::ambient();
    let mut agg = Tensor::zeros(block.num_dst(), dim);
    let work = block.num_edges() * dim * buffalo_par::ROW_ELEMENT_WORK;
    buffalo_par::parallel_rows(agg.data_mut(), dim, work, &par, |row0, chunk| {
        let mut ids = Vec::new();
        for (r, dst_row) in chunk.chunks_exact_mut(dim).enumerate() {
            let pos = block.src_positions(row0 + r);
            if !pos.is_empty() {
                add(&mut ids, dst_row, row0 + r, pos, 1.0 / pos.len() as f32);
            }
        }
    });
    agg
}

/// The mean aggregation over dense rows `h_src` (one per
/// `block.src_nodes()` entry): one `axpy_gather` per destination.
pub(crate) fn mean_of_rows(block: &Block, h_src: &Tensor) -> Tensor {
    let simd = buffalo_par::ambient().simd;
    mean_rows(block, h_src.cols(), |_, dst_row, _, pos, inv| {
        simd.axpy_gather(dst_row, h_src.data(), pos, inv)
    })
}

/// [`mean_of_rows`] over the widened rows of the dataset nodes `sources`
/// (one per `block.src_nodes()` entry), bit for bit, read in place from
/// the bf16 `table` (`nodes × dim`): each destination's sources are table
/// rows by dataset id, widened in registers by `axpy_gather_bf16` in the
/// order and with the lane updates `axpy_gather` gives the widened rows.
/// Before each destination is read, `prefetch` is called on the
/// [`prefetch_stream`], so the rows of the next destinations' sources
/// are on their way while this one's are read.
pub(crate) fn mean_of_table(
    block: &Block,
    table: &[u16],
    dim: usize,
    sources: &[NodeId],
    prefetch: impl Fn(NodeId) + Sync,
) -> Tensor {
    let simd = buffalo_par::ambient().simd;
    mean_rows(block, dim, |ids, dst_row, i, pos, inv| {
        prefetch_stream(block, sources, i).for_each(&prefetch);
        ids.clear();
        ids.extend(pos.iter().map(|&p| sources[p as usize]));
        simd.axpy_gather_bf16(dst_row, table, ids, inv)
    })
}

/// The table rows [`mean_of_table`] prefetches before it reads
/// destination `i`'s sources: the sources of the edges [`PREFETCH_EDGES`]
/// past `i`'s own. Over the destinations in order that is the block's
/// edge sources from edge `PREFETCH_EDGES` on, each once, so the stream
/// runs on across destination rows and `parallel_rows` chunks.
fn prefetch_stream<'s>(
    block: &'s Block,
    sources: &'s [NodeId],
    i: usize,
) -> impl Iterator<Item = NodeId> + 's {
    let ahead = block.src_positions_ahead(i, PREFETCH_EDGES);
    ahead.iter().map(|&p| sources[p as usize])
}

impl BlockLayer for SageLayer {
    type Cache<'a> = SageCache<'a>;

    /// # Panics
    ///
    /// Panics if `h_src` shape mismatches the block or layer.
    fn run<'a>(
        &self,
        block: &Block,
        h_src: Cow<'a, Tensor>,
        keep: bool,
    ) -> (Tensor, Option<SageCache<'a>>) {
        assert_eq!(h_src.rows(), block.num_src(), "h_src row count mismatch");
        assert_eq!(h_src.cols(), self.in_dim, "h_src width mismatch");
        let h_dst = h_src.head_rows(block.num_dst());
        let (agg, agg_cache) = self.aggregate(block, h_src, keep);
        self.combine(h_dst, agg, agg_cache, keep)
    }

    /// The mean aggregator reads [`Features::Mean`]: the self term is its
    /// `head`, the neighbour term its `agg`. Dense rows run
    /// [`run`](BlockLayer::run).
    ///
    /// # Panics
    ///
    /// Panics if `features` mismatches the block or layer.
    fn run_features<'a>(
        &self,
        block: &Block,
        features: Features<'a>,
        keep: bool,
    ) -> (Tensor, Option<SageCache<'a>>) {
        match features {
            Features::Mean { head, agg } if matches!(self.agg, AggregatorImpl::Mean) => {
                for rows in [&head, &agg] {
                    assert_eq!(rows.rows(), block.num_dst(), "mean row count mismatch");
                    assert_eq!(rows.cols(), self.in_dim, "mean width mismatch");
                }
                self.combine(head, agg, keep.then_some(AggCache::Mean), keep)
            }
            features => self.run(block, features.into_dense(), keep),
        }
    }

    /// With `input_grad` off, every aggregator skips exactly what only
    /// feeds `dh_src`: mean all of its backward; max-pool the step from
    /// `dproj` through `proj` to `h_src` (it still back-props into
    /// `proj`'s parameters); LSTM the per-step `dz·W_xᵀ` and its scatter
    /// (the cell still gets its parameter gradients).
    fn back(
        &mut self,
        block: &Block,
        cache: &SageCache<'_>,
        mut dy: Cow<'_, Tensor>,
        input_grad: bool,
    ) -> Option<Tensor> {
        let n_dst = block.num_dst();
        if let Some(mask) = &cache.relu_mask {
            dy.to_mut().relu_backward(mask);
        }
        let dy: &Tensor = &dy;
        self.w_self.backward_params(&cache.h_dst, dy);
        self.w_neigh.backward_params(&cache.agg, dy);
        let w_neigh = &self.w_neigh.w.value;
        // The self term lands on the destination prefix of the source
        // rows (added to zeros, as every later term is).
        let mut dh_src = input_grad.then(|| {
            let dh_dst = dy.matmul_nt(&self.w_self.w.value);
            let mut dh_src = Tensor::zeros(block.num_src(), self.in_dim);
            for (d, &s) in dh_src.data_mut().iter_mut().zip(dh_dst.data()) {
                *d += s;
            }
            dh_src
        });
        match (&mut self.agg, &cache.agg_cache) {
            (AggregatorImpl::Mean, AggCache::Mean) => {
                // No parameters of its own: all of this feeds `dh_src`.
                let dh_src = dh_src.as_mut()?;
                let d_agg = dy.matmul_nt(w_neigh);
                // Scatter through the reverse (src → dst) index: each
                // source row is written by exactly one thread and
                // accumulates its destinations in ascending order — the
                // same per-element order as the sequential scatter, so the
                // gradient is bit-identical for any thread count.
                let par = buffalo_par::ambient();
                let simd = par.simd;
                let rev = ReverseIndex::new(block);
                let inv: Vec<f32> = (0..n_dst)
                    .map(|i| {
                        let d = block.in_degree(i);
                        if d == 0 {
                            0.0
                        } else {
                            1.0 / d as f32
                        }
                    })
                    .collect();
                let dim = self.in_dim;
                let d_agg_ref = &d_agg;
                let work = block.num_edges() * dim * buffalo_par::ROW_ELEMENT_WORK;
                buffalo_par::parallel_rows(dh_src.data_mut(), dim, work, &par, |row0, chunk| {
                    for (r, src_row) in chunk.chunks_exact_mut(dim).enumerate() {
                        for &i in rev.dsts_of(row0 + r) {
                            simd.axpy(src_row, d_agg_ref.row(i as usize), inv[i as usize]);
                        }
                    }
                });
            }
            (
                AggregatorImpl::MaxPool { proj },
                AggCache::MaxPool {
                    h_src,
                    proj_mask,
                    argmax,
                },
            ) => {
                let d_agg = dy.matmul_nt(w_neigh);
                // Reverse map from winning projected row q to its (i, d)
                // credit events, in the order the sequential loop visits
                // them (ascending i, then d), so each dproj row can be
                // replayed independently with bit-identical accumulation.
                let rows_p = h_src.rows();
                let mut counts = vec![0usize; rows_p];
                for arg_row in argmax.iter().take(n_dst) {
                    for &q in arg_row {
                        if q != u32::MAX {
                            counts[q as usize] += 1;
                        }
                    }
                }
                let mut offsets = Vec::with_capacity(rows_p + 1);
                let mut total = 0usize;
                offsets.push(0);
                for &c in &counts {
                    total += c;
                    offsets.push(total);
                }
                let mut cursor = offsets[..rows_p].to_vec();
                let mut events = vec![(0u32, 0u32); total];
                for (i, arg_row) in argmax.iter().enumerate().take(n_dst) {
                    for (d, &q) in arg_row.iter().enumerate() {
                        if q != u32::MAX {
                            let slot = &mut cursor[q as usize];
                            events[*slot] = (i as u32, d as u32);
                            *slot += 1;
                        }
                    }
                }
                let par = buffalo_par::ambient();
                let dim = self.in_dim;
                let mut dproj = Tensor::zeros(rows_p, dim);
                let d_agg_ref = &d_agg;
                let (events_ref, offsets_ref) = (&events, &offsets);
                // One add per credit event, read from a scattered row.
                let work = total * buffalo_par::ROW_ELEMENT_WORK;
                buffalo_par::parallel_rows(dproj.data_mut(), dim, work, &par, |row0, chunk| {
                    for (r, row) in chunk.chunks_exact_mut(dim).enumerate() {
                        let q = row0 + r;
                        for &(i, d) in &events_ref[offsets_ref[q]..offsets_ref[q + 1]] {
                            row[d as usize] += d_agg_ref.get(i as usize, d as usize);
                        }
                    }
                });
                dproj.relu_backward(proj_mask);
                proj.backward_params(h_src, &dproj);
                if let Some(dh_src) = &mut dh_src {
                    dh_src.add_assign(&dproj.matmul_nt(&proj.w.value));
                }
            }
            // The recurrent aggregator stays destination-major: its cost
            // lives in the LstmCell matmuls, which are parallel internally.
            (AggregatorImpl::Lstm { cell }, AggCache::Lstm { buckets }) => {
                let d_agg = dy.matmul_nt(w_neigh);
                for bucket in buckets {
                    let dh_final = d_agg.gather_rows(&bucket.dst_rows);
                    let Some(dh_src) = &mut dh_src else {
                        cell.backward_params(&bucket.state, &dh_final);
                        continue;
                    };
                    let dxs = cell.backward(&bucket.state, &dh_final);
                    for (t, dx) in dxs.iter().enumerate() {
                        let rows: Vec<usize> = bucket
                            .dst_rows
                            .iter()
                            .map(|&i| block.src_positions(i)[t] as usize)
                            .collect();
                        dh_src.scatter_add_rows(&rows, dx);
                    }
                }
            }
            // lint:allow(panic-reachability): kind invariant — the AggCache variant always matches the aggregator that produced it in forward (suppresses chain: consume_one → SageLayer::backward → unreachable!)
            _ => unreachable!("aggregator/cache mismatch"),
        }
        dh_src
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::GnnModel;
    use buffalo_memsim::GnnShape;
    use buffalo_tensor::softmax_cross_entropy;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Block: 2 dsts; dst0 <- {1, 2}, dst1 <- {2, 3, 0}; srcs {0,1,2,3}.
    fn test_block() -> Block {
        Block::from_parts(
            vec![0, 1],
            vec![0, 1, 2, 3],
            vec![0, 2, 5],
            vec![1, 2, 2, 3, 0],
        )
    }

    fn inner_block() -> Block {
        // dsts {0,1,2,3}; srcs {0,1,2,3,4}; each dst i <- {i+1}
        Block::from_parts(
            vec![0, 1, 2, 3],
            vec![0, 1, 2, 3, 4],
            vec![0, 1, 2, 3, 4],
            vec![1, 2, 3, 4],
        )
    }

    fn shape(agg: AggregatorKind) -> GnnShape {
        GnnShape::new(3, 4, 2, 2, agg)
    }

    fn numeric_gradcheck(agg: AggregatorKind) {
        let s = shape(agg);
        let mut model = GnnModel::for_shape(&s, 42);
        let blocks = vec![inner_block(), test_block()];
        let x = Tensor::xavier(5, 3, 7);
        let labels = [0u32, 1];
        // Analytic gradient.
        let (logits, caches) = model.forward(&blocks, &x);
        let out = softmax_cross_entropy(&logits, &labels, None);
        for p in model.params_mut() {
            p.zero_grad();
        }
        model.backward(&blocks, &caches, &out.dlogits);
        // Numeric check on a handful of parameters of each kind.
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
                let mut ps = model.params_mut();
                ps[pi].value.set(r, c, base + eps);
            }
            let up = loss_of(&model);
            {
                let mut ps = model.params_mut();
                ps[pi].value.set(r, c, base - eps);
            }
            let down = loss_of(&model);
            {
                let mut ps = model.params_mut();
                ps[pi].value.set(r, c, base);
            }
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "{agg:?} param {pi} ({r},{c}): numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn gradcheck_mean() {
        numeric_gradcheck(AggregatorKind::Mean);
    }

    #[test]
    fn gradcheck_maxpool() {
        numeric_gradcheck(AggregatorKind::MaxPool);
    }

    #[test]
    fn gradcheck_lstm() {
        numeric_gradcheck(AggregatorKind::Lstm);
    }

    #[test]
    fn mean_aggregation_is_exact() {
        let layer = SageLayer::new(2, 2, AggregatorKind::Mean, false, 1);
        let block = Block::from_parts(vec![0], vec![0, 1, 2], vec![0, 2], vec![1, 2]);
        let h = Tensor::from_vec(3, 2, vec![0.0, 0.0, 2.0, 4.0, 6.0, 8.0]);
        let (_, cache) = layer.forward(&block, &h);
        assert_eq!(cache.agg.row(0), &[4.0, 6.0]);
    }

    #[test]
    fn zero_degree_dst_aggregates_to_zero() {
        let layer = SageLayer::new(2, 2, AggregatorKind::Mean, false, 1);
        // dst 0 has no in-edges.
        let block = Block::from_parts(vec![0], vec![0], vec![0, 0], vec![]);
        let h = Tensor::from_vec(1, 2, vec![1.0, 1.0]);
        let (_, cache) = layer.forward(&block, &h);
        assert_eq!(cache.agg.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn lstm_buckets_group_by_degree() {
        let layer = SageLayer::new(3, 3, AggregatorKind::Lstm, false, 9);
        let blocks = [inner_block(), test_block()];
        let x = Tensor::xavier(5, 3, 3);
        // Layer over the output block: dst degrees are 2 and 3 — two
        // buckets expected.
        let (h, _) = layer.forward(&blocks[0], &x);
        let (_, cache) = layer.forward(&blocks[1], &h);
        match cache.agg_cache {
            AggCache::Lstm { ref buckets } => assert_eq!(buckets.len(), 2),
            _ => panic!("expected LSTM cache"),
        }
    }

    #[test]
    fn forward_output_shape_is_classes() {
        let s = shape(AggregatorKind::Mean);
        let model = GnnModel::for_shape(&s, 4);
        let blocks = vec![inner_block(), test_block()];
        let x = Tensor::xavier(5, 3, 8);
        let (logits, _) = model.forward(&blocks, &x);
        assert_eq!((logits.rows(), logits.cols()), (2, 2));
    }

    proptest! {
        /// The in-place mean's prefetch stream names exactly the block's
        /// edge sources, in edge order, starting `PREFETCH_EDGES` edges
        /// ahead, however `parallel_rows` cuts the destinations into
        /// chunks: over 0, 1 and many rows, zero-degree rows, and rows
        /// shorter and longer than the distance.
        #[test]
        fn prefetch_stream_runs_the_edge_list_from_the_distance_on(
            degrees in vec(0..3 * PREFETCH_EDGES, 0..40),
            extra_src in 1usize..20,
            seed in 0u32..u32::MAX,
        ) {
            let n_dst = degrees.len();
            let n_src = n_dst + extra_src;
            let mut offsets = vec![0];
            let mut indices = Vec::new();
            for &d in &degrees {
                let e0 = indices.len() as u32;
                indices.extend((e0..e0 + d as u32).map(|k| {
                    seed.wrapping_add(k.wrapping_mul(2_654_435_761)) % n_src as u32
                }));
                offsets.push(indices.len());
            }
            let block = Block::from_parts(
                (0..n_dst as u32).collect(),
                (0..n_src as u32).collect(),
                offsets,
                indices.clone(),
            );
            // Distinct dataset ids, unrelated to the positions.
            let sources: Vec<NodeId> = (0..n_src as u32).map(|p| 1_000 + 7 * p).collect();
            let want: Vec<NodeId> = indices
                .iter()
                .skip(PREFETCH_EDGES)
                .map(|&p| sources[p as usize])
                .collect();
            for threads in 1..=8 {
                // `parallel_rows`'s chunks: `div_ceil(rows, threads)` rows each.
                let chunk_rows = n_dst.div_ceil(threads).max(1);
                let mut got = Vec::new();
                for row0 in (0..n_dst).step_by(chunk_rows) {
                    for i in row0..(row0 + chunk_rows).min(n_dst) {
                        got.extend(prefetch_stream(&block, &sources, i));
                    }
                }
                prop_assert_eq!(&got, &want, "{} threads", threads);
            }
        }
    }

    #[test]
    #[should_panic(expected = "block/layer count mismatch")]
    fn forward_rejects_wrong_depth() {
        let s = shape(AggregatorKind::Mean);
        let model = GnnModel::for_shape(&s, 4);
        let x = Tensor::xavier(4, 3, 8);
        let _ = model.forward(&[test_block()], &x);
    }
}
