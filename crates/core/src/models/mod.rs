//! GNN models with explicit forward/backward over blocks.
//!
//! A model consumes the `L` blocks of a (micro-)batch, input layer first,
//! and the feature matrix of the innermost block's source nodes. The
//! forward pass returns logits for the output-layer destinations; the
//! backward pass consumes the loss gradient and accumulates parameter
//! gradients. Node features are not trained here, so no feature gradient
//! is returned — and none is computed: layer 0 runs its backward in a
//! parameters-only mode that omits exactly the terms feeding the input
//! gradient, which leaves every parameter gradient bit for bit what the
//! full backward produces.
//!
//! # Who owns an activation
//!
//! The forward pass copies no activation. The input features are borrowed
//! for as long as the caches live; each later layer's input is the
//! previous layer's output, moved in. A layer's cache keeps only what its
//! own backward reads (the whole input only for the aggregators whose
//! weight gradient is taken against it), so an input nothing reads again
//! is dropped as soon as its layer has run. [`GnnModel::logits`] is the
//! same arithmetic with no cache built at all — what inference calls.

mod gat;
mod sage;

pub use gat::GatLayer;
pub use sage::{SageCache, SageLayer};

use buffalo_blocks::Block;
use buffalo_memsim::{AggregatorKind, GnnShape};
use buffalo_tensor::{Param, Tensor};
use std::borrow::Cow;

/// One layer over one block, as [`GnnModel`] drives it. The two
/// switches say what the caller will read, so a layer does only that
/// work; neither changes a bit of what is still produced.
trait BlockLayer {
    /// What `run` keeps for `back`; `'a` is the borrow of the input
    /// features (layer 0 reads them in place).
    type Cache<'a>;

    /// Forward over `block`; `h_src` rows follow `block.src_nodes()`.
    /// Returns the destination embeddings and, if `keep`, the cache.
    fn run<'a>(
        &self,
        block: &Block,
        h_src: Cow<'a, Tensor>,
        keep: bool,
    ) -> (Tensor, Option<Self::Cache<'a>>);

    /// Backward over `block`: accumulates the parameter gradients and, if
    /// `input_grad`, returns the gradient w.r.t. `h_src` (rows follow
    /// `block.src_nodes()`).
    fn back(
        &mut self,
        block: &Block,
        cache: &Self::Cache<'_>,
        dy: Cow<'_, Tensor>,
        input_grad: bool,
    ) -> Option<Tensor>;
}

/// Applies a layer's output ReLU (if it has one) in place; the mask is
/// built only for a cache that is kept.
fn activate(y: &mut Tensor, relu: bool, keep: bool) -> Option<Vec<bool>> {
    if relu && !keep {
        y.relu();
    }
    (relu && keep).then(|| y.relu_inplace())
}

/// Forward through `layers`, input layer first: the features are
/// borrowed, every later activation is moved into the layer it feeds.
///
/// # Panics
///
/// Panics if `blocks.len()` differs from the model depth.
fn run_layers<'a, L: BlockLayer>(
    layers: &[L],
    blocks: &[Block],
    features: &'a Tensor,
    keep: bool,
) -> (Tensor, Vec<L::Cache<'a>>) {
    assert_eq!(blocks.len(), layers.len(), "block/layer count mismatch");
    let mut h = Cow::Borrowed(features);
    let mut caches = Vec::new();
    for (layer, block) in layers.iter().zip(blocks) {
        let (h_next, cache) = layer.run(block, h, keep);
        caches.extend(cache);
        h = Cow::Owned(h_next);
    }
    (h.into_owned(), caches)
}

/// Backward through `layers`, output layer first. The features are not
/// trained, so layer 0 is asked for its parameter gradients only.
fn back_layers<L: BlockLayer>(
    layers: &mut [L],
    blocks: &[Block],
    caches: &[L::Cache<'_>],
    dlogits: &Tensor,
) {
    let mut dh = Cow::Borrowed(dlogits);
    let stack = layers.iter_mut().zip(blocks).zip(caches);
    for (l, ((layer, block), cache)) in stack.enumerate().rev() {
        match layer.back(block, cache, dh, l > 0) {
            Some(dh_src) => dh = Cow::Owned(dh_src),
            None => break,
        }
    }
}

/// A trainable GNN, one layer per block: GraphSAGE (any aggregator) or GAT.
#[derive(Debug, Clone)]
pub enum GnnModel {
    /// GraphSAGE with a configurable aggregator.
    Sage(Vec<SageLayer>),
    /// Graph attention network (single-head attention aggregator).
    Gat(Vec<GatLayer>),
}

impl GnnModel {
    /// Builds the model named by `shape.aggregator` with deterministic
    /// init: `Attention` → GAT, anything else → GraphSAGE. Every layer
    /// but the last has the output ReLU.
    pub fn for_shape(shape: &GnnShape, seed: u64) -> Self {
        let dims = shape.layer_dims();
        let last = dims.len() - 1;
        let layers = dims.iter().enumerate();
        match shape.aggregator {
            AggregatorKind::Attention => GnnModel::Gat(
                layers
                    .map(|(l, &(i, o))| {
                        GatLayer::new(i, o, l != last, seed.wrapping_add(31 * l as u64))
                    })
                    .collect(),
            ),
            agg => GnnModel::Sage(
                layers
                    .map(|(l, &(i, o))| {
                        SageLayer::new(i, o, agg, l != last, seed.wrapping_add(100 * l as u64))
                    })
                    .collect(),
            ),
        }
    }

    /// Forward pass over `blocks` (input layer first) with `features`
    /// rows for `blocks[0].src_nodes()`. Returns logits
    /// (`num output dst × classes`) and the cache for backward, which
    /// borrows `features`.
    ///
    /// # Panics
    ///
    /// Panics if `blocks.len()` differs from the model depth.
    pub fn forward<'a>(&self, blocks: &[Block], features: &'a Tensor) -> (Tensor, ModelCache<'a>) {
        match self {
            GnnModel::Sage(layers) => {
                let (logits, c) = run_layers(layers, blocks, features, true);
                (logits, ModelCache::Sage(c))
            }
            GnnModel::Gat(layers) => {
                let (logits, c) = run_layers(layers, blocks, features, true);
                (logits, ModelCache::Gat(c))
            }
        }
    }

    /// The logits of [`forward`](Self::forward), bit for bit, with no
    /// cache built — for callers that run no backward pass.
    ///
    /// # Panics
    ///
    /// Panics if `blocks.len()` differs from the model depth.
    pub fn logits(&self, blocks: &[Block], features: &Tensor) -> Tensor {
        match self {
            GnnModel::Sage(layers) => run_layers(layers, blocks, features, false).0,
            GnnModel::Gat(layers) => run_layers(layers, blocks, features, false).0,
        }
    }

    /// Backward pass; accumulates parameter gradients.
    ///
    /// # Panics
    ///
    /// Panics if the cache kind does not match the model kind.
    pub fn backward(&mut self, blocks: &[Block], cache: &ModelCache<'_>, dlogits: &Tensor) {
        match (self, cache) {
            (GnnModel::Sage(layers), ModelCache::Sage(c)) => {
                back_layers(layers, blocks, c, dlogits)
            }
            (GnnModel::Gat(layers), ModelCache::Gat(c)) => back_layers(layers, blocks, c, dlogits),
            // lint:allow(panic-reachability): kind invariant — backward only ever receives the cache returned by this same model's forward (suppresses chain: consume_one → GnnModel::backward → panic!)
            _ => panic!("model/cache kind mismatch"),
        }
    }

    /// All trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        match self {
            GnnModel::Sage(layers) => layers.iter_mut().flat_map(|l| l.params_mut()).collect(),
            GnnModel::Gat(layers) => layers.iter_mut().flat_map(|l| l.params_mut()).collect(),
        }
    }

    /// Clears all gradients.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Model depth (number of blocks consumed per step).
    pub fn num_layers(&self) -> usize {
        match self {
            GnnModel::Sage(layers) => layers.len(),
            GnnModel::Gat(layers) => layers.len(),
        }
    }
}

/// Forward-pass cache, matching the model kind; `'a` is the borrow of
/// the input features.
#[derive(Debug)]
pub enum ModelCache<'a> {
    /// GraphSAGE cache.
    Sage(Vec<SageCache<'a>>),
    /// GAT cache.
    Gat(Vec<gat::GatCache<'a>>),
}

#[cfg(test)]
mod tests {
    //! The contract of the two switches, for every model on a 2- and a
    //! 3-layer stack: dropping the cache or layer 0's input gradient moves
    //! no bit of what is still produced. The pinned digests were taken
    //! when forward cloned every activation and backward ran in full at
    //! every layer, so they also hold the kernels underneath in place.

    use super::*;
    use crate::fnv::Fnv;
    use buffalo_tensor::softmax_cross_entropy;

    /// Deterministic LCG, good enough to synthesize irregular blocks.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 33) % n as u64) as usize
        }
    }

    /// `n_dst` destinations over `n_src >= n_dst` sources, in-degrees in
    /// `0..=max_deg` (zero-degree destinations and duplicates included).
    fn lcg_block(seed: u64, n_dst: usize, n_src: usize, max_deg: usize) -> Block {
        let mut rng = Lcg(seed);
        let mut offsets = vec![0];
        let mut indices = Vec::new();
        for _ in 0..n_dst {
            for _ in 0..rng.below(max_deg + 1) {
                indices.push(rng.below(n_src) as u32);
            }
            offsets.push(indices.len());
        }
        Block::from_parts(
            (0..n_dst as u32).collect(),
            (0..n_src as u32).collect(),
            offsets,
            indices,
        )
    }

    /// 90 → 40 → 12 for depth 2, 150 → 90 → 40 → 12 for depth 3.
    fn stack(depth: usize) -> Vec<Block> {
        let sizes = [150usize, 90, 40, 12];
        sizes[sizes.len() - 1 - depth..]
            .windows(2)
            .enumerate()
            .map(|(l, w)| lcg_block(31 + l as u64, w[1], w[0], 5))
            .collect()
    }

    fn fnv<'a>(tensors: impl IntoIterator<Item = &'a Tensor>) -> u64 {
        let mut h = Fnv::new();
        for x in tensors.into_iter().flat_map(|t| t.data()) {
            h.bytes(&x.to_bits().to_le_bytes());
        }
        h.0
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    fn grads<L>(layers: &mut [L], params_of: fn(&mut L) -> Vec<&mut Param>) -> Vec<Tensor> {
        let params = layers.iter_mut().flat_map(params_of);
        params.map(|p| p.grad.clone()).collect()
    }

    /// Runs the 2- and the 3-layer model of `layers_of` both ways and
    /// holds each to its pinned `(logits, parameter gradients)` digests.
    fn contract<L: BlockLayer + Clone>(
        layers_of: impl Fn(usize) -> Vec<L>,
        params_of: fn(&mut L) -> Vec<&mut Param>,
        pinned: [(u64, u64); 2],
    ) {
        for (depth, pinned) in [2, 3].into_iter().zip(pinned) {
            let layers = layers_of(depth);
            let blocks = stack(depth);
            let x = Tensor::xavier(blocks[0].num_src(), 10, 99);
            let labels: Vec<u32> = (0..12).map(|i| (i * 3 % 5) as u32).collect();

            let (logits, caches) = run_layers(&layers, &blocks, &x, true);
            let (bare, no_caches) = run_layers(&layers, &blocks, &x, false);
            assert!(no_caches.is_empty(), "a logits-only pass built a cache");
            assert_eq!(bits(&bare), bits(&logits), "logits-only forward differs");
            assert_eq!(fnv([&logits]), pinned.0, "logits moved");

            let out = softmax_cross_entropy(&logits, &labels, None);
            let mut lean = layers.clone();
            back_layers(&mut lean, &blocks, &caches, &out.dlogits);
            // The reference: the full backward, input gradient included,
            // at every layer — layer 0 too.
            let mut full = layers.clone();
            let mut dh = out.dlogits.clone();
            for ((layer, block), cache) in full.iter_mut().zip(&blocks).zip(&caches).rev() {
                dh = layer
                    .back(block, cache, Cow::Borrowed(&dh), true)
                    .expect("asked for the input gradient");
            }
            assert_eq!(dh.rows(), blocks[0].num_src(), "no feature gradient");
            let (lean, full) = (grads(&mut lean, params_of), grads(&mut full, params_of));
            assert_eq!(lean.len(), full.len());
            for (i, (a, b)) in lean.iter().zip(&full).enumerate() {
                assert_eq!(bits(a), bits(b), "gradient of parameter {i} differs");
            }
            assert_eq!(fnv(&lean), pinned.1, "parameter gradients moved");
        }
    }

    fn shape(depth: usize, agg: AggregatorKind) -> GnnShape {
        GnnShape::new(10, 8, depth, 5, agg)
    }

    fn sage_contract(agg: AggregatorKind, pinned: [(u64, u64); 2]) {
        contract(
            |depth| match GnnModel::for_shape(&shape(depth, agg), 17) {
                GnnModel::Sage(layers) => layers,
                other => panic!("{agg:?} built {other:?}"),
            },
            SageLayer::params_mut,
            pinned,
        );
    }

    #[test]
    fn sage_mean_contract() {
        sage_contract(
            AggregatorKind::Mean,
            [
                (0x1fc33d821b0de7b4, 0xe89dd54f467a1457),
                (0xd6a3558613965a51, 0xd71cac26a2cbc663),
            ],
        );
    }

    #[test]
    fn sage_maxpool_contract() {
        sage_contract(
            AggregatorKind::MaxPool,
            [
                (0xd039e492c3924f74, 0xcae04ff214a84e4b),
                (0x09ecf4459a3aa203, 0x097f65016dd22355),
            ],
        );
    }

    #[test]
    fn sage_lstm_contract() {
        sage_contract(
            AggregatorKind::Lstm,
            [
                (0x0440eb13a39a8758, 0x564efc6826c761ab),
                (0xbd7406b8d85a9a10, 0x273aae0415780e34),
            ],
        );
    }

    #[test]
    fn gat_contract() {
        contract(
            |depth| match GnnModel::for_shape(&shape(depth, AggregatorKind::Attention), 17) {
                GnnModel::Gat(layers) => layers,
                other => panic!("attention built {other:?}"),
            },
            GatLayer::params_mut,
            [
                (0x3414cb8c04073731, 0xe3a9d695f4c09520),
                (0x136a7c4145b21f2e, 0xfa884c4dfe2e0f0e),
            ],
        );
    }

    /// A layer that is asked for its input gradient (every layer ≥ 1)
    /// returns the bits the full backward always returned.
    #[test]
    fn input_gradient_of_an_inner_layer_is_unchanged() {
        fn dh_src<L: BlockLayer>(mut layer: L) -> u64 {
            let block = lcg_block(5, 20, 45, 4);
            let h = Tensor::xavier(45, 8, 3);
            let dy = Tensor::xavier(20, 6, 4);
            let (_, cache) = layer.run(&block, Cow::Borrowed(&h), true);
            let cache = cache.expect("asked to keep the cache");
            let dh = layer.back(&block, &cache, Cow::Borrowed(&dy), true);
            fnv([&dh.expect("asked for the input gradient")])
        }
        let sage = |agg| SageLayer::new(8, 6, agg, true, 23);
        assert_eq!(dh_src(sage(AggregatorKind::Mean)), 0xe432f788c845942f);
        assert_eq!(dh_src(sage(AggregatorKind::MaxPool)), 0x0d072ecde3a874c1);
        assert_eq!(dh_src(sage(AggregatorKind::Lstm)), 0xaad70b9450d6afed);
        assert_eq!(dh_src(GatLayer::new(8, 6, true, 23)), 0xdd87cd66c5398993);
    }
}
