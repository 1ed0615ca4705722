//! Bit-identity of the parallel CPU kernels at the model level.
//!
//! Every parallel kernel in the stack partitions work by disjoint output
//! rows and accumulates each output element in the same order as the
//! serial code, so forward logits and backward gradients must be
//! *bitwise* identical for any thread count. These tests run full
//! forward + backward passes for every model (SAGE with each aggregator,
//! GAT) on one thread and on 2, 4 and 8, over shapes that straddle the
//! kernels' fixed tile grid (64 deep, 128 wide) and their 64-row
//! serial-fallback threshold, and compare every output bit for bit.
//!
//! The ambient [`Parallelism`] is process-global, so the comparisons run
//! inside a single `#[test]` per model to avoid install races between
//! the serial and parallel passes.

use buffalo_blocks::Block;
use buffalo_core::models::GnnModel;
use buffalo_memsim::{AggregatorKind, GnnShape};
use buffalo_par::Parallelism;
use buffalo_tensor::{softmax_cross_entropy, Tensor};

/// Deterministic LCG, good enough to synthesize irregular blocks.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Builds a block with `n_dst` destinations over `n_src >= n_dst`
/// sources, random in-degrees in `0..=max_deg` (duplicates allowed).
fn lcg_block(seed: u64, n_dst: usize, n_src: usize, max_deg: usize) -> Block {
    assert!(n_src >= n_dst);
    let mut rng = Lcg(seed);
    let dst_nodes: Vec<u32> = (0..n_dst as u32).collect();
    let src_nodes: Vec<u32> = (0..n_src as u32).collect();
    let mut offsets = Vec::with_capacity(n_dst + 1);
    let mut indices = Vec::new();
    offsets.push(0);
    for _ in 0..n_dst {
        let deg = rng.below(max_deg + 1);
        for _ in 0..deg {
            indices.push(rng.below(n_src) as u32);
        }
        offsets.push(indices.len());
    }
    Block::from_parts(dst_nodes, src_nodes, offsets, indices)
}

/// Outputs of the 2-layer block stack: one row past the serial-fallback
/// threshold, so the last layer's kernels dispatch too.
const OUTPUTS: usize = 65;

/// 220 sources -> 140 mid -> [`OUTPUTS`] outputs.
fn block_stack(seed: u64) -> (Vec<Block>, usize) {
    let b0 = lcg_block(seed, 140, 220, 6);
    let b1 = lcg_block(seed ^ 0x9e3779b97f4a7c15, OUTPUTS, 140, 5);
    (vec![b0, b1], 220)
}

/// Runs forward + loss + backward under `par` and returns every output
/// bit: logits, loss, dlogits, and all parameter gradients.
fn run_under(par: Parallelism, model_seed: u64, agg: AggregatorKind) -> Vec<Vec<f32>> {
    par.install();
    let (blocks, n_src) = block_stack(31);
    // One past the depth tile at layer 0; two depth tiles and a tail,
    // and one width tile and a tail, at the hidden layer.
    let feat_dim = 65;
    let classes = 7;
    let shape = GnnShape::new(feat_dim, 130, 2, classes, agg);
    let mut model = GnnModel::for_shape(&shape, model_seed);
    let x = Tensor::xavier(n_src, feat_dim, 77);
    let labels: Vec<u32> = (0..OUTPUTS).map(|i| (i * 5 % classes) as u32).collect();
    let (logits, cache) = model.forward(&blocks, &x);
    let out = softmax_cross_entropy(&logits, &labels, None);
    model.zero_grad();
    model.backward(&blocks, &cache, &out.dlogits);
    let mut bits = vec![
        logits.data().to_vec(),
        vec![out.loss],
        out.dlogits.data().to_vec(),
    ];
    for p in model.params_mut() {
        bits.push(p.grad.data().to_vec());
    }
    bits
}

fn threads(threads: usize) -> Parallelism {
    Parallelism {
        threads,
        ..Parallelism::auto()
    }
}

fn assert_bitwise_equal(agg: AggregatorKind) {
    let want = run_under(threads(1), 5, agg);
    for cfg in [2, 4, 8].map(threads) {
        let got = run_under(cfg, 5, agg);
        assert_eq!(
            want.len(),
            got.len(),
            "{agg:?}: output arity changed under {cfg:?}"
        );
        for (i, (w, g)) in want.iter().zip(&got).enumerate() {
            assert_eq!(w, g, "{agg:?} output {i} differs bitwise under {cfg:?}");
        }
    }
    Parallelism::auto().install();
}

/// The three dense layouts on their own, one thread against many, at
/// depths and widths one below, at, one above and past twice the tile
/// sizes and row counts around the serial-fallback threshold, on every
/// backend the host has.
#[test]
fn matmuls_are_bitwise_thread_invariant_at_tile_and_threshold_edges() {
    for simd in buffalo_par::SimdBackend::available() {
        let par = |threads| Parallelism { threads, simd };
        for m in [63, 64, 65] {
            for k in [63, 64, 65, 130] {
                for n in [127, 128, 129, 260] {
                    let a = Tensor::xavier(m, k, 1);
                    let at = Tensor::xavier(k, m, 2);
                    let b = Tensor::xavier(k, n, 3);
                    let bt = Tensor::xavier(n, k, 4);
                    let products = |p: &Parallelism| {
                        [
                            a.matmul_with(&b, p),
                            at.matmul_tn_with(&b, p),
                            a.matmul_nt_with(&bt, p),
                        ]
                        .map(|t| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>())
                    };
                    let want = products(&par(1));
                    for threads in [2, 3, 8] {
                        assert!(
                            products(&par(threads)) == want,
                            "{simd:?} {m}x{k}x{n} differs at {threads} threads"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn sage_mean_is_bitwise_thread_invariant() {
    assert_bitwise_equal(AggregatorKind::Mean);
}

#[test]
fn sage_maxpool_is_bitwise_thread_invariant() {
    assert_bitwise_equal(AggregatorKind::MaxPool);
}

#[test]
fn sage_lstm_is_bitwise_thread_invariant() {
    assert_bitwise_equal(AggregatorKind::Lstm);
}

#[test]
fn gat_is_bitwise_thread_invariant() {
    assert_bitwise_equal(AggregatorKind::Attention);
}

/// Trainer-level check: the full training iteration (Prepare gather,
/// matmuls, aggregation, backward, SGD step) produces a bit-identical
/// loss whether it runs on one thread or several.
#[test]
fn trainer_loss_is_bitwise_thread_invariant() {
    use buffalo_core::train::{Engine, TrainConfig};
    use buffalo_graph::datasets::{self, DatasetName};
    use buffalo_memsim::{CostModel, DeviceMemory};
    use buffalo_sampling::BatchSampler;

    let ds = datasets::load(DatasetName::Cora, 13);
    let seeds: Vec<u32> = (0..192).collect();
    let batch = BatchSampler::new(vec![4, 6]).sample(&ds.graph, &seeds, 7);
    let device = DeviceMemory::with_gib(24.0);
    let cost = CostModel::rtx6000();
    let run = |threads: usize| -> Vec<f32> {
        let config = TrainConfig {
            shape: GnnShape::new(
                ds.spec.feat_dim,
                16,
                2,
                ds.spec.num_classes,
                AggregatorKind::Mean,
            ),
            fanouts: vec![4, 6],
            lr: 0.05,
            seed: 3,
            parallelism: Parallelism {
                threads,
                ..Parallelism::auto()
            },
        };
        let mut trainer = Engine::full_batch(config);
        (0..3)
            .map(|_| {
                trainer
                    .train_iteration(&ds, &batch, &device, &cost)
                    .unwrap()
                    .loss
            })
            .collect()
    };
    let serial_losses = run(1);
    for threads in [2, 4] {
        assert_eq!(
            serial_losses,
            run(threads),
            "loss trajectory diverged at {threads} threads"
        );
    }
    Parallelism::auto().install();
}
