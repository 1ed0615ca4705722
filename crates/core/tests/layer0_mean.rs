//! Mean GraphSAGE's layer 0 over the gather's [`Features::Mean`] (its
//! self-term rows and neighbour mean, computed in Prepare) is the dense
//! [`GnnModel::forward`] over [`Dataset::gather_features`] rows, bit for
//! bit: the logits, the loss, every accumulated parameter gradient and
//! the inference logits, over f32 storage and over a bf16 table read in
//! place, on each rounding chain the host has, over every micro-batch of
//! a K > 1 plan walked by [`BlockWalker`].
//!
//! The ambient [`Parallelism`] is process-global, so the chains run one
//! after another inside this file's one `#[test]`.
//!
//! [`Dataset::gather_features`]: buffalo_graph::datasets::Dataset::gather_features

use buffalo_blocks::BlockWalker;
use buffalo_bucketing::BuffaloScheduler;
use buffalo_core::models::{Features, GnnModel};
use buffalo_core::train::input_features;
use buffalo_graph::datasets::{self, DatasetName, FeaturePrecision};
use buffalo_graph::NodeId;
use buffalo_memsim::{measure, AggregatorKind, GnnShape};
use buffalo_par::{Parallelism, SimdBackend};
use buffalo_sampling::BatchSampler;
use buffalo_tensor::{softmax_cross_entropy, Tensor};

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn layer0_mean_in_prepare_is_the_dense_forward_bitwise() {
    let mut ds = datasets::load(DatasetName::Cora, 7);
    let dim = ds.spec.feat_dim;
    let fanouts = vec![5, 5];
    let seeds: Vec<NodeId> = (0..64).collect();
    let batch = BatchSampler::new(fanouts.clone()).sample(&ds.graph, &seeds, 3);
    let shape = GnnShape::new(dim, 16, 2, ds.spec.num_classes, AggregatorKind::Mean);
    let whole = BlockWalker::default().whole_batch(&batch.graph, batch.num_seeds, 2);
    let budget = measure::training_memory(&whole, &shape).total() * 3 / 4;
    let plan = BuffaloScheduler::new(shape.clone(), fanouts, 0.24)
        .schedule(&batch.graph, batch.num_seeds, budget)
        .expect("a plan within three quarters of the whole batch");
    let groups: Vec<&[NodeId]> = plan
        .groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(Vec::as_slice)
        .collect();
    assert!(groups.len() > 1, "the budget must split the batch");

    let global = |local: &[NodeId]| -> Vec<NodeId> {
        local
            .iter()
            .map(|&l| batch.global_ids[l as usize])
            .collect()
    };
    for precision in [FeaturePrecision::F32, FeaturePrecision::Bf16] {
        ds.set_precision(precision);
        let ds = &ds;
        let rows = |nodes: &[NodeId]| {
            let mut rows = vec![0.0; nodes.len() * dim];
            ds.gather_features(nodes, &mut rows);
            Tensor::from_vec(nodes.len(), dim, rows)
        };
        for simd in SimdBackend::available() {
            Parallelism {
                simd,
                ..Parallelism::auto()
            }
            .install();
            let at = format!("{precision:?} {simd:?}");
            let mut dense = GnnModel::for_shape(&shape, 11);
            let mut prepared = dense.clone();
            let mut walker = BlockWalker::default();
            for group in &groups {
                let blocks = walker.micro_batch(&batch.graph, batch.num_seeds, group, 2);
                let sources = global(blocks[0].src_nodes());
                let labels: Vec<u32> = global(blocks[1].dst_nodes())
                    .iter()
                    .map(|&v| ds.label(v))
                    .collect();
                let features = || {
                    let features = input_features(ds, &blocks[0], &sources, AggregatorKind::Mean);
                    assert!(matches!(features, Features::Mean { .. }), "{at}");
                    features
                };
                let x = rows(&sources);
                let (want, want_cache) = dense.forward(&blocks, &x);
                let (got, got_cache) = prepared.forward_features(&blocks, features());
                assert_eq!(bits(&got), bits(&want), "{at}: logits");
                let inferred = prepared.logits(&blocks, features());
                assert_eq!(bits(&inferred), bits(&want), "{at}: inference logits");
                let want_out = softmax_cross_entropy(&want, &labels, Some(batch.num_seeds));
                let got_out = softmax_cross_entropy(&got, &labels, Some(batch.num_seeds));
                assert_eq!(
                    got_out.loss.to_bits(),
                    want_out.loss.to_bits(),
                    "{at}: loss"
                );
                dense.backward(&blocks, &want_cache, &want_out.dlogits);
                prepared.backward(&blocks, &got_cache, &got_out.dlogits);
            }
            let grads = |m: &mut GnnModel| -> Vec<Vec<u32>> {
                m.params_mut().into_iter().map(|p| bits(&p.grad)).collect()
            };
            let want = grads(&mut dense);
            assert!(
                want.iter().flatten().any(|&b| b != 0),
                "{at}: the gradients are all zero"
            );
            assert_eq!(grads(&mut prepared), want, "{at}: parameter gradients");
        }
    }
    Parallelism::auto().install();
}
