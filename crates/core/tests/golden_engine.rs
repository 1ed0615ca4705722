//! The engine against the committed golden, from inside `cargo test`.
//!
//! `ci.sh` holds `buffalo train cora --epochs 2 --budget 12M` to
//! `tests/golden/cora_epochs2_bits.txt` through the CLI. This builds the
//! same run from the library — same dataset seed, shape, split and budget
//! as `cmd_train` — and checks the loss trail of [`Engine::train_iteration`]
//! against that file bit for bit, then the predictions of
//! [`Engine::infer_with_base`] from the trained weights against a digest
//! pinned when the forward pass still cloned its activations and built a
//! cache for inference.

use buffalo_core::train::{run_epochs_checkpointed, Engine, EpochConfig, TrainConfig};
use buffalo_graph::datasets::{self, DatasetName};
use buffalo_graph::{stats, NodeId};
use buffalo_memsim::{AggregatorKind, CostModel, DeviceMemory, GnnShape};
use buffalo_par::Parallelism;
use buffalo_sampling::BatchSampler;

/// `trail <iter> <loss bits> <loss>` lines of the golden file.
fn golden_trail() -> Vec<u32> {
    include_str!("../../../tests/golden/cora_epochs2_bits.txt")
        .lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            (words.next() == Some("trail")).then(|| {
                let bits = words.nth(1).expect("trail line carries the loss bits");
                u32::from_str_radix(bits, 16).expect("loss bits are hex")
            })
        })
        .collect()
}

#[test]
fn cora_trail_and_predictions_match_the_golden() {
    let ds = datasets::load(DatasetName::Cora, 42);
    let n = ds.graph.num_nodes();
    let config = TrainConfig {
        shape: GnnShape::new(
            ds.spec.feat_dim,
            32,
            2,
            ds.spec.num_classes,
            AggregatorKind::Mean,
        ),
        fanouts: vec![5, 10],
        lr: 0.01,
        seed: 17,
        parallelism: Parallelism::auto(),
    };
    let clustering = stats::clustering_coefficient_sampled(&ds.graph, 10_000, 50, 1);
    let mut engine = Engine::buffalo(config, clustering);
    let device = DeviceMemory::new(12 << 20);
    let cost = CostModel::rtx6000();
    let train_nodes = (n / 4).clamp(256, 2_048);
    let cfg = EpochConfig {
        batch_size: 256,
        epochs: 2,
        train_nodes,
        eval_nodes: 512.min(n - train_nodes),
        seed: 5,
    };
    let run = run_epochs_checkpointed(&mut engine, &ds, &device, &cost, &cfg, None, false)
        .expect("cora trains under 12 MB");
    let trail: Vec<u32> = run.loss_trail.iter().map(|l| l.to_bits()).collect();
    assert_eq!(
        trail,
        golden_trail(),
        "loss trail left the committed golden"
    );

    let seeds: Vec<NodeId> = (train_nodes as NodeId..train_nodes as NodeId + 300).collect();
    let batch = BatchSampler::new(vec![5, 10]).sample(&ds.graph, &seeds, 23);
    let stats = engine
        .infer_with_base(&ds, &batch, &device, &cost, 0)
        .expect("cora infers under 12 MB");
    assert!(
        stats.num_micro_batches > 1,
        "the budget should split the batch"
    );
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for (node, class) in &stats.predictions {
        for byte in node.to_le_bytes().into_iter().chain(class.to_le_bytes()) {
            digest = (digest ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    assert_eq!(stats.predictions.len(), seeds.len());
    assert_eq!(
        digest, PREDICTION_DIGEST,
        "predictions moved: {digest:#018x}"
    );
}

/// FNV-1a over the `(node, class)` pairs above, in execution order.
const PREDICTION_DIGEST: u64 = 0x722a_e3f8_1e0d_11b6;
