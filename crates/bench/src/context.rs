//! Workload preparation shared by the `figures` binary's experiments.

use buffalo_graph::datasets::{self, Dataset, DatasetName};
use buffalo_graph::{stats, NodeId};
use buffalo_memsim::{AggregatorKind, GnnShape};
use buffalo_sampling::{Batch, BatchSampler};

/// The paper's default sampling fanouts ("cut-off 10,25", Table III).
pub const DEFAULT_FANOUTS: [usize; 2] = [10, 25];

/// The paper's primary memory budget: the RTX 6000's 24 GB.
pub const RTX6000_GIB: f64 = 24.0;

/// Default training-batch seed count per dataset — roughly the training
/// split of each graph, scaled with the dataset. `quick` mode quarters
/// these so every experiment stays interactive.
pub fn default_seed_count(name: DatasetName, quick: bool) -> usize {
    // Roughly the training-split share of each graph at our scale — the
    // full-batch regime the paper's memory-wall experiments run in
    // (e.g. OGBN-arxiv trains on ~54 % of its nodes).
    let full = match name {
        DatasetName::Cora => 1_355,
        DatasetName::Pubmed => 9_858,
        DatasetName::Reddit => 30_000,
        DatasetName::OgbnArxiv => 45_000,
        DatasetName::OgbnProducts => 100_000,
        DatasetName::OgbnPapers => 200_000,
    };
    if quick {
        full / 4
    } else {
        full
    }
}

/// A prepared workload: dataset, its clustering coefficient, and one
/// sampled training batch.
pub struct Workload {
    /// Dataset name.
    pub name: DatasetName,
    /// The synthetic dataset.
    pub dataset: Dataset,
    /// Average clustering coefficient `C` (sampled for large graphs).
    pub clustering: f64,
    /// The sampled training batch.
    pub batch: Batch,
    /// Fanouts used for `batch`.
    pub fanouts: Vec<usize>,
}

impl Workload {
    /// The model shape the paper's main experiments use on this dataset:
    /// 2-layer GraphSAGE, hidden 512, LSTM aggregator.
    pub fn default_shape(&self) -> GnnShape {
        self.shape(512, AggregatorKind::Lstm)
    }

    /// A model shape with this dataset's feature/class dimensions.
    pub fn shape(&self, hidden: usize, aggregator: AggregatorKind) -> GnnShape {
        GnnShape::new(
            self.dataset.spec.feat_dim,
            hidden,
            self.fanouts.len(),
            self.dataset.spec.num_classes,
            aggregator,
        )
    }
}

/// Loads a workload with the default seed count and fanouts.
pub fn load_workload(name: DatasetName, quick: bool) -> Workload {
    load_workload_with(
        name,
        default_seed_count(name, quick),
        DEFAULT_FANOUTS.to_vec(),
        42,
    )
}

/// Loads a workload with explicit batch size and fanouts.
pub fn load_workload_with(
    name: DatasetName,
    num_seeds: usize,
    fanouts: Vec<usize>,
    seed: u64,
) -> Workload {
    let dataset = datasets::load(name, seed);
    let clustering = if dataset.graph.num_nodes() <= stats::EXACT_CLUSTERING_LIMIT {
        stats::clustering_coefficient_exact(&dataset.graph)
    } else {
        stats::clustering_coefficient_sampled(&dataset.graph, 10_000, 50, seed)
    };
    let num_seeds = num_seeds.min(dataset.graph.num_nodes());
    // Seeds are a uniform random sample of the nodes — picking the lowest
    // ids would select the oldest (hub) nodes of the preferential
    // generators and skew every degree distribution.
    let seeds: Vec<NodeId> =
        buffalo_sampling::SeedBatches::new(dataset.graph.num_nodes(), num_seeds, seed ^ 0x5EED)
            .batch(0)
            .to_vec();
    let batch = BatchSampler::new(fanouts.clone()).sample(&dataset.graph, &seeds, seed ^ 0xABCD);
    Workload {
        name,
        dataset,
        clustering,
        batch,
        fanouts,
    }
}

/// GiB formatting helper (binary gibibytes, as the paper's GB figures).
pub fn gib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 30) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mode_shrinks_batches() {
        for name in DatasetName::ALL {
            assert!(default_seed_count(name, true) < default_seed_count(name, false));
        }
    }

    #[test]
    fn workload_loads_cora() {
        let w = load_workload(DatasetName::Cora, true);
        assert_eq!(
            w.batch.num_seeds,
            default_seed_count(DatasetName::Cora, true)
        );
        assert!(w.clustering > 0.05);
        let s = w.default_shape();
        assert_eq!(s.feat_dim, 1433);
        assert_eq!(s.num_layers, 2);
    }

    #[test]
    fn gib_converts() {
        assert_eq!(gib(1 << 30), 1.0);
    }
}
