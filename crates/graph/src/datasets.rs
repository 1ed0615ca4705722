//! Synthetic dataset catalog calibrated to Table II of the Buffalo paper.
//!
//! The paper evaluates on six public datasets. This reproduction cannot
//! download them, so each catalog entry records the *paper's* statistics and
//! a generator recipe whose output matches the statistics that matter to
//! Buffalo: the degree-distribution shape (power-law tail or not), the
//! average degree, and the average clustering coefficient `C` used by the
//! redundancy-aware memory model (Eq. 1). Billion-scale datasets are scaled
//! down; the scale factor is recorded on the descriptor.
//!
//! Node features and labels are synthesized deterministically per node so
//! that feature matrices never need to be fully materialized for the
//! billion-scale stand-ins: training code asks for the rows it needs.
//!
//! # Examples
//!
//! ```
//! use buffalo_graph::datasets::{self, DatasetName};
//!
//! let ds = datasets::load(DatasetName::Cora, 42);
//! assert_eq!(ds.graph.num_nodes(), 2_708);
//! let row = ds.feature_row(0);
//! assert_eq!(row.len(), ds.spec.feat_dim);
//! assert!(ds.label(0) < ds.spec.num_classes as u32);
//! ```

use crate::csr::{CsrGraph, NodeId, PREFETCH_AHEAD};
use crate::error::GraphError;
use crate::generators;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The six datasets of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetName {
    /// Cora citation graph (2.7 K nodes).
    Cora,
    /// Pubmed citation graph (19 K nodes).
    Pubmed,
    /// Reddit post graph (232 K nodes in the paper; scaled ÷4 here).
    Reddit,
    /// OGBN-arxiv (169 K nodes in the paper; scaled ÷2 here).
    OgbnArxiv,
    /// OGBN-products (2.45 M nodes in the paper; scaled ÷16 here).
    OgbnProducts,
    /// OGBN-papers100M (111 M nodes in the paper; scaled ÷256 here).
    OgbnPapers,
}

impl DatasetName {
    /// All datasets in Table II order.
    pub const ALL: [DatasetName; 6] = [
        DatasetName::Cora,
        DatasetName::Pubmed,
        DatasetName::Reddit,
        DatasetName::OgbnArxiv,
        DatasetName::OgbnProducts,
        DatasetName::OgbnPapers,
    ];

    /// Canonical lowercase name as used by the `figures` binary.
    pub fn as_str(&self) -> &'static str {
        match self {
            DatasetName::Cora => "cora",
            DatasetName::Pubmed => "pubmed",
            DatasetName::Reddit => "reddit",
            DatasetName::OgbnArxiv => "ogbn-arxiv",
            DatasetName::OgbnProducts => "ogbn-products",
            DatasetName::OgbnPapers => "ogbn-papers",
        }
    }

    /// Parses a dataset name.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownDataset`] for unrecognized names.
    pub fn parse(s: &str) -> Result<Self, GraphError> {
        DatasetName::ALL
            .iter()
            .copied()
            .find(|d| d.as_str() == s)
            .ok_or_else(|| GraphError::UnknownDataset(s.to_owned()))
    }
}

impl std::fmt::Display for DatasetName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The generator recipe for a dataset stand-in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Recipe {
    /// Watts–Strogatz: `(k, beta)` — clustered, near-regular degrees.
    SmallWorld {
        /// Ring-lattice neighbor count.
        k: usize,
        /// Rewiring probability.
        beta: f64,
    },
    /// Barabási–Albert with triad closure: `(m, triad_p)` — power-law tail
    /// with tunable clustering.
    PowerLaw {
        /// Edges attached per new node.
        m: usize,
        /// Triad-closure probability controlling the clustering coefficient.
        triad_p: f64,
    },
    /// Community-structured graph with a preferential cross-community
    /// backbone: `(community_size, p_in, m_cross)` — high clustering plus
    /// hub tails, matching social graphs like Reddit.
    Community {
        /// Nodes per dense community.
        community_size: usize,
        /// Intra-community edge probability.
        p_in: f64,
        /// Preferential cross-community edges per node.
        m_cross: usize,
    },
    /// Directed citation graph: a BA topology oriented newer→older, so a
    /// node's in-neighbors are the (newer) nodes citing it and
    /// never-cited nodes have in-degree zero — the property that breaks
    /// Betty on OGBN-papers (§V-B).
    Citation {
        /// Edges attached per new node.
        m: usize,
        /// Triad-closure probability.
        triad_p: f64,
    },
}

/// Static description of one dataset: paper-reported statistics plus the
/// scaled synthetic recipe.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Which dataset this describes.
    pub name: DatasetName,
    /// Node count reported in Table II.
    pub paper_nodes: usize,
    /// Undirected edge count reported in Table II.
    pub paper_edges: usize,
    /// Average degree reported in Table II.
    pub paper_avg_degree: f64,
    /// Average clustering coefficient reported in Table II.
    pub paper_avg_coef: f64,
    /// Table II "Power Law" column.
    pub paper_power_law: bool,
    /// Feature dimension (Table II "Feat. Dim.").
    pub feat_dim: usize,
    /// Number of label classes for node classification.
    pub num_classes: usize,
    /// Node count of the synthetic stand-in.
    pub nodes: usize,
    /// Down-scaling factor versus the paper (`paper_nodes / nodes`, rounded).
    pub scale_factor: usize,
    /// Generator recipe.
    pub recipe: Recipe,
}

/// Returns the full catalog in Table II order.
pub fn catalog() -> Vec<DatasetSpec> {
    DatasetName::ALL.iter().map(|&n| spec(n)).collect()
}

/// Returns the [`DatasetSpec`] for `name`.
pub(crate) fn spec(name: DatasetName) -> DatasetSpec {
    match name {
        DatasetName::Cora => DatasetSpec {
            name,
            paper_nodes: 2_700,
            paper_edges: 10_000,
            paper_avg_degree: 3.9,
            paper_avg_coef: 0.24,
            paper_power_law: false,
            feat_dim: 1_433,
            num_classes: 7,
            nodes: 2_708,
            scale_factor: 1,
            recipe: Recipe::SmallWorld { k: 4, beta: 0.22 },
        },
        DatasetName::Pubmed => DatasetSpec {
            name,
            paper_nodes: 19_000,
            paper_edges: 88_000,
            paper_avg_degree: 8.9,
            paper_avg_coef: 0.06,
            paper_power_law: false,
            feat_dim: 500,
            num_classes: 3,
            nodes: 19_717,
            scale_factor: 1,
            recipe: Recipe::SmallWorld { k: 8, beta: 0.55 },
        },
        DatasetName::Reddit => DatasetSpec {
            name,
            paper_nodes: 232_000,
            paper_edges: 114_600_000,
            paper_avg_degree: 492.0,
            paper_avg_coef: 0.579,
            paper_power_law: true,
            feat_dim: 602,
            num_classes: 41,
            nodes: 58_000,
            scale_factor: 4,
            recipe: Recipe::Community {
                community_size: 56,
                p_in: 0.85,
                m_cross: 5,
            },
        },
        DatasetName::OgbnArxiv => DatasetSpec {
            name,
            paper_nodes: 169_000,
            paper_edges: 2_310_000,
            paper_avg_degree: 13.7,
            paper_avg_coef: 0.226,
            paper_power_law: true,
            feat_dim: 128,
            num_classes: 40,
            nodes: 84_500,
            scale_factor: 2,
            recipe: Recipe::PowerLaw {
                m: 7,
                triad_p: 0.85,
            },
        },
        DatasetName::OgbnProducts => DatasetSpec {
            name,
            paper_nodes: 2_450_000,
            paper_edges: 61_860_000,
            paper_avg_degree: 50.5,
            paper_avg_coef: 0.411,
            paper_power_law: true,
            feat_dim: 100,
            num_classes: 47,
            nodes: 153_000,
            scale_factor: 16,
            recipe: Recipe::Community {
                community_size: 30,
                p_in: 0.75,
                m_cross: 4,
            },
        },
        DatasetName::OgbnPapers => DatasetSpec {
            name,
            paper_nodes: 111_100_000,
            paper_edges: 1_600_000_000,
            paper_avg_degree: 29.1,
            paper_avg_coef: 0.085,
            paper_power_law: true,
            feat_dim: 128,
            num_classes: 172,
            nodes: 434_000,
            scale_factor: 256,
            recipe: Recipe::Citation { m: 7, triad_p: 0.6 },
        },
    }
}

/// Storage precision for materialized node features (CLI `--precision`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeaturePrecision {
    /// Generate f32 rows on demand — the default; nothing materialized,
    /// numerics identical to the historical behavior.
    F32,
    /// Materialize the whole feature table as bf16; readers widen rows
    /// back to f32 as they read them: [`Dataset::gather_features`]
    /// widens the rows it copies, and a reader of
    /// [`Dataset::bf16_table`] widens in registers with no copy (mean
    /// GraphSAGE's layer-0 mean reads it so). Halves feature bytes (and so
    /// doubles effective read bandwidth per cache line) at a bounded cost:
    /// each stored value is the round-to-nearest-even bf16 of the f32
    /// feature, so the relative error is at most `2⁻⁸` per element
    /// (see [`buffalo_simd::f32_to_bf16`]). Widening is exact, so
    /// results do not depend on the SIMD backend — only on the chosen
    /// precision.
    Bf16,
}

impl FeaturePrecision {
    /// Parses a CLI `--precision` value.
    pub fn parse(s: &str) -> Result<FeaturePrecision, String> {
        match s {
            "f32" => Ok(FeaturePrecision::F32),
            "bf16" => Ok(FeaturePrecision::Bf16),
            other => Err(format!(
                "unknown --precision value '{other}' (expected f32|bf16)"
            )),
        }
    }

    /// Stable lowercase name (matches the CLI vocabulary).
    pub fn as_str(self) -> &'static str {
        match self {
            FeaturePrecision::F32 => "f32",
            FeaturePrecision::Bf16 => "bf16",
        }
    }
}

/// A generated dataset: the graph plus deterministic feature/label access.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The descriptor this dataset was generated from.
    pub spec: DatasetSpec,
    /// The synthetic graph.
    pub graph: CsrGraph,
    /// Seed features and labels derive from.
    pub seed: u64,
    /// Class prototype vectors (`num_classes × feat_dim`), used to derive
    /// learnable labels from features.
    prototypes: Vec<f32>,
    /// `Some` iff [`FeaturePrecision::Bf16`] is active: the full
    /// `nodes × feat_dim` feature table, rounded to bf16.
    bf16_features: Option<Vec<u16>>,
}

impl Dataset {
    /// Deterministic feature row for `node`: unit-variance pseudo-random
    /// values biased toward the node's class prototype so the
    /// classification task is learnable.
    pub fn feature_row(&self, node: NodeId) -> Vec<f32> {
        let mut row = vec![0.0; self.spec.feat_dim];
        self.feature_rows_into(&[node], &mut row);
        row
    }

    /// The feature synthesiser: writes the row of `nodes[i]` into row `i`
    /// of `out` (`nodes.len() × feat_dim`, row-major). With AVX2 and FMA,
    /// rows go eight at a time through [`buffalo_simd::uniform_rows8`]
    /// (eight xoshiro256++ streams in two vector registers per state
    /// word, one with AVX-512F); the rest, or every row on a host without
    /// AVX2 and FMA, goes through the portable two-stream
    /// [`feature_rows_paired`](Self::feature_rows_paired). Each row's
    /// stream and its f32 operations are fixed by its node alone, so the
    /// grouping never moves a bit.
    fn feature_rows_into(&self, nodes: &[NodeId], out: &mut [f32]) {
        let dim = self.spec.feat_dim;
        if dim == 0 {
            return;
        }
        let mut done = 0;
        for (rows, eight) in out.chunks_exact_mut(8 * dim).zip(nodes.chunks_exact(8)) {
            let seeds = std::array::from_fn(|i| self.stream_seed(eight[i]));
            if !buffalo_simd::uniform_rows8(seeds, rows) {
                break;
            }
            self.mix_prototypes(eight, rows);
            done += 8;
        }
        self.feature_rows_paired(&nodes[done..], &mut out[done * dim..]);
    }

    /// The seed of `node`'s feature stream.
    fn stream_seed(&self, node: NodeId) -> u64 {
        self.seed ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// The portable synthesiser. Rows go two at a time, because one
    /// xoshiro256++ stream's serial state updates cap a row's speed and a
    /// second, independent stream fills the gaps; an odd last row is the
    /// one-stream case. Each row's f32 operations are each rounded on
    /// their own, never fused.
    fn feature_rows_paired(&self, nodes: &[NodeId], out: &mut [f32]) {
        let dim = self.spec.feat_dim;
        let stream = |node: NodeId| StdRng::seed_from_u64(self.stream_seed(node));
        for (rows, pair) in out.chunks_mut(2 * dim).zip(nodes.chunks(2)) {
            // Uniform draws first, the two streams side by side ...
            let (a, b) = rows.split_at_mut(dim);
            let mut ra = stream(pair[0]);
            match *pair {
                [_, second] => {
                    let mut rb = stream(second);
                    for (x, y) in a.iter_mut().zip(b) {
                        *x = ra.gen::<f32>();
                        *y = rb.gen::<f32>();
                    }
                }
                _ => a.iter_mut().for_each(|x| *x = ra.gen::<f32>()),
            }
            // ... then each row mixed with its class prototype while it is
            // still in cache.
            self.mix_prototypes(pair, rows);
        }
    }

    /// Mixes each row of uniform draws with its node's class prototype.
    fn mix_prototypes(&self, nodes: &[NodeId], rows: &mut [f32]) {
        let dim = self.spec.feat_dim;
        for (row, &node) in rows.chunks_exact_mut(dim).zip(nodes) {
            let class = self.label(node) as usize;
            let proto = &self.prototypes[class * dim..(class + 1) * dim];
            for (x, &p) in row.iter_mut().zip(proto) {
                *x = 0.7 * p + 0.3 * (*x * 2.0 - 1.0);
            }
        }
    }

    /// The bf16 feature table (`nodes × feat_dim`, row-major: row `v`
    /// is node `v`'s features, rounded) while [`FeaturePrecision::Bf16`]
    /// is active; `None` under f32 storage. Widening a row with
    /// [`buffalo_simd::SimdBackend::widen_bf16`] gives the bits
    /// [`gather_features`](Self::gather_features) gives.
    pub fn bf16_table(&self) -> Option<&[u16]> {
        self.bf16_features.as_deref()
    }

    /// Starts loading `node`'s bf16 table row into cache for a read soon
    /// after ([`buffalo_simd::prefetch`]); a hint that changes nothing.
    /// Does nothing under f32 storage or for a node past the table.
    #[inline]
    pub fn prefetch_bf16_row(&self, node: NodeId) {
        let dim = self.spec.feat_dim;
        let start = node as usize * dim;
        if let Some(row) = self.bf16_table().and_then(|t| t.get(start..start + dim)) {
            buffalo_simd::prefetch(row);
        }
    }

    /// Deterministic label for `node` in `0..num_classes`.
    pub fn label(&self, node: NodeId) -> u32 {
        // Labels follow community-ish structure: hash of node / 64 block,
        // so neighboring ids (which generators wire preferentially) share
        // labels more often than chance.
        let block = (node / 64) as u64;
        let h = block
            .wrapping_mul(0xFF51_AFD7_ED55_8CCD)
            .wrapping_add(self.seed)
            .rotate_left(31)
            .wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        (h % self.spec.num_classes as u64) as u32
    }

    /// Fills `out` (length `nodes.len() * feat_dim`, row-major) with the
    /// feature rows for `nodes`, parallelized over disjoint output rows via
    /// the ambient [`buffalo_par`] configuration. Under f32 storage each
    /// chunk of rows is synthesised eight (with AVX2) or two rows at a
    /// time; a row's bits depend on its node alone, so the result is
    /// identical for any thread count and wherever a chunk boundary
    /// splits a group.
    ///
    /// # Panics
    ///
    /// Panics if `out` has the wrong length.
    pub fn gather_features(&self, nodes: &[NodeId], out: &mut [f32]) {
        let dim = self.spec.feat_dim;
        assert_eq!(out.len(), nodes.len() * dim, "output buffer size mismatch");
        if dim == 0 {
            return;
        }
        let par = buffalo_par::ambient();
        if let Some(table) = &self.bf16_features {
            // bf16 mode: widen stored rows to f32. Widening is a left
            // shift — exact on every SIMD backend — so the gathered
            // values depend only on the precision, never the backend.
            let simd = par.simd;
            // Nodes are scattered over the table: the row
            // `PREFETCH_AHEAD` nodes on is prefetched while this one is
            // widened.
            let table_row = |v: NodeId| table.get(v as usize * dim..(v as usize + 1) * dim);
            buffalo_par::parallel_rows(out, dim, &par, |row0, chunk| {
                for (r, row) in chunk.chunks_exact_mut(dim).enumerate() {
                    if let Some(ahead) = nodes
                        .get(row0 + r + PREFETCH_AHEAD)
                        .and_then(|&v| table_row(v))
                    {
                        buffalo_simd::prefetch(ahead);
                    }
                    let node = nodes[row0 + r] as usize;
                    simd.widen_bf16(row, &table[node * dim..(node + 1) * dim]);
                }
            });
            return;
        }
        buffalo_par::parallel_rows(out, dim, &par, |row0, chunk| {
            self.feature_rows_into(&nodes[row0..row0 + chunk.len() / dim], chunk);
        });
    }

    /// Switches feature storage. `Bf16` materializes the full
    /// `nodes × feat_dim` table (2 bytes per value — ~111 MB for the
    /// largest scaled stand-in) by rounding each generated f32 row to
    /// nearest-even bf16, parallelized over disjoint node rows: each part
    /// synthesises eight rows per step (the feature synthesiser's wide
    /// group) into an eight-row f32 scratch. `F32` drops the table and
    /// returns to on-demand generation. Idempotent.
    pub fn set_precision(&mut self, precision: FeaturePrecision) {
        match precision {
            FeaturePrecision::F32 => self.bf16_features = None,
            FeaturePrecision::Bf16 => {
                if self.bf16_features.is_some() {
                    return;
                }
                let dim = self.spec.feat_dim;
                let n = self.graph.num_nodes();
                let mut table = vec![0u16; n * dim];
                if dim > 0 {
                    let this = &*self;
                    let par = buffalo_par::ambient();
                    buffalo_par::split_rows(n, &par, &mut table[..], |first, chunk| {
                        // Eight f32 rows of scratch per part, not per group.
                        let mut wide = vec![0.0f32; 8 * dim];
                        for (g, rows) in chunk.chunks_mut(8 * dim).enumerate() {
                            let node = (first + 8 * g) as NodeId;
                            let group: [NodeId; 8] = std::array::from_fn(|i| node + i as NodeId);
                            let wide = &mut wide[..rows.len()];
                            this.feature_rows_into(&group[..rows.len() / dim], wide);
                            for (h, &v) in rows.iter_mut().zip(&*wide) {
                                *h = buffalo_simd::f32_to_bf16(v);
                            }
                        }
                    });
                }
                self.bf16_features = Some(table);
            }
        }
    }
}

/// Generates the synthetic stand-in for `name` with the given `seed`.
///
/// Generation is deterministic: the same `(name, seed)` always produces the
/// same graph, features, and labels.
pub fn load(name: DatasetName, seed: u64) -> Dataset {
    let spec = spec(name);
    let graph = match spec.recipe {
        Recipe::SmallWorld { k, beta } => {
            generators::watts_strogatz(spec.nodes, k, beta, seed).expect("catalog recipe valid")
        }
        Recipe::PowerLaw { m, triad_p } => {
            generators::barabasi_albert(spec.nodes, m, triad_p, seed).expect("catalog recipe valid")
        }
        Recipe::Community {
            community_size,
            p_in,
            m_cross,
        } => generators::community_clustered(spec.nodes, community_size, p_in, m_cross, seed)
            .expect("catalog recipe valid"),
        Recipe::Citation { m, triad_p } => {
            let und = generators::barabasi_albert(spec.nodes, m, triad_p, seed)
                .expect("catalog recipe valid");
            // Orient every edge newer→older: the in-neighbors of a node
            // are the newer nodes citing it, so never-cited (typically
            // late) nodes have in-degree zero.
            let mut b = crate::GraphBuilder::with_capacity(und.num_nodes(), und.num_edges() / 2);
            for v in und.node_ids() {
                for &u in und.neighbors(v) {
                    if u > v {
                        b.add_edge(u, v);
                    }
                }
            }
            b.build_directed()
        }
    };
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0xBEEF));
    let prototypes: Vec<f32> = (0..spec.num_classes * spec.feat_dim)
        .map(|_| rng.gen::<f32>() * 2.0 - 1.0)
        .collect();
    Dataset {
        spec,
        graph,
        seed,
        prototypes,
        bf16_features: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn parse_round_trips() {
        for name in DatasetName::ALL {
            assert_eq!(DatasetName::parse(name.as_str()).unwrap(), name);
        }
        assert!(DatasetName::parse("nope").is_err());
    }

    #[test]
    fn cora_matches_paper_shape() {
        let ds = load(DatasetName::Cora, 1);
        let s = stats::summarize(&ds.graph, 1);
        assert_eq!(s.num_nodes, 2_708);
        assert!((s.avg_degree - 3.9).abs() < 0.5, "avg deg {}", s.avg_degree);
        assert!(
            (s.avg_clustering - 0.24).abs() < 0.1,
            "coef {}",
            s.avg_clustering
        );
        assert!(!s.power_law);
    }

    #[test]
    fn arxiv_is_power_law_with_matching_degree() {
        let ds = load(DatasetName::OgbnArxiv, 2);
        let s = stats::summarize(&ds.graph, 2);
        assert!(
            (s.avg_degree - 13.7).abs() < 1.5,
            "avg deg {}",
            s.avg_degree
        );
        assert!(s.power_law, "arxiv stand-in must have a power-law tail");
    }

    #[test]
    fn labels_in_range_and_deterministic() {
        let ds = load(DatasetName::Pubmed, 3);
        let ds2 = load(DatasetName::Pubmed, 3);
        for v in [0u32, 1, 99, 19_000] {
            assert!(ds.label(v) < ds.spec.num_classes as u32);
            assert_eq!(ds.label(v), ds2.label(v));
        }
    }

    #[test]
    fn features_deterministic_and_class_correlated() {
        let ds = load(DatasetName::Cora, 4);
        assert_eq!(ds.feature_row(5), ds.feature_row(5));
        // Same-class nodes share a prototype component, so their features
        // correlate more than different-class nodes on average.
        let (mut same, mut diff, mut n_same, mut n_diff) = (0.0f64, 0.0f64, 0, 0);
        for a in 0..40u32 {
            for b in (a + 1)..40u32 {
                let (fa, fb) = (ds.feature_row(a), ds.feature_row(b));
                let dot: f32 = fa.iter().zip(&fb).map(|(x, y)| x * y).sum();
                if ds.label(a) == ds.label(b) {
                    same += dot as f64;
                    n_same += 1;
                } else {
                    diff += dot as f64;
                    n_diff += 1;
                }
            }
        }
        if n_same > 0 && n_diff > 0 {
            assert!(same / n_same as f64 > diff / n_diff as f64);
        }
    }

    fn bits(row: &[f32]) -> Vec<u32> {
        row.iter().map(|x| x.to_bits()).collect()
    }

    fn threads(threads: usize) -> buffalo_par::Parallelism {
        buffalo_par::Parallelism {
            threads,
            ..buffalo_par::Parallelism::auto()
        }
    }

    /// 127 node ids over `0..n`, unsorted, the last 27 repeating the
    /// first 27.
    fn scrambled(n: usize) -> Vec<NodeId> {
        (0..127u64)
            .map(|i| ((i % 100) * 0x9E37_79B9 % n as u64) as NodeId)
            .collect()
    }

    /// `gather_features` is `feature_row` row by row, bitwise, at every
    /// length around the row pairing and at 1 and 3 threads (127 rows
    /// over 3 threads puts chunk boundaries mid-pair). The FNV-1a digests
    /// of the gathered bits were pinned before the synthesiser went two
    /// rows at a time.
    #[test]
    fn gather_features_matches_rows() {
        let pinned = [
            (DatasetName::Cora, 0x9c0e_5ada_78ed_1406),
            (DatasetName::OgbnArxiv, 0x9b38_e2e1_575d_6ac8),
        ];
        for (name, digest) in pinned {
            let ds = load(name, 5);
            let dim = ds.spec.feat_dim;
            let nodes = scrambled(ds.graph.num_nodes());
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for len in [0, 1, 2, 3, 127] {
                let nodes = &nodes[..len];
                let mut out = vec![0.0; len * dim];
                for t in [1, 3] {
                    threads(t).install();
                    out.fill(f32::NAN);
                    ds.gather_features(nodes, &mut out);
                    for (row, &v) in out.chunks_exact(dim).zip(nodes) {
                        let want = bits(&ds.feature_row(v));
                        assert_eq!(bits(row), want, "{name} node {v}, {len} rows, {t} threads");
                    }
                }
                for b in out.iter().flat_map(|x| x.to_bits().to_le_bytes()) {
                    h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
                }
            }
            assert_eq!(h, digest, "{name} gathered bits moved");
        }
        buffalo_par::Parallelism::auto().install();
    }

    /// Cora's graph and labels with `dim`-wide features.
    fn with_dim(dim: usize) -> Dataset {
        let mut ds = load(DatasetName::Cora, 9);
        ds.spec.feat_dim = dim;
        let mut rng = StdRng::seed_from_u64(3);
        ds.prototypes = (0..ds.spec.num_classes * dim)
            .map(|_| rng.gen::<f32>() * 2.0 - 1.0)
            .collect();
        ds
    }

    /// The synthesiser (eight streams at a time on a host with AVX2) is
    /// the portable two-stream path and each node's own `StdRng` draws
    /// mixed with its prototype, bit for bit, at every list length
    /// around a group of eight and at widths around the transpose.
    #[test]
    fn synthesis_is_the_two_stream_path_and_std_rng_draws() {
        for dim in [0, 1, 7, 128, 1433] {
            let ds = with_dim(dim);
            let all = scrambled(ds.graph.num_nodes());
            for len in 0..=17 {
                let nodes = &all[..len];
                let mut got = vec![f32::NAN; len * dim];
                ds.feature_rows_into(nodes, &mut got);
                if dim == 0 {
                    continue;
                }
                let mut paired = vec![f32::NAN; len * dim];
                ds.feature_rows_paired(nodes, &mut paired);
                assert_eq!(bits(&got), bits(&paired), "dim {dim}, {len} rows");
                for (row, &v) in got.chunks_exact(dim).zip(nodes) {
                    let mut rng = StdRng::seed_from_u64(ds.stream_seed(v));
                    let class = ds.label(v) as usize;
                    let want: Vec<f32> = ds.prototypes[class * dim..(class + 1) * dim]
                        .iter()
                        .map(|&p| 0.7 * p + 0.3 * (rng.gen::<f32>() * 2.0 - 1.0))
                        .collect();
                    assert_eq!(bits(row), bits(&want), "dim {dim}, {len} rows, node {v}");
                }
            }
        }
    }

    /// The bf16 table is every node's `feature_row` rounded, at a thread
    /// count whose chunks end mid-pair (2 708 nodes over 3 threads).
    #[test]
    fn bf16_table_rounds_every_row() {
        let mut ds = load(DatasetName::Cora, 5);
        threads(3).install();
        ds.set_precision(FeaturePrecision::Bf16);
        buffalo_par::Parallelism::auto().install();
        let dim = ds.spec.feat_dim;
        let table = ds.bf16_table().expect("bf16 table built");
        for (v, row) in table.chunks_exact(dim).enumerate() {
            let want: Vec<u16> = ds
                .feature_row(v as NodeId)
                .into_iter()
                .map(buffalo_simd::f32_to_bf16)
                .collect();
            assert_eq!(row, want, "node {v}");
        }
    }

    #[test]
    fn papers_has_zero_in_degree_nodes() {
        let ds = load(DatasetName::OgbnPapers, 1);
        // The newest node is never cited.
        let last = (ds.graph.num_nodes() - 1) as NodeId;
        assert_eq!(ds.graph.degree(last), 0);
        let zero_in = ds
            .graph
            .node_ids()
            .filter(|&v| ds.graph.degree(v) == 0)
            .count();
        assert!(zero_in > 0, "citation graph must have uncited nodes");
        // But the overall degree distribution still has the long tail.
        assert!(ds.graph.max_degree() > 50 * ds.graph.average_degree() as usize);
    }

    #[test]
    fn bf16_gather_stays_within_error_bound() {
        let mut ds = load(DatasetName::Cora, 5);
        let nodes = [0u32, 3, 7, 11, 2_707];
        let dim = ds.spec.feat_dim;
        let mut exact = vec![0.0; nodes.len() * dim];
        ds.gather_features(&nodes, &mut exact);
        ds.set_precision(FeaturePrecision::Bf16);
        let mut rounded = vec![0.0; nodes.len() * dim];
        ds.gather_features(&nodes, &mut rounded);
        for (&e, &r) in exact.iter().zip(&rounded) {
            // bf16 keeps 8 significand bits: relative error is at most 2^-8.
            assert!(
                (e - r).abs() <= e.abs() / 256.0,
                "bf16 gather out of bound: exact {e} rounded {r}"
            );
        }
    }

    #[test]
    fn precision_toggle_is_idempotent_and_round_trips() {
        let mut ds = load(DatasetName::Cora, 5);
        let exact = ds.feature_row(9);
        let gather = |ds: &Dataset| {
            let mut out = vec![0.0; ds.spec.feat_dim];
            ds.gather_features(&[9], &mut out);
            out
        };
        assert!(ds.bf16_table().is_none(), "f32 storage has no table");
        ds.set_precision(FeaturePrecision::Bf16);
        let rounded = gather(&ds);
        assert_ne!(rounded, exact, "bf16 storage must round the gathered row");
        // The table's row, widened, is the gathered row.
        let dim = ds.spec.feat_dim;
        let table = ds.bf16_table().expect("bf16 table built");
        let mut widened = vec![0.0; dim];
        buffalo_simd::SimdBackend::Scalar.widen_bf16(&mut widened, &table[9 * dim..][..dim]);
        assert_eq!(widened, rounded);
        // Idempotent: re-applying bf16 keeps the table, returning to f32
        // restores exact gathers.
        ds.set_precision(FeaturePrecision::Bf16);
        assert_eq!(gather(&ds), rounded);
        ds.set_precision(FeaturePrecision::F32);
        assert_eq!(gather(&ds), exact);
        assert!(ds.bf16_table().is_none(), "back to f32 drops the table");
    }

    #[test]
    fn feature_precision_parse_round_trips() {
        for p in [FeaturePrecision::F32, FeaturePrecision::Bf16] {
            assert_eq!(FeaturePrecision::parse(p.as_str()).unwrap(), p);
        }
        assert!(FeaturePrecision::parse("f16").is_err());
    }

    #[test]
    fn catalog_covers_all_names() {
        let cat = catalog();
        assert_eq!(cat.len(), 6);
        assert!(cat.iter().all(|s| s.nodes > 0 && s.scale_factor >= 1));
    }
}
