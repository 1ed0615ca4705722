//! Graph statistics: degree distributions, clustering coefficients, and
//! power-law fitting.
//!
//! These statistics drive two parts of the Buffalo reproduction:
//!
//! * **Figure 1 / Figure 4** — degree-frequency and bucket-volume
//!   distributions that motivate the bucket explosion problem.
//! * **Equation 1** — the average clustering coefficient `C` is a direct
//!   input to the redundancy-aware grouping ratio `R_group`.

use crate::csr::{CsrGraph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Degree-frequency histogram: `hist[d]` is the number of nodes with degree
/// exactly `d`. The vector has length `max_degree + 1` (empty for an empty
/// graph). This is the data behind Figure 1 of the paper.
pub fn degree_frequency(g: &CsrGraph) -> Vec<usize> {
    let mut hist = vec![0usize; g.max_degree() + 1];
    for v in g.node_ids() {
        hist[g.degree(v)] += 1;
    }
    hist
}

/// Exact local clustering coefficient of node `v`: the fraction of pairs of
/// `v`'s neighbors that are themselves connected. Nodes of degree < 2 have
/// coefficient 0.
pub(crate) fn local_clustering(g: &CsrGraph, v: NodeId) -> f64 {
    let nb = g.neighbors(v);
    let d = nb.len();
    if d < 2 {
        return 0.0;
    }
    let mut closed = 0usize;
    for i in 0..d {
        for j in (i + 1)..d {
            if g.has_edge(nb[i], nb[j]) {
                closed += 1;
            }
        }
    }
    closed as f64 / (d * (d - 1) / 2) as f64
}

/// Exact average clustering coefficient (mean of local coefficients over
/// all nodes). Quadratic in degree per node — use
/// [`clustering_coefficient_sampled`] for large graphs.
pub fn clustering_coefficient_exact(g: &CsrGraph) -> f64 {
    let n = g.num_nodes();
    if n == 0 {
        return 0.0;
    }
    let sum: f64 = g.node_ids().map(|v| local_clustering(g, v)).sum();
    sum / n as f64
}

/// Estimates the average clustering coefficient by sampling.
///
/// Samples up to `node_samples` nodes uniformly; for each sampled node of
/// degree ≥ 2 it samples up to `pair_samples` random neighbor pairs and
/// checks closure. This is the standard wedge-sampling estimator and is
/// what Buffalo uses offline to obtain `C` for Eq. 1 on large graphs.
pub fn clustering_coefficient_sampled(
    g: &CsrGraph,
    node_samples: usize,
    pair_samples: usize,
    seed: u64,
) -> f64 {
    let n = g.num_nodes();
    if n == 0 {
        return 0.0;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let take = node_samples.min(n);
    let mut total = 0.0f64;
    for _ in 0..take {
        let v = rng.gen_range(0..n) as NodeId;
        let nb = g.neighbors(v);
        let d = nb.len();
        if d < 2 {
            continue; // contributes 0
        }
        let pairs = pair_samples.min(d * (d - 1) / 2).max(1);
        let mut closed = 0usize;
        for _ in 0..pairs {
            let i = rng.gen_range(0..d);
            let mut j = rng.gen_range(0..d - 1);
            if j >= i {
                j += 1;
            }
            if g.has_edge(nb[i], nb[j]) {
                closed += 1;
            }
        }
        total += closed as f64 / pairs as f64;
    }
    total / take as f64
}

/// Result of fitting a power law to a degree distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawFit {
    /// Maximum-likelihood exponent `alpha` of `P(d) ~ d^-alpha` for
    /// `d >=` the fit's minimum degree.
    pub alpha: f64,
    /// Heavy-tail indicator: ratio of the maximum degree to the average
    /// degree. Long-tailed graphs have large values.
    pub max_to_avg_ratio: f64,
}

impl PowerLawFit {
    /// Heuristic classification matching the paper's Table II "Power Law"
    /// column: a graph is flagged as power-law when the fitted exponent is
    /// in the typical scale-free range and the tail is heavy.
    pub(crate) fn is_power_law(&self) -> bool {
        self.alpha > 1.2 && self.alpha < 4.5 && self.max_to_avg_ratio > 10.0
    }
}

/// Fits a discrete power law to the degree distribution using the standard
/// continuous-approximation MLE `alpha = 1 + n / Σ ln(d_i / (d_min - 0.5))`.
///
/// Returns `None` if fewer than 10 nodes have degree ≥ `d_min`.
pub fn fit_power_law(g: &CsrGraph, d_min: usize) -> Option<PowerLawFit> {
    let d_min = d_min.max(1);
    let mut n_tail = 0usize;
    let mut log_sum = 0.0f64;
    let mut max_deg = 0usize;
    for v in g.node_ids() {
        let d = g.degree(v);
        max_deg = max_deg.max(d);
        if d >= d_min {
            n_tail += 1;
            log_sum += (d as f64 / (d_min as f64 - 0.5)).ln();
        }
    }
    if n_tail < 10 || log_sum <= 0.0 {
        return None;
    }
    let avg = g.average_degree().max(f64::MIN_POSITIVE);
    Some(PowerLawFit {
        alpha: 1.0 + n_tail as f64 / log_sum,
        max_to_avg_ratio: max_deg as f64 / avg,
    })
}

/// Summary statistics for a graph, mirroring a row of Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphSummary {
    /// Number of nodes.
    pub num_nodes: usize,
    /// Number of directed adjacency entries.
    pub num_edges: usize,
    /// Average degree.
    pub avg_degree: f64,
    /// Average clustering coefficient (sampled for graphs above
    /// `EXACT_CLUSTERING_LIMIT` nodes).
    pub avg_clustering: f64,
    /// Maximum degree.
    pub max_degree: usize,
    /// Whether the degree distribution is classified as power-law.
    pub power_law: bool,
}

/// Node-count threshold below which [`summarize`] computes the clustering
/// coefficient exactly.
pub const EXACT_CLUSTERING_LIMIT: usize = 20_000;

/// Computes a [`GraphSummary`] (one Table II row) for `g`.
pub fn summarize(g: &CsrGraph, seed: u64) -> GraphSummary {
    let avg_clustering = if g.num_nodes() <= EXACT_CLUSTERING_LIMIT {
        clustering_coefficient_exact(g)
    } else {
        clustering_coefficient_sampled(g, 10_000, 50, seed)
    };
    let power_law = fit_power_law(g, 5).is_some_and(|f| f.is_power_law());
    GraphSummary {
        num_nodes: g.num_nodes(),
        num_edges: g.num_edges(),
        avg_degree: g.average_degree(),
        avg_clustering,
        max_degree: g.max_degree(),
        power_law,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::GraphBuilder;

    fn triangle() -> CsrGraph {
        let mut b = GraphBuilder::new(3);
        b.extend_edges([(0, 1), (1, 2), (2, 0)]);
        b.build_undirected()
    }

    fn star(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for i in 1..n as NodeId {
            b.add_edge(0, i);
        }
        b.build_undirected()
    }

    #[test]
    fn triangle_has_full_clustering() {
        let g = triangle();
        assert_eq!(clustering_coefficient_exact(&g), 1.0);
        for v in g.node_ids() {
            assert_eq!(local_clustering(&g, v), 1.0);
        }
    }

    #[test]
    fn star_has_zero_clustering() {
        let g = star(10);
        assert_eq!(clustering_coefficient_exact(&g), 0.0);
    }

    #[test]
    fn degree_frequency_sums_to_node_count() {
        let g = star(10);
        let hist = degree_frequency(&g);
        assert_eq!(hist.iter().sum::<usize>(), 10);
        assert_eq!(hist[1], 9);
        assert_eq!(hist[9], 1);
    }

    #[test]
    fn degree_frequency_of_empty_graph() {
        let g = CsrGraph::empty(3);
        let hist = degree_frequency(&g);
        assert_eq!(hist, vec![3]);
    }

    #[test]
    fn sampled_clustering_tracks_exact_on_ws() {
        // Watts–Strogatz has substantial clustering.
        let g = generators::watts_strogatz(2_000, 10, 0.05, 42).unwrap();
        let exact = clustering_coefficient_exact(&g);
        let sampled = clustering_coefficient_sampled(&g, 1_500, 40, 7);
        assert!(
            (exact - sampled).abs() < 0.08,
            "exact={exact} sampled={sampled}"
        );
    }

    #[test]
    fn power_law_fit_detects_ba_graph() {
        let g = generators::barabasi_albert(20_000, 5, 0.0, 11).unwrap();
        let fit = fit_power_law(&g, 5).expect("fit should succeed");
        assert!(fit.alpha > 1.8 && fit.alpha < 4.0, "alpha={}", fit.alpha);
        assert!(fit.is_power_law());
    }

    #[test]
    fn power_law_fit_rejects_regular_graph() {
        // A ring lattice is regular: every degree identical, no tail.
        let g = generators::watts_strogatz(5_000, 8, 0.0, 3).unwrap();
        let fit = fit_power_law(&g, 5).unwrap();
        assert!(!fit.is_power_law(), "ring flagged power-law: {fit:?}");
    }

    #[test]
    fn fit_returns_none_for_tiny_tail() {
        let g = triangle();
        assert!(fit_power_law(&g, 5).is_none());
    }

    #[test]
    fn summarize_matches_components() {
        let g = triangle();
        let s = summarize(&g, 1);
        assert_eq!(s.num_nodes, 3);
        assert_eq!(s.num_edges, 6);
        assert_eq!(s.avg_clustering, 1.0);
        assert!(!s.power_law);
    }
}
