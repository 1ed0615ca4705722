//! Synthetic graph generators.
//!
//! The Buffalo paper evaluates on public datasets (Cora … OGBN-papers).
//! This reproduction has no dataset downloads, so [`crate::datasets`]
//! synthesizes calibrated stand-ins from the models here:
//!
//! * [`barabasi_albert`] — preferential attachment with optional
//!   triad-closure (Holme–Kim), producing the power-law degree tails that
//!   cause bucket explosion *and* tunable clustering for Eq. 1.
//! * [`watts_strogatz`] — small-world ring rewiring, high clustering with
//!   near-regular degrees.

use crate::csr::{CsrGraph, NodeId};
use crate::error::GraphError;
use crate::GraphBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn invalid(name: &'static str, message: impl Into<String>) -> GraphError {
    GraphError::InvalidParameter {
        name,
        message: message.into(),
    }
}

/// Barabási–Albert preferential attachment with Holme–Kim triad closure.
///
/// Each new node attaches `m` edges. The first target is chosen by
/// preferential attachment; each subsequent edge closes a triangle with
/// probability `triad_p` (connecting to a random neighbor of the previous
/// target), otherwise falls back to preferential attachment. `triad_p = 0`
/// yields classic BA; larger values raise the clustering coefficient
/// without destroying the power-law tail.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `m == 0`, `n <= m`, or
/// `triad_p` is outside `[0, 1]`.
pub fn barabasi_albert(
    n: usize,
    m: usize,
    triad_p: f64,
    seed: u64,
) -> Result<CsrGraph, GraphError> {
    if m == 0 {
        return Err(invalid("m", "must attach at least one edge per node"));
    }
    if n <= m {
        return Err(invalid("n", format!("need n > m, got n={n} m={m}")));
    }
    if !(0.0..=1.0).contains(&triad_p) {
        return Err(invalid("triad_p", format!("{triad_p} not in [0, 1]")));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, n * m);
    // `targets` holds one entry per edge endpoint, so sampling uniformly
    // from it is sampling proportionally to degree.
    let mut targets: Vec<NodeId> = Vec::with_capacity(2 * n * m);
    // adjacency for triad closure lookups (only needed during generation)
    let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    // Seed clique over the first m+1 nodes.
    for i in 0..=m {
        for j in 0..i {
            let (u, v) = (i as NodeId, j as NodeId);
            b.add_edge(u, v);
            targets.push(u);
            targets.push(v);
            adj[i].push(v);
            adj[j].push(u);
        }
    }
    for v in (m + 1)..n {
        let v = v as NodeId;
        let mut chosen: Vec<NodeId> = Vec::with_capacity(m);
        let mut last: Option<NodeId> = None;
        while chosen.len() < m {
            let candidate = if let Some(prev) = last.filter(|_| rng.gen::<f64>() < triad_p) {
                // Triad closure: pick a random neighbor of the previous
                // target that is not already chosen.
                let nb = &adj[prev as usize];
                let c = nb[rng.gen_range(0..nb.len())];
                if c == v || chosen.contains(&c) {
                    // fall back to preferential attachment this round
                    targets[rng.gen_range(0..targets.len())]
                } else {
                    c
                }
            } else {
                targets[rng.gen_range(0..targets.len())]
            };
            if candidate == v || chosen.contains(&candidate) {
                continue;
            }
            chosen.push(candidate);
            last = Some(candidate);
        }
        for &t in &chosen {
            b.add_edge(v, t);
            targets.push(v);
            targets.push(t);
            adj[v as usize].push(t);
            adj[t as usize].push(v);
        }
    }
    Ok(b.build_undirected())
}

/// Watts–Strogatz small-world graph: a ring lattice where each node connects
/// to its `k` nearest neighbors (`k` rounded down to even), with each edge
/// rewired to a random endpoint with probability `beta`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `k < 2`, `k >= n`, or `beta`
/// is outside `[0, 1]`.
pub fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> Result<CsrGraph, GraphError> {
    if k < 2 || k >= n {
        return Err(invalid("k", format!("need 2 <= k < n, got k={k} n={n}")));
    }
    if !(0.0..=1.0).contains(&beta) {
        return Err(invalid("beta", format!("{beta} not in [0, 1]")));
    }
    let half = k / 2;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, n * half);
    for i in 0..n {
        for d in 1..=half {
            let j = (i + d) % n;
            let (src, dst) = if beta > 0.0 && rng.gen::<f64>() < beta {
                // Rewire to a uniform random non-self target.
                let mut t = rng.gen_range(0..n);
                while t == i {
                    t = rng.gen_range(0..n);
                }
                (i, t)
            } else {
                (i, j)
            };
            b.add_edge(src as NodeId, dst as NodeId);
        }
    }
    Ok(b.build_undirected())
}

/// Community-structured graph with a power-law cross-community backbone.
///
/// Nodes are partitioned into consecutive communities of `community_size`;
/// within each community, edges are Erdős–Rényi with probability `p_in`
/// (driving the clustering coefficient toward `p_in · (d_in / d)²`). On
/// top, every node attaches `m_cross` edges by preferential attachment in
/// node order, producing the heavy-tailed hub degrees of social graphs.
/// This models datasets like Reddit and OGBN-products, whose high
/// clustering (0.41–0.58) cannot be reached by triad closure alone at
/// their average degrees.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `community_size < 2`,
/// `p_in` is outside `[0, 1]`, or `m_cross == 0`.
pub(crate) fn community_clustered(
    n: usize,
    community_size: usize,
    p_in: f64,
    m_cross: usize,
    seed: u64,
) -> Result<CsrGraph, GraphError> {
    if community_size < 2 {
        return Err(invalid("community_size", "must be at least 2"));
    }
    if !(0.0..=1.0).contains(&p_in) {
        return Err(invalid("p_in", format!("{p_in} not in [0, 1]")));
    }
    if m_cross == 0 {
        return Err(invalid("m_cross", "must attach at least one cross edge"));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let expected = (n as f64 * (community_size as f64 * p_in / 2.0 + m_cross as f64)) as usize;
    let mut b = GraphBuilder::with_capacity(n, expected);
    // Dense intra-community edges.
    let mut start = 0usize;
    while start < n {
        let end = (start + community_size).min(n);
        for i in start..end {
            for j in (i + 1)..end {
                if rng.gen::<f64>() < p_in {
                    b.add_edge(i as NodeId, j as NodeId);
                }
            }
        }
        start = end;
    }
    // Preferential cross-community backbone, grown in node order so early
    // nodes become hubs (BA-style rich-get-richer).
    let mut targets: Vec<NodeId> = (0..community_size.min(n) as NodeId).collect();
    for v in 1..n {
        let v = v as NodeId;
        for _ in 0..m_cross {
            let t = targets[rng.gen_range(0..targets.len())];
            if t != v {
                b.add_edge(v, t);
                targets.push(t);
            }
            targets.push(v);
        }
    }
    Ok(b.build_undirected())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn ba_average_degree_is_about_2m() {
        let g = barabasi_albert(5_000, 4, 0.0, 2).unwrap();
        let avg = g.average_degree();
        assert!((avg - 8.0).abs() < 0.5, "avg degree {avg}");
    }

    #[test]
    fn ba_has_heavy_tail() {
        let g = barabasi_albert(10_000, 3, 0.0, 5).unwrap();
        assert!(g.max_degree() > 20 * g.average_degree() as usize / 2);
    }

    #[test]
    fn triad_closure_raises_clustering() {
        let low = barabasi_albert(3_000, 4, 0.0, 8).unwrap();
        let high = barabasi_albert(3_000, 4, 0.9, 8).unwrap();
        let c_low = stats::clustering_coefficient_exact(&low);
        let c_high = stats::clustering_coefficient_exact(&high);
        assert!(c_high > c_low * 1.5, "low={c_low} high={c_high}");
    }

    #[test]
    fn ba_rejects_bad_parameters() {
        assert!(barabasi_albert(5, 5, 0.0, 0).is_err());
        assert!(barabasi_albert(10, 0, 0.0, 0).is_err());
        assert!(barabasi_albert(10, 2, 1.5, 0).is_err());
    }

    #[test]
    fn ws_ring_is_regular() {
        let g = watts_strogatz(100, 6, 0.0, 0).unwrap();
        for v in g.node_ids() {
            assert_eq!(g.degree(v), 6);
        }
    }

    #[test]
    fn ws_preserves_edge_count_under_rewiring() {
        let g0 = watts_strogatz(500, 8, 0.0, 3).unwrap();
        let g1 = watts_strogatz(500, 8, 0.3, 3).unwrap();
        // Rewiring can create duplicates that dedup removes, so allow a
        // small deficit but no growth.
        assert!(g1.num_edges() <= g0.num_edges());
        assert!(g1.num_edges() as f64 > 0.95 * g0.num_edges() as f64);
    }

    #[test]
    fn ws_rejects_bad_parameters() {
        assert!(watts_strogatz(10, 1, 0.0, 0).is_err());
        assert!(watts_strogatz(10, 10, 0.0, 0).is_err());
        assert!(watts_strogatz(10, 4, 2.0, 0).is_err());
    }

    #[test]
    fn community_graph_is_clustered_and_heavy_tailed() {
        let g = community_clustered(10_000, 24, 0.7, 4, 5).unwrap();
        let c = stats::clustering_coefficient_exact(&g);
        assert!(c > 0.2, "clustering {c} too low");
        // The preferential backbone must create hubs.
        assert!(g.max_degree() as f64 > 8.0 * g.average_degree());
    }

    #[test]
    fn community_clustering_tracks_p_in() {
        let lo = community_clustered(5_000, 20, 0.3, 3, 8).unwrap();
        let hi = community_clustered(5_000, 20, 0.9, 3, 8).unwrap();
        let c_lo = stats::clustering_coefficient_exact(&lo);
        let c_hi = stats::clustering_coefficient_exact(&hi);
        assert!(c_hi > 1.5 * c_lo, "lo={c_lo} hi={c_hi}");
    }

    #[test]
    fn community_rejects_bad_parameters() {
        assert!(community_clustered(100, 1, 0.5, 3, 0).is_err());
        assert!(community_clustered(100, 10, 1.5, 3, 0).is_err());
        assert!(community_clustered(100, 10, 0.5, 0, 0).is_err());
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let a = barabasi_albert(1_000, 3, 0.2, 77).unwrap();
        let b = barabasi_albert(1_000, 3, 0.2, 77).unwrap();
        assert_eq!(a, b);
        let c = barabasi_albert(1_000, 3, 0.2, 78).unwrap();
        assert_ne!(a, c);
    }
}
