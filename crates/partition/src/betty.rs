//! Betty-style batch-level partitioning (ASPLOS'23), the paper's primary
//! baseline.
//!
//! Betty partitions a sampled batch into micro-batches by:
//!
//! 1. **REG construction** — building a *redundancy-embedded graph* over
//!    the output nodes: two output nodes are connected with a weight equal
//!    to the number of sampled input nodes they share, so that a min-cut
//!    partition of the REG minimizes cross-micro-batch node redundancy.
//!    This explicit embedding is the expensive step the Buffalo paper
//!    calls out ("can take a few minutes for a billion-scale graph").
//! 2. **METIS partitioning** of the REG into `K` balanced groups.
//!
//! Both phases are executed for real and timed separately — they are the
//! "REG construction" and "METIS partition" bars of Figure 11.

use crate::metis::metis_kway;
use buffalo_graph::{CsrGraph, GraphBuilder, NodeId};
use std::fmt;
use std::time::{Duration, Instant};

/// Betty's failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BettyError {
    /// Betty cannot process output nodes with zero in-edges (§V-B: "Betty
    /// does not support block generation for billion-scale OGBN-papers
    /// because Betty cannot process nodes with zero in-edges").
    ZeroInDegree {
        /// The first offending output node (batch-local id).
        node: NodeId,
    },
    /// `k` was zero or exceeded the number of output nodes.
    InvalidK {
        /// The requested group count.
        k: usize,
        /// Number of output nodes available.
        num_outputs: usize,
    },
}

impl fmt::Display for BettyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BettyError::ZeroInDegree { node } => {
                write!(f, "Betty cannot process node {node} with zero in-edges")
            }
            BettyError::InvalidK { k, num_outputs } => {
                write!(f, "invalid K={k} for {num_outputs} output nodes")
            }
        }
    }
}

impl std::error::Error for BettyError {}

/// Result of a Betty partitioning run, with per-phase timings.
#[derive(Debug, Clone)]
pub struct BettyPartition {
    /// Seed local ids per micro-batch.
    pub groups: Vec<Vec<NodeId>>,
    /// Time spent building the redundancy-embedded graph.
    pub reg_time: Duration,
    /// Time spent in METIS over the REG.
    pub metis_time: Duration,
    /// Number of REG edges (diagnostic).
    pub reg_edges: usize,
}

/// Cap on the dependent-output set tracked per node during REG
/// construction. Betty must know, for every node of the batch, which
/// outputs' multi-hop closures contain it; propagating those sets over
/// every edge of every layer is the cost that makes REG construction
/// "take a few minutes for a billion-scale graph" (§I). The cap bounds
/// pathological hubs (which every output depends on) without dropping
/// any output node.
const MAX_DEPENDENTS_PER_NODE: usize = 128;

/// Betty batch-level partitioning: splits the first `num_seeds` local ids
/// of `batch` into `k` groups, on a REG that embeds `depth` hops of
/// dependencies (the model's aggregation depth).
///
/// # Errors
///
/// * [`BettyError::ZeroInDegree`] if any output node has no sampled
///   in-neighbors (Betty's documented limitation).
/// * [`BettyError::InvalidK`] if `k == 0` or `k > num_seeds`.
pub fn betty_partition(
    batch: &CsrGraph,
    num_seeds: usize,
    depth: usize,
    k: usize,
) -> Result<BettyPartition, BettyError> {
    if k == 0 || k > num_seeds {
        return Err(BettyError::InvalidK {
            k,
            num_outputs: num_seeds,
        });
    }
    for v in 0..num_seeds as NodeId {
        if batch.degree(v) == 0 {
            return Err(BettyError::ZeroInDegree { node: v });
        }
    }
    // Phase 1: REG construction.
    // lint:allow(wallclock-taint): phase-timing telemetry for the Betty baseline report (suppresses chain: betty_partition → Instant::now)
    let reg_start = Instant::now();
    let (reg, reg_edges) = build_reg(batch, num_seeds, depth);
    let reg_time = reg_start.elapsed();
    // Phase 2: METIS over the REG.
    // lint:allow(wallclock-taint): phase-timing telemetry for the Betty baseline report (suppresses chain: betty_partition → Instant::now)
    let metis_start = Instant::now();
    let parts = metis_kway(&reg, k);
    let metis_time = metis_start.elapsed();
    let mut groups: Vec<Vec<NodeId>> = vec![Vec::new(); k];
    for (v, &p) in parts.iter().enumerate() {
        groups[p as usize].push(v as NodeId);
    }
    Ok(BettyPartition {
        groups,
        reg_time,
        metis_time,
        reg_edges,
    })
}

/// Builds the redundancy-embedded graph.
///
/// Phase 1 propagates, for every batch node, the (capped, sorted) set
/// of output nodes whose `depth`-hop closure contains it — the
/// explicit multi-hop dependency embedding that makes Betty's REG
/// construction expensive. Phase 2 connects outputs that co-depend on
/// a node (consecutive pairs per dependent set, so REG size stays
/// linear in the embedded information while METIS still clusters
/// high-overlap outputs).
fn build_reg(batch: &CsrGraph, num_seeds: usize, depth: usize) -> (CsrGraph, usize) {
    let n = batch.num_nodes();
    let cap = MAX_DEPENDENTS_PER_NODE;
    let mut dependents: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for s in 0..num_seeds as NodeId {
        dependents[s as usize].push(s);
    }
    let mut merged: Vec<NodeId> = Vec::with_capacity(2 * cap);
    for _ in 0..depth {
        for v in 0..n as NodeId {
            if dependents[v as usize].is_empty() {
                continue;
            }
            for &u in batch.neighbors(v) {
                // dependents[u] ∪= dependents[v], sorted merge, capped.
                let (dv, du) = (&dependents[v as usize], &dependents[u as usize]);
                if du.len() >= cap {
                    continue;
                }
                merged.clear();
                let (mut i, mut j) = (0usize, 0usize);
                while merged.len() < cap && (i < dv.len() || j < du.len()) {
                    let next = match (dv.get(i), du.get(j)) {
                        (Some(&a), Some(&b)) if a == b => {
                            i += 1;
                            j += 1;
                            a
                        }
                        (Some(&a), Some(&b)) if a < b => {
                            i += 1;
                            a
                        }
                        (Some(_), Some(&b)) => {
                            j += 1;
                            b
                        }
                        (Some(&a), None) => {
                            i += 1;
                            a
                        }
                        (None, Some(&b)) => {
                            j += 1;
                            b
                        }
                        (None, None) => break,
                    };
                    merged.push(next);
                }
                dependents[u as usize].clear();
                dependents[u as usize].extend_from_slice(&merged);
            }
        }
    }
    let mut b = GraphBuilder::new(num_seeds);
    let mut raw_edges = 0usize;
    for deps in &dependents {
        for w in deps.windows(2) {
            b.add_edge(w[0], w[1]);
            raw_edges += 1;
        }
    }
    (b.build_undirected(), raw_edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffalo_graph::generators;
    use buffalo_sampling::BatchSampler;

    fn sampled_batch(seeds: usize) -> buffalo_sampling::Batch {
        let g = generators::barabasi_albert(2_000, 6, 0.4, 9).unwrap();
        let seed_ids: Vec<NodeId> = (0..seeds as NodeId).collect();
        BatchSampler::new(vec![10, 25]).sample(&g, &seed_ids, 4)
    }

    #[test]
    fn partitions_cover_all_outputs() {
        let batch = sampled_batch(200);
        let part = betty_partition(&batch.graph, batch.num_seeds, 2, 4).unwrap();
        assert_eq!(part.groups.len(), 4);
        let mut all: Vec<NodeId> = part.groups.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn groups_are_roughly_balanced() {
        let batch = sampled_batch(300);
        let part = betty_partition(&batch.graph, batch.num_seeds, 2, 3).unwrap();
        for g in &part.groups {
            assert!(
                g.len() >= 50 && g.len() <= 150,
                "unbalanced group of {} outputs",
                g.len()
            );
        }
    }

    #[test]
    fn rejects_zero_in_degree_outputs() {
        // An isolated seed: batch graph where seed 1 has no in-edges.
        let mut b = buffalo_graph::GraphBuilder::new(4);
        b.add_edge(2, 0);
        b.add_edge(3, 0);
        let g = b.build_directed();
        let err = betty_partition(&g, 2, 2, 2).unwrap_err();
        assert_eq!(err, BettyError::ZeroInDegree { node: 1 });
        assert!(err.to_string().contains("zero in-edges"));
    }

    #[test]
    fn rejects_invalid_k() {
        let batch = sampled_batch(10);
        for k in [0, 11] {
            assert!(matches!(
                betty_partition(&batch.graph, batch.num_seeds, 2, k),
                Err(BettyError::InvalidK { .. })
            ));
        }
    }

    #[test]
    fn reg_links_outputs_sharing_inputs() {
        // Outputs 0 and 1 share input 3; output 2 is independent.
        let mut b = buffalo_graph::GraphBuilder::new(5);
        b.add_edge(3, 0);
        b.add_edge(3, 1);
        b.add_edge(4, 2);
        let g = b.build_directed();
        let (reg, edges) = build_reg(&g, 3, 2);
        assert!(reg.has_edge(0, 1));
        assert_eq!(reg.degree(2), 0);
        assert_eq!(edges, 1);
    }

    /// Outputs 2 and 3 share input 4 only through 2's third hop
    /// (2 ← 1 ← 0 ← 4, 3 ← 4), and every step of that path leads to a
    /// lower id, so each hop takes its own propagation round: the REG of
    /// a 3-layer model links 2–3, a 2-hop REG cannot.
    #[test]
    fn reg_embeds_as_many_hops_as_the_model_has_layers() {
        let mut b = GraphBuilder::new(5);
        for (src, dst) in [(1, 2), (0, 1), (4, 0), (4, 3)] {
            b.add_edge(src, dst);
        }
        let g = b.build_directed();
        let (two_hop, _) = build_reg(&g, 4, 2);
        assert!(!two_hop.has_edge(2, 3));
        let (three_hop, _) = build_reg(&g, 4, 3);
        assert!(three_hop.has_edge(2, 3));
        assert_eq!(betty_partition(&g, 4, 2, 2).unwrap().reg_edges, 5);
        assert_eq!(betty_partition(&g, 4, 3, 2).unwrap().reg_edges, 6);
    }

    #[test]
    fn timings_are_recorded() {
        let batch = sampled_batch(100);
        let part = betty_partition(&batch.graph, batch.num_seeds, 2, 2).unwrap();
        // Durations are non-negative by construction; just make sure the
        // phases actually ran.
        assert!(part.reg_edges > 0);
        assert!(part.reg_time + part.metis_time > Duration::ZERO);
    }
}
