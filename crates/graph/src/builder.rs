//! Edge-list accumulation and CSR construction.

use crate::csr::{CsrGraph, NodeId};

/// Accumulates edges and builds a [`CsrGraph`].
///
/// Self-loops and duplicate edges are removed during the build. The builder
/// supports two build modes: [`build_undirected`](Self::build_undirected)
/// symmetrizes every edge, while [`build_directed`](Self::build_directed)
/// stores each `(src, dst)` pair as an in-edge of `dst` only.
///
/// # Examples
///
/// ```
/// use buffalo_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(0, 1); // duplicate, dropped
/// b.add_edge(1, 1); // self-loop, dropped
/// let g = b.build_undirected();
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_nodes: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        GraphBuilder {
            num_nodes,
            edges: Vec::new(),
        }
    }

    /// Creates a builder with pre-reserved capacity for `edge_hint` edges.
    pub fn with_capacity(num_nodes: usize, edge_hint: usize) -> Self {
        GraphBuilder {
            num_nodes,
            edges: Vec::with_capacity(edge_hint),
        }
    }

    /// Adds an edge. Ids must be `< num_nodes`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId) {
        assert!(
            (src as usize) < self.num_nodes && (dst as usize) < self.num_nodes,
            "edge ({src}, {dst}) out of range for {} nodes",
            self.num_nodes
        );
        self.edges.push((src, dst));
    }

    /// Adds every edge in `edges`.
    pub fn extend_edges<I: IntoIterator<Item = (NodeId, NodeId)>>(&mut self, edges: I) {
        for (s, d) in edges {
            self.add_edge(s, d);
        }
    }

    /// Builds a symmetric (undirected) CSR graph: each edge `(u, v)` appears
    /// in both adjacency rows. Self-loops and duplicates are dropped.
    pub fn build_undirected(self) -> CsrGraph {
        let n = self.num_nodes;
        let mut pairs = Vec::with_capacity(self.edges.len() * 2);
        for (s, d) in self.edges {
            if s != d {
                pairs.push((s, d));
                pairs.push((d, s));
            }
        }
        build_from_pairs(n, pairs)
    }

    /// Builds a directed CSR graph where row `v` holds the in-neighbors of
    /// `v` (i.e. each added edge `(src, dst)` contributes `src` to the row
    /// of `dst`). Self-loops and duplicates are dropped.
    pub fn build_directed(self) -> CsrGraph {
        let n = self.num_nodes;
        let pairs: Vec<(NodeId, NodeId)> = self
            .edges
            .into_iter()
            .filter(|(s, d)| s != d)
            .map(|(s, d)| (d, s)) // row owner first
            .collect();
        build_from_pairs(n, pairs)
    }
}

/// Counting-sort CSR construction from `(row, value)` pairs, with in-row
/// sorting and deduplication.
fn build_from_pairs(n: usize, mut pairs: Vec<(NodeId, NodeId)>) -> CsrGraph {
    let mut counts = vec![0usize; n + 1];
    for &(row, _) in &pairs {
        counts[row as usize + 1] += 1;
    }
    for i in 1..=n {
        counts[i] += counts[i - 1];
    }
    // Bucket by row using the prefix sums as write cursors.
    let mut cursor = counts.clone();
    let mut values = vec![0 as NodeId; pairs.len()];
    for &(row, v) in &pairs {
        let c = &mut cursor[row as usize];
        values[*c] = v;
        *c += 1;
    }
    pairs.clear();
    pairs.shrink_to_fit();
    // Sort and dedup within each row, compacting in place.
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    let mut write = 0usize;
    for row in 0..n {
        let (start, end) = (counts[row], counts[row + 1]);
        values[start..end].sort_unstable();
        let mut prev: Option<NodeId> = None;
        for i in start..end {
            let v = values[i];
            if prev != Some(v) {
                values[write] = v;
                write += 1;
                prev = Some(v);
            }
        }
        offsets.push(write);
    }
    values.truncate(write);
    CsrGraph::from_parts(offsets, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dedups_and_drops_self_loops() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(0, 1);
        b.add_edge(2, 2);
        let g = b.build_undirected();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn directed_stores_in_neighbors() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        let g = b.build_directed();
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.neighbors(2), &[0, 1]);
    }

    #[test]
    fn extend_edges_matches_add_edge() {
        let mut a = GraphBuilder::new(4);
        a.extend_edges([(0, 1), (1, 2), (2, 3)]);
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        assert_eq!(a.build_undirected(), b.build_undirected());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edge() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new(7).build_undirected();
        assert_eq!(g.num_nodes(), 7);
        assert_eq!(g.num_edges(), 0);
    }

    proptest! {
        /// Undirected build is symmetric: u in N(v) iff v in N(u).
        #[test]
        fn undirected_is_symmetric(edges in proptest::collection::vec((0u32..40, 0u32..40), 0..200)) {
            let mut b = GraphBuilder::new(40);
            b.extend_edges(edges);
            let g = b.build_undirected();
            for v in g.node_ids() {
                for &u in g.neighbors(v) {
                    prop_assert!(g.has_edge(v, u));
                    prop_assert!(g.has_edge(u, v));
                }
            }
        }

        /// Every row is strictly sorted (sorted + deduped) in both modes.
        #[test]
        fn rows_strictly_sorted(edges in proptest::collection::vec((0u32..30, 0u32..30), 0..150)) {
            let mut b = GraphBuilder::new(30);
            b.extend_edges(edges.clone());
            let und = b.build_undirected();
            let mut b2 = GraphBuilder::new(30);
            b2.extend_edges(edges);
            let dir = b2.build_directed();
            for g in [&und, &dir] {
                for v in g.node_ids() {
                    let nb = g.neighbors(v);
                    prop_assert!(nb.windows(2).all(|w| w[0] < w[1]));
                }
            }
        }

        /// Edge count is bounded by the number of distinct non-loop pairs.
        #[test]
        fn no_edge_inflation(edges in proptest::collection::vec((0u32..20, 0u32..20), 0..100)) {
            use std::collections::BTreeSet;
            let distinct: BTreeSet<(u32, u32)> = edges
                .iter()
                .filter(|(s, d)| s != d)
                .map(|&(s, d)| (s.min(d), s.max(d)))
                .collect();
            let mut b = GraphBuilder::new(20);
            b.extend_edges(edges);
            let g = b.build_undirected();
            prop_assert_eq!(g.num_edges(), distinct.len() * 2);
        }
    }
}
