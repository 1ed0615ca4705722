//! Compressed-sparse-row graph storage.

use std::fmt;

/// Node identifier. 32 bits is enough for the scaled datasets in this
/// reproduction (the largest, papers-scale, has ~434 K nodes).
pub type NodeId = u32;

/// How many rows ahead of the one being read the host planning path
/// prefetches ([`CsrGraph::prefetch_row`]): the sampler's frontier rows,
/// the block walker's and the closure walks' batch rows, the bf16
/// gather's table rows. Each is read in an order known in advance but
/// scattered in memory.
pub const PREFETCH_AHEAD: usize = 8;

/// An immutable graph in compressed-sparse-row form.
///
/// `offsets` has `num_nodes + 1` entries; the neighbors of node `v` are
/// `neighbors[offsets[v] .. offsets[v + 1]]`, sorted ascending. For GNN
/// message passing these are the *in*-neighbors of `v`, i.e. the nodes whose
/// embeddings are aggregated to produce `v`'s next-layer embedding. All
/// graphs produced by [`crate::GraphBuilder::build_undirected`] are
/// symmetric, so the distinction only matters for directed builds.
#[derive(Clone, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    neighbors: Vec<NodeId>,
}

impl CsrGraph {
    /// Builds a CSR graph from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is empty, not monotonically non-decreasing, or
    /// does not end at `neighbors.len()`, or if any neighbor id is out of
    /// range. Use [`crate::GraphBuilder`] to construct graphs from edges.
    pub fn from_parts(offsets: Vec<usize>, neighbors: Vec<NodeId>) -> Self {
        assert!(!offsets.is_empty(), "offsets must have at least one entry");
        assert_eq!(
            offsets.last().copied(),
            Some(neighbors.len()),
            "last offset must equal neighbor count"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be non-decreasing"
        );
        let n = offsets.len() - 1;
        assert!(
            neighbors.iter().all(|&u| (u as usize) < n),
            "neighbor id out of range"
        );
        CsrGraph { offsets, neighbors }
    }

    /// An empty graph with `n` isolated nodes.
    pub fn empty(n: usize) -> Self {
        CsrGraph {
            offsets: vec![0; n + 1],
            neighbors: Vec::new(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed adjacency entries. For an undirected graph this is
    /// twice the number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// Degree of node `v` (number of stored in-neighbors).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The sorted neighbor slice of node `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Starts loading `v`'s neighbor row into cache for a read soon after
    /// ([`buffalo_simd::prefetch`]); a hint that changes nothing. Callers
    /// prefetch [`PREFETCH_AHEAD`] rows before they read one.
    #[inline]
    pub fn prefetch_row(&self, v: NodeId) {
        buffalo_simd::prefetch(self.neighbors(v));
    }

    /// Whether edge `(u, v)` exists (i.e. `v` lists `u` as an in-neighbor).
    ///
    /// Binary search — `O(log degree(v))`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(v).binary_search(&u).is_ok()
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes() as NodeId
    }

    /// The raw offsets array (length `num_nodes + 1`).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw concatenated neighbor array.
    pub fn neighbor_array(&self) -> &[NodeId] {
        &self.neighbors
    }

    /// Average degree over all nodes; 0 for an empty graph.
    pub fn average_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_nodes() as f64
        }
    }

    /// Maximum degree over all nodes; 0 for an empty graph.
    pub(crate) fn max_degree(&self) -> usize {
        (0..self.num_nodes() as NodeId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CsrGraph")
            .field("num_nodes", &self.num_nodes())
            .field("num_edges", &self.num_edges())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle_plus_tail() -> CsrGraph {
        // 0-1, 1-2, 2-0 triangle; 2-3 tail.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 0);
        b.add_edge(2, 3);
        b.build_undirected()
    }

    #[test]
    fn counts_nodes_and_edges() {
        let g = triangle_plus_tail();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 8); // 4 undirected edges, symmetric
    }

    #[test]
    fn degrees_match_topology() {
        let g = triangle_plus_tail();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = triangle_plus_tail();
        for v in g.node_ids() {
            let nb = g.neighbors(v);
            assert!(nb.windows(2).all(|w| w[0] < w[1]), "node {v} unsorted");
        }
    }

    #[test]
    fn has_edge_both_directions_in_undirected() {
        let g = triangle_plus_tail();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn empty_graph_has_no_edges() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.average_degree(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn from_parts_rejects_decreasing_offsets() {
        let _ = CsrGraph::from_parts(vec![0, 2, 1], vec![0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_parts_rejects_bad_neighbor() {
        let _ = CsrGraph::from_parts(vec![0, 1], vec![7]);
    }
}
