//! The block data structure.

use buffalo_graph::NodeId;
use std::fmt;
use std::sync::Arc;

/// Connectivity for one GNN layer: a bipartite message-flow graph from
/// source nodes to destination nodes.
///
/// Ids in `dst_nodes` and `src_nodes` are *batch-local* node ids. Following
/// the usual MFG convention, the first `dst_nodes.len()` entries of
/// `src_nodes` are the destinations themselves (a destination always needs
/// its own previous-layer embedding), followed by pure sources.
///
/// Edges are stored CSR-style per destination; the values in
/// [`src_positions`](Self::src_positions) index into `src_nodes`.
///
/// A layer's sources are the next layer's destinations and a node keeps
/// its position once it has one, so the blocks of one micro-batch are
/// nested prefixes of the input layer's arrays. They share that one set
/// of arrays; a block is the pair of prefix lengths that selects its view.
#[derive(Clone)]
pub struct Block {
    arrays: Arc<Arrays>,
    num_dst: usize,
    num_src: usize,
}

/// The arrays of a micro-batch's input layer: the closure in discovery
/// order, and the CSR rows of every node that is a destination somewhere.
struct Arrays {
    nodes: Vec<NodeId>,
    offsets: Vec<usize>,
    indices: Vec<u32>,
}

impl Block {
    /// Assembles a block from parts.
    ///
    /// # Panics
    ///
    /// Panics if the CSR shape is inconsistent, if `src_nodes` does not
    /// start with `dst_nodes`, or if any index is out of range of
    /// `src_nodes`.
    pub fn from_parts(
        dst_nodes: Vec<NodeId>,
        src_nodes: Vec<NodeId>,
        offsets: Vec<usize>,
        indices: Vec<u32>,
    ) -> Self {
        assert_eq!(offsets.len(), dst_nodes.len() + 1, "offsets length");
        assert_eq!(*offsets.last().unwrap_or(&0), indices.len(), "last offset");
        assert!(
            src_nodes.len() >= dst_nodes.len() && src_nodes[..dst_nodes.len()] == dst_nodes[..],
            "src_nodes must begin with dst_nodes"
        );
        let layer = (dst_nodes.len(), src_nodes.len());
        Block::nested(src_nodes, offsets, indices, &[layer]).remove(0)
    }

    /// The blocks of one micro-batch over one shared set of arrays:
    /// `layers[i]` is block `i`'s `(num_dst, num_src)`, input (largest)
    /// layer first, and block `i` reads `nodes[..num_src]`,
    /// `offsets[..=num_dst]` and the `indices` those offsets span.
    ///
    /// # Panics
    ///
    /// Panics if a layer does not fit the arrays, if the layers do not
    /// shrink, if `offsets` decreases, or if a row of a layer names a
    /// position outside that layer's sources.
    pub(crate) fn nested(
        nodes: Vec<NodeId>,
        offsets: Vec<usize>,
        indices: Vec<u32>,
        layers: &[(usize, usize)],
    ) -> Vec<Block> {
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be non-decreasing"
        );
        // From the output layer inward the layers grow, so a row checked
        // against the first layer holding it is in range for every later
        // one: each index is checked once.
        let (mut rows, mut srcs, mut edges) = (0usize, 0usize, 0usize);
        for &(num_dst, num_src) in layers.iter().rev() {
            assert!(
                rows <= num_dst && srcs <= num_src && num_dst <= num_src,
                "layers must nest"
            );
            assert!(num_src <= nodes.len(), "layer exceeds the node list");
            assert!(num_dst < offsets.len(), "offsets length");
            let end = offsets[num_dst];
            assert!(end <= indices.len(), "last offset");
            // The largest index of the rows this layer adds, as a
            // reduction the compiler vectorizes (`all` stops early and
            // does not).
            let largest = indices[edges..end].iter().fold(0, |m, &i| m.max(i));
            assert!(
                edges == end || (largest as usize) < num_src,
                "edge index out of range"
            );
            (rows, srcs, edges) = (num_dst, num_src, end);
        }
        let arrays = Arc::new(Arrays {
            nodes,
            offsets,
            indices,
        });
        layers
            .iter()
            .map(|&(num_dst, num_src)| Block {
                arrays: Arc::clone(&arrays),
                num_dst,
                num_src,
            })
            .collect()
    }

    fn offsets(&self) -> &[usize] {
        &self.arrays.offsets[..=self.num_dst]
    }

    fn indices(&self) -> &[u32] {
        &self.arrays.indices[..self.arrays.offsets[self.num_dst]]
    }

    /// Destination (output) nodes of this layer, batch-local ids.
    pub fn dst_nodes(&self) -> &[NodeId] {
        &self.arrays.nodes[..self.num_dst]
    }

    /// Source (input) nodes of this layer, batch-local ids; begins with the
    /// destination nodes.
    pub fn src_nodes(&self) -> &[NodeId] {
        &self.arrays.nodes[..self.num_src]
    }

    /// Number of destinations.
    pub fn num_dst(&self) -> usize {
        self.num_dst
    }

    /// Number of sources (including the embedded destinations).
    pub fn num_src(&self) -> usize {
        self.num_src
    }

    /// Total number of message edges.
    pub fn num_edges(&self) -> usize {
        self.arrays.offsets[self.num_dst]
    }

    /// In-degree of the `i`-th destination.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_dst()`.
    pub fn in_degree(&self, i: usize) -> usize {
        let offsets = self.offsets();
        offsets[i + 1] - offsets[i]
    }

    /// Positions (into [`src_nodes`](Self::src_nodes)) of the sources
    /// feeding the `i`-th destination.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_dst()`.
    pub fn src_positions(&self, i: usize) -> &[u32] {
        let offsets = self.offsets();
        &self.arrays.indices[offsets[i]..offsets[i + 1]]
    }

    /// [`src_positions`](Self::src_positions) of the `in_degree(i)` edges
    /// that start `ahead` edges past the `i`-th destination's first, cut
    /// at the block's last edge. Over the destinations in order these run
    /// through the block's edge list from edge `ahead` on, each edge once
    /// — what a reader of each destination's sources prefetches, `ahead`
    /// edges early.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_dst()`.
    pub fn src_positions_ahead(&self, i: usize, ahead: usize) -> &[u32] {
        let (offsets, indices) = (self.offsets(), self.indices());
        let at = |edge: usize| edge.saturating_add(ahead).min(indices.len());
        &indices[at(offsets[i])..at(offsets[i + 1])]
    }

    /// Batch-local ids of the sources feeding the `i`-th destination.
    pub fn srcs_of(&self, i: usize) -> impl Iterator<Item = NodeId> + '_ {
        self.src_positions(i)
            .iter()
            .map(move |&p| self.arrays.nodes[p as usize])
    }
}

/// Blocks are equal when their views are, whatever else the arrays hold.
impl PartialEq for Block {
    fn eq(&self, other: &Self) -> bool {
        self.num_dst == other.num_dst
            && self.src_nodes() == other.src_nodes()
            && self.offsets() == other.offsets()
            && self.indices() == other.indices()
    }
}

impl Eq for Block {}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Block")
            .field("dst_nodes", &self.dst_nodes())
            .field("src_nodes", &self.src_nodes())
            .field("offsets", &self.offsets())
            .field("indices", &self.indices())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_block() -> Block {
        // dst = [5, 9]; srcs = [5, 9, 2, 3]; 5 <- {9, 2}; 9 <- {2, 3, 5}
        Block::from_parts(
            vec![5, 9],
            vec![5, 9, 2, 3],
            vec![0, 2, 5],
            vec![1, 2, 2, 3, 0],
        )
    }

    #[test]
    fn accessors_agree_with_parts() {
        let b = sample_block();
        assert_eq!(b.num_dst(), 2);
        assert_eq!(b.num_src(), 4);
        assert_eq!(b.num_edges(), 5);
        assert_eq!(b.in_degree(0), 2);
        assert_eq!(b.in_degree(1), 3);
        assert_eq!(b.srcs_of(0).collect::<Vec<_>>(), vec![9, 2]);
        assert_eq!(b.srcs_of(1).collect::<Vec<_>>(), vec![2, 3, 5]);
    }

    #[test]
    #[should_panic(expected = "begin with dst_nodes")]
    fn rejects_src_not_prefixed_by_dst() {
        let _ = Block::from_parts(vec![1], vec![2, 1], vec![0, 1], vec![0]);
    }

    #[test]
    #[should_panic(expected = "edge index out of range")]
    fn rejects_out_of_range_index() {
        let _ = Block::from_parts(vec![1], vec![1], vec![0, 1], vec![5]);
    }

    #[test]
    #[should_panic(expected = "offsets length")]
    fn rejects_bad_offsets_len() {
        let _ = Block::from_parts(vec![1], vec![1], vec![0], vec![]);
    }

    #[test]
    fn empty_block_is_valid() {
        let b = Block::from_parts(vec![], vec![], vec![0], vec![]);
        assert_eq!(b.num_dst(), 0);
        assert_eq!((b.num_src(), b.num_edges()), (0, 0));
    }
}
