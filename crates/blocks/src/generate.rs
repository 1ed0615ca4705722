//! Fast (Buffalo) and checked (Betty-style baseline) block generation.

use crate::block::Block;
use buffalo_graph::{CsrGraph, NodeId};
use std::collections::BTreeMap;

/// Options for [`generate_blocks_fast`]. There are none left to set; the
/// type stays so that call sites keep reading `GenerateOptions::default()`.
#[derive(Debug, Clone, Copy, Default)]
#[non_exhaustive]
pub struct GenerateOptions {}

/// Buffalo's fast block generation (§IV-E).
///
/// `batch_graph` is the sampled subgraph in batch-local ids with
/// in-neighbor rows; local ids `0..num_seeds` are the output nodes.
/// Produces one [`Block`] per layer, ordered **input layer first** (index
/// `0` is the innermost layer, index `depth - 1` the output layer), so a
/// trainer can iterate forward.
///
/// Each destination's sources are read *directly from its CSR row* of the
/// sampled subgraph — there is no re-validation against the original graph
/// ("avoiding repeated connection checks"). This is
/// [`BlockWalker::whole_batch`] on a fresh walker.
///
/// # Panics
///
/// Panics if `num_seeds` exceeds the node count or `depth == 0`.
pub fn generate_blocks_fast(
    batch_graph: &CsrGraph,
    num_seeds: usize,
    depth: usize,
    _opts: GenerateOptions,
) -> Vec<Block> {
    BlockWalker::default().whole_batch(batch_graph, num_seeds, depth)
}

/// Builds the blocks of a (micro-)batch in one walk of the sampled batch
/// graph, and keeps between walks the tables a walk needs, so a loop over
/// the micro-batches of an iteration allocates them once.
///
/// A layer's sources are the next layer's destinations, and a node keeps
/// its position once it has one — so every layer's arrays are prefixes of
/// the input layer's: `nodes` (the closure in discovery order) of its dst
/// and src lists, `offsets`/`indices` of its rows. One walk builds them;
/// each hop only adds the rows of the nodes the previous hop discovered.
#[derive(Debug, Default)]
pub struct BlockWalker {
    /// Per batch node, its position in `nodes`; `u32::MAX` outside a walk.
    pos_of: Vec<u32>,
    /// The closure in discovery order, plus spare slots: only a prefix is
    /// meaningful, and only during a walk.
    nodes: Vec<NodeId>,
    /// The positions a row partition moves behind the chosen seeds.
    spill: Vec<u32>,
}

/// How many rows ahead of the one being read the walk starts fetching: a
/// hop's rows are in discovery order, scattered over the batch graph.
const AHEAD: usize = 4;

impl BlockWalker {
    /// The blocks of the whole batch: local ids `0..num_seeds` are the
    /// output nodes and keep their ids as positions.
    ///
    /// # Panics
    ///
    /// Panics if `num_seeds` exceeds the node count or `depth == 0`.
    pub fn whole_batch(
        &mut self,
        batch_graph: &CsrGraph,
        num_seeds: usize,
        depth: usize,
    ) -> Vec<Block> {
        self.start(batch_graph, num_seeds);
        for (v, slot) in self.nodes[..num_seeds].iter_mut().enumerate() {
            *slot = v as NodeId;
        }
        self.walk::<false>(batch_graph, num_seeds, depth)
    }

    /// The blocks of the micro-batch whose output nodes are `group`, a
    /// subset of the batch's seeds `0..num_seeds` in any order — equal,
    /// array for array, to [`generate_blocks_fast`] on the graph of
    /// `Batch::restrict_to_seeds(group)`, except that node ids stay those
    /// of `batch_graph`: block node `v` is the batch's `global_ids[v]`.
    ///
    /// The restriction orders its nodes "chosen seeds ascending, then every
    /// other reached node ascending" and sorts each row by that order. A
    /// chosen seed has its position before the walk starts and is never
    /// discovered, so walking the batch's own rows discovers the same
    /// nodes in the same order; what differs is that a row holding chosen
    /// seeds must list their positions first, which is a stable partition
    /// of the positions just written for that row. Rows of `batch_graph`
    /// must ascend, as every row the sampler writes does.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`, or if an entry of `group` is not a seed
    /// local id or appears twice.
    pub fn micro_batch(
        &mut self,
        batch_graph: &CsrGraph,
        num_seeds: usize,
        group: &[NodeId],
        depth: usize,
    ) -> Vec<Block> {
        self.start(batch_graph, num_seeds);
        assert!(
            group.len() <= num_seeds,
            "a group of {} repeats a seed or names a non-seed (num_seeds={num_seeds})",
            group.len()
        );
        let chosen = &mut self.nodes[..group.len()];
        chosen.copy_from_slice(group);
        chosen.sort_unstable();
        for (i, &s) in chosen.iter().enumerate() {
            assert!(
                (s as usize) < num_seeds,
                "local id {s} is not a seed (num_seeds={num_seeds})"
            );
            assert!(i == 0 || chosen[i - 1] != s, "duplicate seed {s}");
        }
        self.walk::<true>(batch_graph, group.len(), depth)
    }

    /// Sizes the tables for `batch_graph`. Discovery writes one slot past
    /// the nodes kept, and at most all of the batch's are ever kept.
    fn start(&mut self, batch_graph: &CsrGraph, num_seeds: usize) {
        let n = batch_graph.num_nodes();
        assert!(num_seeds <= n, "num_seeds exceeds batch size");
        self.pos_of.resize(n, u32::MAX);
        if self.nodes.len() < n + 1 {
            self.nodes.resize(n + 1, 0);
        }
    }

    /// Walks `depth` hops from the `num_out` output nodes already in
    /// `nodes`; `PARTITION` moves each row's output-node positions first.
    fn walk<const PARTITION: bool>(
        &mut self,
        g: &CsrGraph,
        num_out: usize,
        depth: usize,
    ) -> Vec<Block> {
        assert!(depth > 0, "depth must be at least 1");
        // Slices, so the walk indexes through registers, not the fields.
        let (pos_of, nodes) = (&mut self.pos_of[..], &mut self.nodes[..]);
        for (i, &v) in nodes[..num_out].iter().enumerate() {
            pos_of[v as usize] = i as u32;
        }
        let mut offsets = vec![0usize];
        let mut indices: Vec<u32> = Vec::new();
        let (mut expanded, mut num_src) = (0usize, num_out);
        let mut layers: Vec<(usize, usize)> = Vec::with_capacity(depth);
        for _ in 0..depth {
            let num_dst = num_src;
            // The rows this hop adds are known before it reads them.
            let edges: usize = nodes[expanded..num_dst].iter().map(|&v| g.degree(v)).sum();
            offsets.reserve_exact(num_dst - expanded);
            indices.reserve_exact(edges);
            for at in expanded..num_dst {
                if at + AHEAD < num_dst {
                    std::hint::black_box(g.neighbors(nodes[at + AHEAD]).first().copied());
                }
                let start = indices.len();
                // Whether a source is new is a coin flip, so discovery is
                // branch-free: an unseen node's `u32::MAX` loses the `min`
                // to the next position, and the node is written to the
                // next slot regardless — the flag decides whether the slot
                // is kept.
                let mut outputs = 0usize;
                indices.extend(g.neighbors(nodes[at]).iter().map(|&u| {
                    let seen = pos_of[u as usize];
                    let p = seen.min(num_src as u32);
                    pos_of[u as usize] = p;
                    nodes[num_src] = u;
                    num_src += (seen == u32::MAX) as usize;
                    if PARTITION {
                        outputs += ((p as usize) < num_out) as usize;
                    }
                    p
                }));
                if outputs > 0 {
                    outputs_first(
                        &mut indices[start..],
                        num_out as u32,
                        outputs,
                        &mut self.spill,
                    );
                }
                offsets.push(indices.len());
            }
            expanded = num_dst;
            layers.push((num_dst, num_src));
        }
        for &v in &nodes[..num_src] {
            pos_of[v as usize] = u32::MAX;
        }
        layers.reverse();
        Block::nested(nodes[..num_src].to_vec(), offsets, indices, &layers)
    }
}

/// Stable partition of `row`: its `outputs` positions below `num_out`
/// move to the front, the positions they pass keep their order behind
/// them. Stops at the last such position — in an ascending row the output
/// nodes are the low ids, so that is a short prefix.
fn outputs_first(row: &mut [u32], num_out: u32, outputs: usize, spill: &mut Vec<u32>) {
    spill.clear();
    let (mut read, mut write) = (0usize, 0usize);
    while write < outputs {
        let p = row[read];
        if p < num_out {
            row[write] = p;
            write += 1;
        } else {
            spill.push(p);
        }
        read += 1;
    }
    row[write..read].copy_from_slice(spill);
}

/// Betty-style baseline block generation with repeated connection checks.
///
/// Instead of trusting the sampled subgraph's rows, this path re-derives
/// each destination's sources from the *original* graph: it walks the full
/// (unsampled) neighbor list of the destination's global id, checks each
/// candidate for membership in the batch via a membership index (rebuilt
/// per layer, as Betty rebuilds per micro-batch), and then confirms the edge
/// survived sampling with a binary search in the sampled subgraph. The
/// resulting blocks contain the same edges as [`generate_blocks_fast`]
/// (though source discovery order may differ); only the cost differs —
/// this is the comparison of Figure 12.
///
/// # Panics
///
/// Panics if `global_ids.len() != batch_graph.num_nodes()`, `depth == 0`,
/// or `num_seeds` exceeds the batch size.
pub fn generate_blocks_checked(
    batch_graph: &CsrGraph,
    global_ids: &[NodeId],
    original: &CsrGraph,
    num_seeds: usize,
    depth: usize,
) -> Vec<Block> {
    assert!(depth > 0, "depth must be at least 1");
    assert_eq!(
        global_ids.len(),
        batch_graph.num_nodes(),
        "global id table size mismatch"
    );
    assert!(
        num_seeds <= batch_graph.num_nodes(),
        "num_seeds exceeds batch size"
    );
    let n = batch_graph.num_nodes();
    let mut dst: Vec<NodeId> = (0..num_seeds as NodeId).collect();
    let mut blocks_rev: Vec<Block> = Vec::with_capacity(depth);
    for _ in 0..depth {
        // Betty rebuilds its membership index for every layer of every
        // micro-batch; model that repeated cost faithfully. An ordered map
        // stands in for Betty's hash index — only probed, never iterated,
        // and the nondet-iteration lint keeps hash containers out of the
        // blocks crate entirely.
        let batch_index: BTreeMap<NodeId, NodeId> = global_ids
            .iter()
            .enumerate()
            .map(|(local, &global)| (global, local as NodeId))
            .collect();
        let mut pos_of: Vec<u32> = vec![u32::MAX; n];
        let mut src_nodes: Vec<NodeId> = dst.clone();
        for (i, &v) in dst.iter().enumerate() {
            pos_of[v as usize] = i as u32;
        }
        let mut offsets = Vec::with_capacity(dst.len() + 1);
        let mut indices = Vec::new();
        offsets.push(0usize);
        for &v in &dst {
            let gv = global_ids[v as usize];
            // Repeated connection check: full original neighborhood scan.
            for &gu in original.neighbors(gv) {
                let Some(&lu) = batch_index.get(&gu) else {
                    continue;
                };
                if !batch_graph.has_edge(lu, v) {
                    continue; // edge did not survive sampling
                }
                let p = &mut pos_of[lu as usize];
                if *p == u32::MAX {
                    *p = src_nodes.len() as u32;
                    src_nodes.push(lu);
                }
                indices.push(*p);
            }
            offsets.push(indices.len());
        }
        let block = Block::from_parts(dst, src_nodes, offsets, indices);
        dst = block.src_nodes().to_vec();
        blocks_rev.push(block);
    }
    blocks_rev.reverse();
    blocks_rev
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffalo_graph::GraphBuilder;

    /// A tiny deterministic "sampled batch": 2 seeds {0,1}, sampled
    /// in-neighbors 0 <- {2,3}, 1 <- {3}, 2 <- {4}, 3 <- {}, 4 <- {}.
    fn tiny_batch() -> CsrGraph {
        let mut b = GraphBuilder::new(5);
        b.extend_edges([(2, 0), (3, 0), (3, 1), (4, 2)]);
        b.build_directed()
    }

    /// Original graph whose edges are a superset of the batch edges (with
    /// global ids equal to local ids for simplicity).
    fn tiny_original() -> CsrGraph {
        let mut b = GraphBuilder::new(6);
        b.extend_edges([(2, 0), (3, 0), (3, 1), (4, 2), (5, 0), (5, 4)]);
        b.build_undirected()
    }

    fn edge_set(block: &Block) -> Vec<(NodeId, NodeId)> {
        let mut es = Vec::new();
        for i in 0..block.num_dst() {
            let d = block.dst_nodes()[i];
            for s in block.srcs_of(i) {
                es.push((d, s));
            }
        }
        es.sort_unstable();
        es
    }

    #[test]
    fn fast_blocks_have_expected_shape() {
        let g = tiny_batch();
        let blocks = generate_blocks_fast(&g, 2, 2, GenerateOptions::default());
        assert_eq!(blocks.len(), 2);
        let out = &blocks[1]; // output layer
        assert_eq!(out.dst_nodes(), &[0, 1]);
        assert_eq!(out.num_src(), 4); // {0,1} ∪ {2,3}
        assert_eq!(out.num_edges(), 3);
        let inner = &blocks[0];
        assert_eq!(inner.dst_nodes(), out.src_nodes());
        assert_eq!(inner.num_src(), 5); // previous ∪ {4}
    }

    #[test]
    fn src_nodes_prefix_invariant_holds() {
        let g = tiny_batch();
        for block in generate_blocks_fast(&g, 2, 2, GenerateOptions::default()) {
            assert_eq!(
                &block.src_nodes()[..block.num_dst()],
                block.dst_nodes(),
                "src prefix must equal dst"
            );
        }
    }

    #[test]
    fn checked_path_produces_same_edges() {
        let batch = tiny_batch();
        let original = tiny_original();
        let globals: Vec<NodeId> = (0..5).collect();
        let fast = generate_blocks_fast(&batch, 2, 2, GenerateOptions::default());
        let checked = generate_blocks_checked(&batch, &globals, &original, 2, 2);
        assert_eq!(fast.len(), checked.len());
        for (f, c) in fast.iter().zip(&checked) {
            assert_eq!(edge_set(f), edge_set(c));
            assert_eq!(f.num_dst(), c.num_dst());
        }
    }

    #[test]
    fn depth_one_produces_single_block() {
        let g = tiny_batch();
        let blocks = generate_blocks_fast(&g, 2, 1, GenerateOptions::default());
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].dst_nodes(), &[0, 1]);
    }

    #[test]
    fn a_reused_walker_equals_fresh_walks() {
        let mut b = GraphBuilder::new(3_000);
        for i in 0..3_000u32 {
            for j in 1..=3 {
                b.add_edge((i + j * 7) % 3_000, i);
            }
        }
        let g = b.build_directed();
        let mut walker = BlockWalker::default();
        let group: Vec<NodeId> = (0..2_000).rev().step_by(3).collect();
        for _ in 0..2 {
            assert_eq!(
                walker.whole_batch(&g, 2_000, 2),
                generate_blocks_fast(&g, 2_000, 2, GenerateOptions::default())
            );
            assert_eq!(
                walker.micro_batch(&g, 2_000, &group, 3),
                BlockWalker::default().micro_batch(&g, 2_000, &group, 3)
            );
        }
        // A smaller batch after a larger one.
        let small = tiny_batch();
        assert_eq!(
            walker.whole_batch(&small, 2, 2),
            generate_blocks_fast(&small, 2, 2, GenerateOptions::default())
        );
    }

    #[test]
    fn micro_batch_lists_chosen_seeds_first() {
        // Seeds {0,1,2}; row of 0 is {1, 2, 3}, row of 2 is {0, 4}. The
        // group {2, 0} takes positions 0 -> 0, 2 -> 1; node 1, a seed that
        // was not chosen, is discovered like any other node.
        let mut b = GraphBuilder::new(5);
        b.extend_edges([(1, 0), (2, 0), (3, 0), (0, 2), (4, 2)]);
        let g = b.build_directed();
        let blocks = BlockWalker::default().micro_batch(&g, 3, &[2, 0], 1);
        assert_eq!(blocks[0].dst_nodes(), &[0, 2]);
        assert_eq!(blocks[0].src_nodes(), &[0, 2, 1, 3, 4]);
        assert_eq!(blocks[0].src_positions(0), &[1, 2, 3]); // {2} first, then {1, 3}
        assert_eq!(blocks[0].src_positions(1), &[0, 4]);
    }

    #[test]
    #[should_panic(expected = "duplicate seed")]
    fn micro_batch_rejects_a_repeated_seed() {
        let _ = BlockWalker::default().micro_batch(&tiny_batch(), 2, &[1, 1], 1);
    }

    #[test]
    #[should_panic(expected = "is not a seed")]
    fn micro_batch_rejects_a_non_seed() {
        let _ = BlockWalker::default().micro_batch(&tiny_batch(), 2, &[3], 1);
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn rejects_zero_depth() {
        let g = tiny_batch();
        let _ = generate_blocks_fast(&g, 1, 0, GenerateOptions::default());
    }

    #[test]
    #[should_panic(expected = "num_seeds")]
    fn rejects_too_many_seeds() {
        let g = tiny_batch();
        let _ = generate_blocks_fast(&g, 6, 1, GenerateOptions::default());
    }

    #[test]
    fn in_degrees_match_batch_rows() {
        let g = tiny_batch();
        let blocks = generate_blocks_fast(&g, 2, 1, GenerateOptions::default());
        let out = &blocks[0];
        assert_eq!(out.in_degree(0), 2); // node 0 has sampled in-neighbors {2,3}
        assert_eq!(out.in_degree(1), 1);
    }
}
