//! Fast (Buffalo) and checked (Betty-style baseline) block generation.

use crate::block::Block;
use buffalo_graph::{CsrGraph, NodeId};
use std::collections::BTreeMap;

/// Default [`GenerateOptions::parallel_threshold`]: below this many
/// destination rows, gathering goes serial.
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 1024;

/// Options for [`generate_blocks_fast`].
#[derive(Debug, Clone, Copy)]
pub struct GenerateOptions {
    /// Worker threads for node-level parallelism. `None` follows the
    /// process-wide [`buffalo_par::ambient`] configuration (the global
    /// `--threads` setting).
    pub threads: Option<usize>,
    /// Minimum destination count before row gathering dispatches to the
    /// shared worker pool; defaults to [`DEFAULT_PARALLEL_THRESHOLD`].
    pub parallel_threshold: usize,
}

impl Default for GenerateOptions {
    fn default() -> Self {
        GenerateOptions {
            threads: None,
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
        }
    }
}

fn resolve_threads(opts: &GenerateOptions) -> usize {
    opts.threads
        .unwrap_or_else(|| buffalo_par::ambient().threads)
        .max(1)
}

/// Buffalo's fast block generation (§IV-E).
///
/// `batch_graph` is the sampled subgraph in batch-local ids with
/// in-neighbor rows; local ids `0..num_seeds` are the output nodes.
/// Produces one [`Block`] per layer, ordered **input layer first** (index
/// `0` is the innermost layer, index `depth - 1` the output layer), so a
/// trainer can iterate forward.
///
/// Two properties make this fast relative to the checked baseline:
///
/// 1. Each destination's sources are read *directly from its CSR row* of
///    the sampled subgraph — there is no re-validation against the
///    original graph ("avoiding repeated connection checks").
/// 2. Row gathering is parallel at the node level (std scoped threads
///    over row chunks).
///
/// # Panics
///
/// Panics if `num_seeds` exceeds the node count or `depth == 0`.
pub fn generate_blocks_fast(
    batch_graph: &CsrGraph,
    num_seeds: usize,
    depth: usize,
    opts: GenerateOptions,
) -> Vec<Block> {
    assert!(depth > 0, "depth must be at least 1");
    assert!(
        num_seeds <= batch_graph.num_nodes(),
        "num_seeds exceeds batch size"
    );
    let threads = resolve_threads(&opts);
    let n = batch_graph.num_nodes();
    // A layer's sources are the next layer's destinations, and a node
    // keeps its position once it has one — so every layer's arrays are
    // prefixes of the input layer's: `nodes` (the closure in discovery
    // order) of its dst and src lists, `offsets`/`indices` of its rows.
    // One walk builds them; each hop only adds the rows of the nodes the
    // previous hop discovered, `nodes[expanded..]`.
    let mut nodes: Vec<NodeId> = (0..num_seeds as NodeId).collect();
    let mut pos_of: Vec<u32> = vec![u32::MAX; n];
    for (i, p) in pos_of[..num_seeds].iter_mut().enumerate() {
        *p = i as u32;
    }
    let mut offsets = Vec::with_capacity(num_seeds + 1);
    offsets.push(0usize);
    let mut indices: Vec<u32> = Vec::new();
    let mut expanded = 0usize;
    let mut blocks_rev: Vec<Block> = Vec::with_capacity(depth);
    for _ in 0..depth {
        let num_dst = nodes.len();
        // Phase 1 (parallel): gather each new destination row from CSR.
        let rows: Vec<&[NodeId]> = gather_rows(
            batch_graph,
            &nodes[expanded..],
            threads,
            opts.parallel_threshold,
        );
        let edges: usize = rows.iter().map(|row| row.len()).sum();
        // Phase 2 (sequential): assign source positions in discovery
        // order. Whether a source is new is a coin flip, so discovery is
        // branch-free: write it to the next slot regardless and let the
        // flag decide whether the slot is kept. At most `n` nodes are ever
        // kept, so one slot past that is always enough.
        let mut num_src = num_dst;
        nodes.resize(n.min(num_dst + edges) + 1, 0);
        offsets.reserve(rows.len());
        indices.reserve(edges);
        for row in &rows {
            for &u in *row {
                let seen = pos_of[u as usize];
                let unseen = seen == u32::MAX;
                let p = if unseen { num_src as u32 } else { seen };
                pos_of[u as usize] = p;
                nodes[num_src] = u;
                num_src += unseen as usize;
                indices.push(p);
            }
            offsets.push(indices.len());
        }
        nodes.truncate(num_src);
        expanded = num_dst;
        blocks_rev.push(Block::from_parts(
            nodes[..num_dst].to_vec(),
            nodes.clone(),
            offsets.clone(),
            indices.clone(),
        ));
    }
    blocks_rev.reverse();
    blocks_rev
}

/// Gathers the CSR row of every destination, chunked over `threads`
/// workers of the shared [`buffalo_par`] pool. Row slices borrow from `g`,
/// so this is pure pointer work — the parallelism pays off when rows must
/// be touched (prefetched) for large batches.
fn gather_rows<'g>(
    g: &'g CsrGraph,
    dst: &[NodeId],
    threads: usize,
    parallel_threshold: usize,
) -> Vec<&'g [NodeId]> {
    if threads <= 1 || dst.len() < parallel_threshold {
        return dst.iter().map(|&v| g.neighbors(v)).collect();
    }
    let chunk = dst.len().div_ceil(threads);
    let mut rows: Vec<&[NodeId]> = vec![&[]; dst.len()];
    let tasks: Vec<buffalo_par::Task<'_>> = dst
        .chunks(chunk)
        .zip(rows.chunks_mut(chunk))
        .map(|(dst_chunk, out_chunk)| -> buffalo_par::Task<'_> {
            Box::new(move || {
                for (o, &v) in out_chunk.iter_mut().zip(dst_chunk) {
                    *o = g.neighbors(v);
                }
            })
        })
        .collect();
    buffalo_par::run_tasks(tasks, threads);
    rows
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
    fn single_thread_equals_multi_thread() {
        // Use a larger random-ish batch to exercise the parallel path.
        let mut b = GraphBuilder::new(3_000);
        for i in 0..3_000u32 {
            for j in 1..=3 {
                b.add_edge((i + j * 7) % 3_000, i);
            }
        }
        let g = b.build_directed();
        let one = generate_blocks_fast(
            &g,
            2_000,
            2,
            GenerateOptions {
                threads: Some(1),
                ..Default::default()
            },
        );
        let four = generate_blocks_fast(
            &g,
            2_000,
            2,
            GenerateOptions {
                threads: Some(4),
                ..Default::default()
            },
        );
        assert_eq!(one, four);
        // A tiny threshold forces the pool path even at this size.
        let pooled = generate_blocks_fast(
            &g,
            2_000,
            2,
            GenerateOptions {
                threads: Some(4),
                parallel_threshold: 1,
            },
        );
        assert_eq!(one, pooled);
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
