//! Lightweight dependency-closure counting.
//!
//! The scheduler needs, for every bucket, the per-layer node/edge counts
//! of the micro-batch that bucket would generate. Counting is a BFS over
//! the sampled batch graph that touches each closure edge once — no
//! subgraph is materialized, which is why the paper can claim the inputs
//! of its estimator "do not bring any computation overhead" (§IV-D): the
//! same traversal happens during micro-batch generation anyway.

use buffalo_graph::{CsrGraph, NodeId};
use buffalo_memsim::estimate::{ClosureCounts, LayerCount};

/// Reusable versioned visit-marking scratch, avoiding an `O(n)` clear per
/// bucket.
#[derive(Debug, Default, Clone)]
pub struct ClosureScratch {
    version: u32,
    mark: Vec<u32>,
    /// The closure hop by hop (seeds first), plus spare slots: only a
    /// prefix is meaningful during a call.
    frontier: Vec<NodeId>,
}

/// Computes per-layer closure counts for a micro-batch seeded at `seeds`
/// with aggregation depth `depth`, against the sampled `batch` graph.
///
/// Returned layers are ordered input layer first, matching
/// `buffalo_blocks::generate_blocks_fast` output and
/// [`buffalo_memsim::measure::training_memory`] expectations.
///
/// # Panics
///
/// Panics if `depth == 0`.
pub fn closure_counts(
    batch: &CsrGraph,
    seeds: &[NodeId],
    depth: usize,
    scratch: &mut ClosureScratch,
) -> ClosureCounts {
    assert!(depth > 0, "depth must be at least 1");
    scratch.mark.resize(batch.num_nodes(), 0);
    scratch.version = scratch.version.wrapping_add(1);
    if scratch.version == 0 {
        // Wrapped: clear and restart versioning.
        scratch.mark.iter_mut().for_each(|m| *m = 0);
        scratch.version = 1;
    }
    let v = scratch.version;
    // Every node joins the closure once, and discovery writes one slot past
    // it (see below), so this many slots are always enough.
    let frontier = &mut scratch.frontier;
    if frontier.len() < seeds.len() + batch.num_nodes() {
        frontier.resize(seeds.len() + batch.num_nodes(), 0);
    }
    frontier[..seeds.len()].copy_from_slice(seeds);
    for &s in seeds {
        scratch.mark[s as usize] = v;
    }
    let mut layers_rev: Vec<LayerCount> = Vec::with_capacity(depth);
    // The destination set of layer `L - h` is the whole closure reached
    // within `h` hops (blocks chain src -> dst): `frontier[..num_nodes]`.
    // Its edges are the rows of all of it, so `edges` accumulates over
    // hops, and only the rows of `frontier[expanded..]` — the nodes the
    // previous hop found — can still discover anything and need walking.
    let (mut expanded, mut num_nodes, mut edges) = (0usize, seeds.len(), 0usize);
    for _ in 0..depth {
        let dst_count = num_nodes;
        // Counts do not depend on the order a hop's rows are read in, and
        // the walk is bound by fetching them: read them in memory order.
        frontier[expanded..dst_count].sort_unstable();
        for idx in expanded..dst_count {
            let row = batch.neighbors(frontier[idx]);
            edges += row.len();
            // Branch-free discovery: whether `u` is new is a coin flip, so
            // write it to the next slot regardless and let the flag decide
            // whether the slot is kept.
            for &u in row {
                let unseen = scratch.mark[u as usize] != v;
                scratch.mark[u as usize] = v;
                frontier[num_nodes] = u;
                num_nodes += unseen as usize;
            }
        }
        expanded = dst_count;
        layers_rev.push(LayerCount {
            num_dst: dst_count,
            num_src: num_nodes,
            num_edges: edges,
        });
    }
    layers_rev.reverse();
    ClosureCounts { layers: layers_rev }
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffalo_blocks::{generate_blocks_fast, GenerateOptions};
    use buffalo_graph::generators;
    use buffalo_memsim::estimate::mem_from_counts;
    use buffalo_memsim::{measure, AggregatorKind, GnnShape};
    use buffalo_sampling::BatchSampler;

    #[test]
    fn counts_match_generated_blocks() {
        let g = generators::barabasi_albert(1_500, 6, 0.4, 3).unwrap();
        let seeds: Vec<NodeId> = (0..200).collect();
        let batch = BatchSampler::new(vec![8, 12]).sample(&g, &seeds, 9);
        let blocks = generate_blocks_fast(&batch.graph, 200, 2, GenerateOptions::default());
        let mut scratch = ClosureScratch::default();
        let counts = closure_counts(&batch.graph, &(0..200).collect::<Vec<_>>(), 2, &mut scratch);
        assert_eq!(counts.layers.len(), blocks.len());
        for (c, b) in counts.layers.iter().zip(&blocks) {
            assert_eq!(c.num_dst, b.num_dst(), "dst mismatch");
            assert_eq!(c.num_src, b.num_src(), "src mismatch");
            assert_eq!(c.num_edges, b.num_edges(), "edge mismatch");
        }
        // And therefore the count-based memory estimate is exact.
        let shape = GnnShape::new(64, 32, 2, 8, AggregatorKind::Lstm);
        assert_eq!(
            mem_from_counts(&counts, &shape),
            measure::training_memory(&blocks, &shape).total()
        );
    }

    #[test]
    fn scratch_is_reusable_across_calls() {
        let g = generators::barabasi_albert(500, 4, 0.2, 1).unwrap();
        let batch = BatchSampler::new(vec![5]).sample(&g, &[0, 1, 2, 3], 2);
        let mut scratch = ClosureScratch::default();
        let a = closure_counts(&batch.graph, &[0, 1], 1, &mut scratch);
        let b = closure_counts(&batch.graph, &[2], 1, &mut scratch);
        let a2 = closure_counts(&batch.graph, &[0, 1], 1, &mut scratch);
        assert_eq!(a, a2, "scratch reuse must not change results");
        assert_eq!(b.layers[0].num_dst, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn counts_survive_the_version_wrap() {
        let g = generators::barabasi_albert(800, 5, 0.3, 4).unwrap();
        let seeds: Vec<NodeId> = (0..40).collect();
        let batch = BatchSampler::new(vec![6, 6]).sample(&g, &seeds, 8);
        let fresh =
            |s: &[NodeId]| closure_counts(&batch.graph, s, 2, &mut ClosureScratch::default());
        let mut scratch = ClosureScratch::default();
        // Version 1 marks the whole batch; after the wrap version 1 comes
        // round again, and those stale marks must not read as visited.
        closure_counts(&batch.graph, &seeds, 2, &mut scratch);
        scratch.version = u32::MAX - 1;
        let before = closure_counts(&batch.graph, &seeds[..10], 2, &mut scratch);
        assert_eq!(scratch.version, u32::MAX);
        let after = closure_counts(&batch.graph, &seeds[10..], 2, &mut scratch);
        assert_eq!(scratch.version, 1, "wrapped and restarted");
        assert_eq!(before, fresh(&seeds[..10]));
        assert_eq!(after, fresh(&seeds[10..]));
    }

    #[test]
    fn subset_closure_is_smaller() {
        let g = generators::barabasi_albert(2_000, 5, 0.3, 7).unwrap();
        let seeds: Vec<NodeId> = (0..100).collect();
        let batch = BatchSampler::new(vec![6, 6]).sample(&g, &seeds, 5);
        let mut scratch = ClosureScratch::default();
        let all = closure_counts(&batch.graph, &seeds, 2, &mut scratch);
        let half = closure_counts(&batch.graph, &(0..50).collect::<Vec<_>>(), 2, &mut scratch);
        assert!(half.layers[0].num_src <= all.layers[0].num_src);
        assert!(half.layers[1].num_edges <= all.layers[1].num_edges);
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn rejects_zero_depth() {
        let g = buffalo_graph::CsrGraph::empty(3);
        let mut scratch = ClosureScratch::default();
        let _ = closure_counts(&g, &[0], 0, &mut scratch);
    }
}
