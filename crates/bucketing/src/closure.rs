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

/// Reusable walk state: `depth + 1` bitsets back to back, one bit per
/// batch node, bitset `h` holding the nodes within `h` hops of the seeds.
/// A few KB each, so a walk's bookkeeping stays in cache and only the rows
/// it reads come from memory.
#[derive(Debug, Default, Clone)]
pub struct ClosureScratch {
    hops: Vec<u64>,
}

/// The reach sets of several walks, OR-ed hop by hop. The nodes within `h`
/// hops of a union of seed sets are the union of each set's, so
/// [`ReachUnion::counts`] are the counts of the walked seed lists
/// concatenated, read without walking them again.
#[derive(Debug, Default)]
pub(crate) struct ReachUnion {
    depth: usize,
    /// [`ClosureScratch::hops`] of every walk added, OR-ed.
    hops: Vec<u64>,
    /// Seeds listed across the walks, duplicates included, and the total
    /// length of their rows: what hop 0 of the concatenated list counts.
    listed: usize,
    listed_edges: usize,
}

impl ReachUnion {
    /// Adds the walk `scratch` just made, which counted `counts`; every
    /// walk added is over the same batch, to the same depth.
    pub(crate) fn add(&mut self, scratch: &ClosureScratch, counts: &ClosureCounts) {
        self.depth = counts.layers.len();
        self.hops.resize(scratch.hops.len(), 0);
        self.hops
            .iter_mut()
            .zip(&scratch.hops)
            .for_each(|(u, &w)| *u |= w);
        let output = &counts.layers[self.depth - 1];
        self.listed += output.num_dst;
        self.listed_edges += output.num_edges;
    }

    /// The closure counts of every walk added, as one seed list: node
    /// counts off the bitsets, edge counts from the degrees of the nodes
    /// each hop adds.
    pub(crate) fn counts(&self, batch: &CsrGraph) -> ClosureCounts {
        let words = self.hops.len() / (self.depth + 1);
        let hop = |h: usize| &self.hops[h * words..(h + 1) * words];
        let distinct_seeds = ones(hop(0));
        let mut edges = self.listed_edges;
        let mut layers = Vec::with_capacity(self.depth);
        for h in 0..self.depth {
            if h > 0 {
                let added = hop(h).iter().zip(hop(h - 1)).map(|(now, was)| now & !was);
                for_each_bit(added, |v| edges += batch.degree(v as NodeId));
            }
            layers.push(LayerCount {
                num_dst: self.listed + ones(hop(h)) - distinct_seeds,
                num_src: self.listed + ones(hop(h + 1)) - distinct_seeds,
                num_edges: edges,
            });
        }
        layers.reverse();
        ClosureCounts { layers }
    }
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
    let words = batch.num_nodes().div_ceil(64);
    let hops = &mut scratch.hops;
    hops.clear();
    hops.resize((depth + 1) * words, 0);
    for &s in seeds {
        hops[s as usize >> 6] |= 1 << (s & 63);
    }
    // The destination set of layer `L - h` is every node within `h` hops.
    // A duplicate seed is listed, and counted, twice — as it is in a
    // generated block — so node counts are offset by the listed seeds.
    let distinct_seeds = ones(&hops[..words]);
    let (mut edges, mut layers) = (0usize, Vec::with_capacity(depth));
    for h in 0..depth {
        let (done, next) = hops.split_at_mut((h + 1) * words);
        let next = &mut next[..words];
        let now = &done[h * words..];
        next.copy_from_slice(now);
        // A hop ORs its frontier's rows into the next bitset: every listed
        // seed's row at hop 0, then the rows of the nodes the previous hop
        // added, read off their bits in ascending id order — memory order,
        // with no frontier array to write or sort.
        let mut expand = |v: usize| {
            let row = batch.neighbors(v as NodeId);
            edges += row.len();
            for &u in row {
                next[u as usize >> 6] |= 1 << (u & 63);
            }
        };
        if h == 0 {
            seeds.iter().for_each(|&s| expand(s as usize));
        } else {
            let was = &done[(h - 1) * words..h * words];
            for_each_bit(now.iter().zip(was).map(|(n, w)| n & !w), expand);
        }
        layers.push(LayerCount {
            num_dst: seeds.len() + ones(now) - distinct_seeds,
            num_src: seeds.len() + ones(next) - distinct_seeds,
            num_edges: edges,
        });
    }
    layers.reverse();
    ClosureCounts { layers }
}

fn ones(bits: &[u64]) -> usize {
    bits.iter().map(|w| w.count_ones() as usize).sum()
}

/// Calls `f` with the index of every set bit, in ascending order.
fn for_each_bit(words: impl Iterator<Item = u64>, mut f: impl FnMut(usize)) {
    for (i, mut w) in words.enumerate() {
        while w != 0 {
            f(i * 64 + w.trailing_zeros() as usize);
            w &= w - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffalo_blocks::{generate_blocks_fast, GenerateOptions};
    use buffalo_graph::{generators, GraphBuilder};
    use buffalo_memsim::estimate::mem_from_counts;
    use buffalo_memsim::{measure, AggregatorKind, GnnShape};
    use buffalo_sampling::BatchSampler;
    use proptest::collection::vec;
    use proptest::prelude::*;

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
    fn shared_input_counted_once() {
        // Two seeds whose rows hold the same source: three sources (the
        // two destinations and the one input they share), not four.
        let mut b = GraphBuilder::new(3);
        b.add_edge(2, 0);
        b.add_edge(2, 1);
        let g = b.build_directed();
        let counts = closure_counts(&g, &[0, 1], 1, &mut ClosureScratch::default());
        assert_eq!(
            counts.layers[0],
            LayerCount {
                num_dst: 2,
                num_src: 3,
                num_edges: 2
            }
        );
        assert_eq!(counts.output_layer_inputs(), 3);
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

    proptest! {
        /// The union rule: split a seed list (duplicates and all) anywhere,
        /// add each part's walk to one union, and the union's counts are a
        /// walk of the whole list.
        #[test]
        fn union_of_parts_counts_the_whole(
            graph_seed in 0u64..200,
            depth in 1usize..4,
            picks in vec(0u32..120, 0..60),
            cuts in vec(0usize..60, 0..5),
        ) {
            let g = generators::barabasi_albert(400, 3, 0.3, graph_seed).unwrap();
            let roots: Vec<NodeId> = (0..120).collect();
            let batch = BatchSampler::new(vec![4; depth]).sample(&g, &roots, graph_seed);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(picks.len())).collect();
            cuts.push(0);
            cuts.push(picks.len());
            cuts.sort_unstable();
            let mut scratch = ClosureScratch::default();
            let mut union = ReachUnion::default();
            for part in cuts.windows(2).map(|w| &picks[w[0]..w[1]]) {
                let own = closure_counts(&batch.graph, part, depth, &mut scratch);
                union.add(&scratch, &own);
            }
            prop_assert_eq!(
                union.counts(&batch.graph),
                closure_counts(&batch.graph, &picks, depth, &mut scratch)
            );
        }
    }
}
