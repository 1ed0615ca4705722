//! Lightweight dependency-closure counting.
//!
//! The scheduler needs, for every bucket, the per-layer node/edge counts
//! of the micro-batch that bucket would generate. Counting is a BFS over
//! the sampled batch graph that touches each closure edge once — no
//! subgraph is materialized, which is why the paper can claim the inputs
//! of its estimator "do not bring any computation overhead" (§IV-D): the
//! same traversal happens during micro-batch generation anyway.
//!
//! A walk leaves its reach set — the nodes within each hop of the seeds —
//! behind in bitsets. [`ReachSets`] keeps those of many walks and counts a
//! group of walked lists off the OR of their sets, so a seed list is walked
//! once however many groups it joins.

use buffalo_graph::{CsrGraph, NodeId, PREFETCH_AHEAD};
use buffalo_memsim::estimate::{ClosureCounts, LayerCount};

/// Reusable walk state: `depth + 1` bitsets back to back, one bit per
/// batch node, bitset `h` holding the nodes within `h` hops of the seeds.
/// A few KB each, so a walk's bookkeeping stays in cache and only the rows
/// it reads come from memory.
#[derive(Debug, Default, Clone)]
pub struct ClosureScratch {
    pub(crate) hops: Vec<u64>,
}

/// Reach sets kept back to back in one arena, one per walked seed list:
/// the bitsets of hops `1..=depth` of its walk. Hop 0 is the list itself,
/// so it is not kept. The nodes within `h` hops of a union of seed sets are
/// the union of each set's, so [`ReachSets::union_counts`] counts kept
/// lists, concatenated, off their sets without walking them again.
#[derive(Debug, Default)]
pub(crate) struct ReachSets {
    depth: usize,
    /// Words per bitset (one bit per batch node) and per set.
    words: usize,
    stride: usize,
    sets: Vec<u64>,
    /// The `depth + 1` bitsets of the last union counted, laid out as
    /// [`ClosureScratch`]'s.
    pub(crate) union: Vec<u64>,
}

impl ReachSets {
    /// Empties the arena, for seed lists of `batch` walked to `depth`.
    pub(crate) fn reset(&mut self, batch: &CsrGraph, depth: usize) {
        (self.depth, self.words) = (depth, batch.num_nodes().div_ceil(64));
        self.stride = depth * self.words;
        self.sets.clear();
    }

    /// Keeps the reach set that ends `hops` — its last `depth` bitsets: a
    /// [`ClosureScratch`] after its walk, a union, or another arena's set.
    pub(crate) fn keep(&mut self, hops: &[u64]) {
        self.sets.extend(&hops[hops.len() - self.stride..]);
    }

    /// Set `i`.
    pub(crate) fn get(&self, i: usize) -> &[u64] {
        &self.sets[i * self.stride..(i + 1) * self.stride]
    }

    /// How many sets are kept; a seed list has nodes, so a set has words.
    pub(crate) fn len(&self) -> usize {
        self.sets.len() / self.stride
    }

    /// Drops every set from the `len`-th on.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.sets.truncate(len * self.stride);
    }

    /// The closure counts of the seed lists `members` — each with the
    /// index of its kept set — concatenated: hop 0 set from the lists, each
    /// later hop the OR of the sets; node counts off the bitsets, edge
    /// counts from the listed seeds' rows and the degrees of the nodes
    /// each hop adds.
    pub(crate) fn union_counts<'s>(
        &mut self,
        batch: &CsrGraph,
        members: impl IntoIterator<Item = (usize, &'s [NodeId])>,
    ) -> ClosureCounts {
        let (depth, words, stride) = (self.depth, self.words, self.stride);
        let union = &mut self.union;
        union.clear();
        union.resize((depth + 1) * words, 0);
        let (mut listed, mut edges) = (0, 0);
        for (i, seeds) in members {
            for &s in seeds {
                union[s as usize >> 6] |= 1 << (s & 63);
                edges += batch.degree(s);
            }
            listed += seeds.len();
            let set = &self.sets[i * stride..(i + 1) * stride];
            for (u, w) in union[words..].iter_mut().zip(set) {
                *u |= w;
            }
        }
        let hop = |h: usize| &union[h * words..(h + 1) * words];
        let distinct_seeds = ones(hop(0));
        let mut layers = Vec::with_capacity(depth);
        for h in 0..depth {
            if h > 0 {
                let added = hop(h).iter().zip(hop(h - 1)).map(|(now, was)| now & !was);
                for_each_bit(added, |v| edges += batch.degree(v as NodeId));
            }
            layers.push(LayerCount {
                num_dst: listed + ones(hop(h)) - distinct_seeds,
                num_src: listed + ones(hop(h + 1)) - distinct_seeds,
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
/// `buffalo_blocks::BlockWalker` output and
/// [`buffalo_memsim::measure::training_memory`] expectations.
///
/// The rows a hop reads are scattered over the batch graph, so each node
/// to expand waits in a delay line of [`PREFETCH_AHEAD`] slots: its row is
/// prefetched when it enters and read when it leaves, that many nodes
/// later. Nodes leave in the order they entered, so the expansion order —
/// and every count and bitset — is that of a walk without the line.
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
        let mut expand = |v: NodeId| {
            let row = batch.neighbors(v);
            edges += row.len();
            for &u in row {
                next[u as usize >> 6] |= 1 << (u & 63);
            }
        };
        // The delay line: a node's row is prefetched as it enters and
        // expanded as it leaves; what is left in the line at the end of
        // the hop drains in order.
        let (mut line, mut pushed) = ([0; PREFETCH_AHEAD], 0usize);
        let mut push = |v: NodeId| {
            batch.prefetch_row(v);
            let slot = &mut line[pushed % PREFETCH_AHEAD];
            if pushed >= PREFETCH_AHEAD {
                expand(*slot);
            }
            *slot = v;
            pushed += 1;
        };
        if h == 0 {
            seeds.iter().for_each(|&s| push(s));
        } else {
            let was = &done[(h - 1) * words..h * words];
            for_each_bit(now.iter().zip(was).map(|(n, w)| n & !w), |v| {
                push(v as NodeId)
            });
        }
        for k in pushed.saturating_sub(PREFETCH_AHEAD)..pushed {
            expand(line[k % PREFETCH_AHEAD]);
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
    use buffalo_blocks::BlockWalker;
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
        let blocks = BlockWalker::default().whole_batch(&batch.graph, 200, 2);
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
        /// The delay line fills and drains at every hop: from no seeds to
        /// more than twice `PREFETCH_AHEAD` (its slots), through hops that
        /// each add fewer, exactly as many or more new nodes than it has
        /// slots, the counts equal the blocks the walker builds. Layer
        /// `h + 1`'s nodes each hang off one node of layer `h`; extra
        /// edges only point back at nodes already reached, so a hop adds
        /// exactly its layer.
        #[test]
        fn counts_match_the_walker_through_the_delay_line(
            num_seeds in 0..2 * PREFETCH_AHEAD + 2,
            added in vec(0..2 * PREFETCH_AHEAD + 2, 3..4),
            extra in vec((0usize..64, 0usize..64), 0..40),
            depth in 1usize..4,
        ) {
            let mut layer_of = vec![0usize; num_seeds];
            let mut edges = Vec::new();
            let mut frontier = 0..num_seeds;
            for (h, &count) in added.iter().enumerate() {
                let count = if frontier.is_empty() { 0 } else { count };
                let first = layer_of.len();
                for j in 0..count {
                    edges.push((first + j, frontier.start + j % frontier.len()));
                }
                layer_of.resize(first + count, h + 1);
                frontier = first..layer_of.len();
            }
            let n = layer_of.len() + 1; // one node no hop reaches
            let mut b = GraphBuilder::new(n);
            for &(s, d) in &edges {
                b.add_edge(s as NodeId, d as NodeId);
            }
            for &(s, d) in &extra {
                let (s, d) = (s % n, d % n);
                if d < layer_of.len() && s < layer_of.len() && layer_of[s] <= layer_of[d] {
                    b.add_edge(s as NodeId, d as NodeId);
                }
            }
            let g = b.build_directed();
            let seeds: Vec<NodeId> = (0..num_seeds as NodeId).collect();
            let counts = closure_counts(&g, &seeds, depth, &mut ClosureScratch::default());
            let blocks = BlockWalker::default().whole_batch(&g, num_seeds, depth);
            prop_assert_eq!(counts.layers.len(), blocks.len());
            for (h, (c, b)) in counts.layers.iter().rev().zip(blocks.iter().rev()).enumerate() {
                prop_assert_eq!(
                    (c.num_dst, c.num_src, c.num_edges),
                    (b.num_dst(), b.num_src(), b.num_edges()),
                    "hop {}", h
                );
                // Hop `h` adds layer `h + 1` whole.
                let reached = layer_of.iter().filter(|&&l| l <= h + 1).count();
                prop_assert_eq!(c.num_src, reached);
            }
        }

        /// The union rule as the scheduler uses it: a seed list (repeats
        /// and all) cut into leaves whose reach sets are kept in one arena,
        /// the leaves dealt to groups in any order, then one leaf moved to
        /// another group as a rebalance step moves it — every group, and
        /// all the leaves together, counted off the kept sets is a walk of
        /// their seeds concatenated. One arena and one scratch serve two
        /// graphs of different sizes in turn.
        #[test]
        fn kept_reach_sets_count_any_grouping(
            sizes in (60usize..600, 60usize..600),
            graph_seed in 0u64..200,
            depth in 1usize..4,
            picks in vec(0u32..60, 1..80),
            cuts in vec(0usize..80, 0..8),
            deal in vec((0usize..4, 0u64..1_000), 8..9),
            moved in (0usize..8, 0usize..4),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(picks.len())).collect();
            cuts.extend([0, picks.len()]);
            cuts.sort_unstable();
            let leaves: Vec<&[NodeId]> = cuts.windows(2).map(|w| &picks[w[0]..w[1]]).collect();
            let mut scratch = ClosureScratch::default();
            let mut sets = ReachSets::default();
            for n in [sizes.0, sizes.1] {
                let g = generators::barabasi_albert(n, 3, 0.3, graph_seed).unwrap();
                let roots: Vec<NodeId> = (0..60).collect();
                let batch = BatchSampler::new(vec![4; depth]).sample(&g, &roots, graph_seed);
                sets.reset(&batch.graph, depth);
                for leaf in &leaves {
                    closure_counts(&batch.graph, leaf, depth, &mut scratch);
                    sets.keep(&scratch.hops);
                }
                // Deal each leaf to its group, in the order of random keys.
                let mut order: Vec<usize> = (0..leaves.len()).collect();
                order.sort_by_key(|&i| deal[i].1);
                let mut groups = vec![Vec::new(); 4];
                for i in order {
                    groups[deal[i].0].push(i);
                }
                let leaf = moved.0 % leaves.len();
                let from = deal[leaf].0;
                groups[from].retain(|&i| i != leaf);
                groups[moved.1].push(leaf);
                let all = leaves.iter().copied().enumerate();
                prop_assert_eq!(
                    sets.union_counts(&batch.graph, all),
                    closure_counts(&batch.graph, &picks, depth, &mut scratch)
                );
                for members in &groups {
                    let seeds: Vec<NodeId> = members.iter().flat_map(|&i| leaves[i]).copied().collect();
                    prop_assert_eq!(
                        sets.union_counts(&batch.graph, members.iter().map(|&i| (i, leaves[i]))),
                        closure_counts(&batch.graph, &seeds, depth, &mut scratch)
                    );
                }
            }
        }
    }
}
