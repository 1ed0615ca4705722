//! Fanout neighbor sampling and batch construction.
//!
//! GNN mini-batch training samples an `L`-hop neighborhood around a set of
//! *seed* (output) nodes, with a per-layer *fanout* cap on the number of
//! neighbors kept per node. The result is a [`Batch`] — the paper's
//! "sampling subgraph" `G` that Algorithms 1–3 consume.
//!
//! Sampling layers are ordered from the output layer inward: `fanouts[0]`
//! caps the direct neighbors of the seeds (layer `L`), `fanouts[1]` the
//! neighbors-of-neighbors, and so on. The paper's evaluation uses fanouts
//! `(10, 25)` (written "cut-off 10,25" in Table III).
//!
//! # Examples
//!
//! ```
//! use buffalo_graph::generators;
//! use buffalo_sampling::BatchSampler;
//!
//! let g = generators::barabasi_albert(1_000, 5, 0.3, 7).unwrap();
//! let sampler = BatchSampler::new(vec![10, 25]);
//! let batch = sampler.sample(&g, &[0, 1, 2, 3], 42);
//! assert_eq!(batch.num_seeds, 4);
//! assert!(batch.num_nodes() >= 4);
//! // Every seed's sampled in-degree respects the layer-L fanout.
//! for s in 0..4u32 {
//!     assert!(batch.graph.degree(s) <= 10);
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use buffalo_graph::{CsrGraph, NodeId, PREFETCH_AHEAD};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// A sampled training batch: the `L`-hop sampled subgraph around a seed set.
///
/// Nodes are relabeled to local ids `0..num_nodes()`; the seeds occupy
/// `0..num_seeds` in their original order, followed by sampled neighbors in
/// discovery order (layer by layer). The local graph stores only the
/// *sampled* edges, directed so that row `v` holds the in-neighbors whose
/// embeddings aggregate into `v`.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Local-id graph over the sampled nodes (in-neighbor rows).
    pub graph: CsrGraph,
    /// Maps local id → original graph id.
    pub global_ids: Vec<NodeId>,
    /// The first `num_seeds` local ids are the output nodes.
    pub num_seeds: usize,
    /// Per-layer fanouts, output layer first.
    pub fanouts: Vec<usize>,
}

impl Batch {
    /// Number of nodes in the batch (seeds + sampled neighbors).
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Number of sampled (directed) edges.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Aggregation depth `L` this batch was sampled for.
    pub fn depth(&self) -> usize {
        self.fanouts.len()
    }

    /// Restricts the batch to a subset of its seeds, re-sampling nothing:
    /// the result contains the chosen seeds plus every batch node reachable
    /// from them through sampled in-edges within `depth()` hops. Buffalo
    /// never calls it to build blocks: those come straight from the batch
    /// (`buffalo_blocks::BlockWalker::micro_batch`), tested against block
    /// generation over this method's result. Its callers are Betty's
    /// modelled connection check (and the figures that report it) and the
    /// standing benchmark's traced replay. Serving re-splits without it:
    /// an isolated batch restricted to some of its seeds is what
    /// [`BatchSampler::sample_isolated`] gives for those seeds alone.
    ///
    /// The result has the shape [`BatchSampler::sample`] itself produces:
    /// nodes reached before the last hop keep their whole row (every
    /// neighbor of such a node is in the closure, so nothing is filtered),
    /// and **rows of nodes first reached at hop `depth()` are empty** — no
    /// `depth()`-layer consumer (block generation, closure counting, a
    /// nested restriction) ever reads them.
    ///
    /// The relabeling is **order-preserving within each part**: chosen
    /// seeds ascending, then every other reached node ascending. It is not
    /// monotone across the two parts — a seed that was not chosen but is
    /// reached as a neighbor sorts after every chosen seed — so a row that
    /// mixes the parts is re-sorted by child id. Every kept row is the
    /// parent's row as a set, in ascending child order, which is what makes
    /// micro-batch training bitwise-deterministic even for order-sensitive
    /// aggregators (the LSTM processes each node's neighbors as a sequence
    /// — an unspecified order would silently change the computation).
    ///
    /// # Panics
    ///
    /// Panics if any entry of `seed_subset` is not a seed local id or
    /// appears twice.
    pub fn restrict_to_seeds(&self, seed_subset: &[NodeId]) -> Batch {
        // `remap` is the only per-node table: unseen, then how the node
        // was reached, then (after the ascending scans) its child id.
        const UNSEEN: NodeId = NodeId::MAX;
        const CHOSEN: NodeId = NodeId::MAX - 1;
        const INNER: NodeId = NodeId::MAX - 2; // reached before the last hop
        const LAST: NodeId = NodeId::MAX - 3; // first reached at the last hop
        let mut remap = vec![UNSEEN; self.num_nodes()];
        for &s in seed_subset {
            assert!(
                (s as usize) < self.num_seeds,
                "local id {s} is not a seed (num_seeds={})",
                self.num_seeds
            );
            assert!(remap[s as usize] == UNSEEN, "duplicate seed {s}");
            remap[s as usize] = CHOSEN;
        }
        // Depth-bounded BFS through in-edges; `order[bounds[h]..bounds[h + 1]]`
        // is the hop-`h` frontier in discovery order (parent ids).
        let mut order: Vec<NodeId> = seed_subset.to_vec();
        let mut bounds = vec![0, order.len()];
        for hop in 1..=self.depth() {
            let reached = if hop == self.depth() { LAST } else { INNER };
            for i in bounds[hop - 1]..bounds[hop] {
                for &u in self.graph.neighbors(order[i]) {
                    if remap[u as usize] == UNSEEN {
                        remap[u as usize] = reached;
                        order.push(u);
                    }
                }
            }
            bounds.push(order.len());
        }
        // Child order: chosen seeds ascending, then the rest ascending — two
        // scans of the table instead of two sorts.
        let mut keep: Vec<NodeId> = Vec::with_capacity(order.len());
        keep.extend((0..self.num_seeds as NodeId).filter(|&v| remap[v as usize] == CHOSEN));
        keep.extend(
            (0..self.num_nodes() as NodeId).filter(|&v| matches!(remap[v as usize], INNER | LAST)),
        );
        // A kept row is the whole parent row, so the offsets are known
        // before any neighbor is relabeled.
        let mut offsets = Vec::with_capacity(keep.len() + 1);
        offsets.push(0usize);
        let mut edges = 0usize;
        for (new, &old) in keep.iter().enumerate() {
            if remap[old as usize] != LAST {
                edges += self.graph.degree(old);
            }
            offsets.push(edges);
            remap[old as usize] = new as NodeId;
        }
        let mut neighbors: Vec<NodeId> = Vec::with_capacity(edges);
        for (&old, row) in keep.iter().zip(offsets.windows(2)) {
            if row[0] == row[1] {
                continue;
            }
            let start = neighbors.len();
            neighbors.extend(self.graph.neighbors(old).iter().map(|&u| remap[u as usize]));
            let row = &mut neighbors[start..];
            if !row.windows(2).all(|w| w[0] <= w[1]) {
                row.sort_unstable();
            }
        }
        Batch {
            graph: CsrGraph::from_parts(offsets, neighbors),
            global_ids: keep.iter().map(|&v| self.global_ids[v as usize]).collect(),
            num_seeds: seed_subset.len(),
            fanouts: self.fanouts.clone(),
        }
    }
}

/// Samples `L`-hop neighborhoods with per-layer fanout caps.
#[derive(Debug, Clone)]
pub struct BatchSampler {
    fanouts: Vec<usize>,
}

impl BatchSampler {
    /// Creates a sampler with the given per-layer fanouts (output layer
    /// first). The paper's default configuration is `vec![10, 25]`.
    ///
    /// # Panics
    ///
    /// Panics if `fanouts` is empty or contains a zero.
    pub fn new(fanouts: Vec<usize>) -> Self {
        assert!(!fanouts.is_empty(), "need at least one layer");
        assert!(fanouts.iter().all(|&f| f > 0), "fanouts must be positive");
        BatchSampler { fanouts }
    }

    /// Samples a [`Batch`] around `seeds` from `graph`.
    ///
    /// Deterministic in `(graph, seeds, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty, contains duplicates, or references nodes
    /// outside `graph`.
    pub fn sample(&self, graph: &CsrGraph, seeds: &[NodeId], seed: u64) -> Batch {
        let mut nodes = Discovered::seeds(graph, seeds);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Rows::default();
        let mut frontier = 0..seeds.len() as NodeId;
        for &fanout in &self.fanouts {
            frontier = nodes.hop(frontier, fanout, &mut rng, &mut rows);
        }
        Batch {
            graph: rows.into_graph(nodes.global_ids.len()),
            global_ids: nodes.global_ids,
            num_seeds: seeds.len(),
            fanouts: self.fanouts.clone(),
        }
    }

    /// Samples a [`Batch`] whose per-seed neighborhoods are **isolated**:
    /// each seed's `L`-hop closure is sampled independently (seeded by
    /// `(seed, node id)`) and the closures are merged as disjoint
    /// components — a node serving two seeds appears once *per seed*, with
    /// its own sampled in-edges per copy.
    ///
    /// The property this buys is **composition independence**: the
    /// component built for seed `s` is an exact relabeled copy of
    /// `sample(graph, &[s], derive)` regardless of which other seeds share
    /// the batch. [`sample`](Self::sample) cannot offer this — it draws
    /// from one shared RNG stream and dedups discovered nodes, so a
    /// node's sampled neighborhood (and hence a seed's prediction) shifts
    /// with its batch-mates. Online serving uses this method so that the
    /// answer to a query never depends on which other queries were
    /// coalesced with it — batch boundaries can then move freely (load,
    /// faults, re-splits) without moving a single output bit.
    ///
    /// The price is the lost cross-seed dedup: the merged batch is larger
    /// than [`sample`](Self::sample)'s by the overlap between closures.
    ///
    /// Deterministic in `(graph, seeds, seed)` — and, per component, in
    /// `(graph, seed, one node)`.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty, contains duplicates, or references
    /// nodes outside `graph`.
    pub fn sample_isolated(&self, graph: &CsrGraph, seeds: &[NodeId], seed: u64) -> Batch {
        // One table for the whole dispatch: its first version checks the
        // seeds, every later one holds a single seed's component.
        let mut nodes = Discovered::seeds(graph, seeds);
        let k = seeds.len();
        // Merged local ids: all seeds first (seed i is local i), then each
        // component's other nodes in component order — so the seed rows
        // and the other rows are each written in final order and joined
        // at the end. Within a component ids ascend in discovery order,
        // exactly as in a standalone single-seed `sample`, so every
        // component is a relabeled bitwise copy of that batch.
        let (mut seed_rows, mut tail_rows) = (Rows::default(), Rows::default());
        for (i, &s) in seeds.iter().enumerate() {
            nodes.forget();
            nodes.set_local(s, i as NodeId);
            let mut rng = StdRng::seed_from_u64(per_seed_stream(seed, s));
            let mut frontier = i as NodeId..i as NodeId + 1;
            for (layer, &fanout) in self.fanouts.iter().enumerate() {
                let rows = if layer == 0 {
                    &mut seed_rows
                } else {
                    &mut tail_rows
                };
                frontier = nodes.hop(frontier, fanout, &mut rng, rows);
            }
            tail_rows.pad_to(nodes.global_ids.len() - k);
        }
        seed_rows.append(tail_rows);
        Batch {
            graph: seed_rows.into_graph(nodes.global_ids.len()),
            global_ids: nodes.global_ids,
            num_seeds: k,
            fanouts: self.fanouts.clone(),
        }
    }
}

/// The nodes of a batch under construction: `global_ids` (local → global)
/// and its inverse as a versioned dense table, one slot per graph node: a
/// slot counts only while its stamp equals the current version, so
/// forgetting every entry costs nothing. Dense and probed, never
/// iterated — the nondet-iteration lint bans hash containers from sampling
/// wholesale so a future drain cannot order a batch by hasher state.
struct Discovered<'g> {
    graph: &'g CsrGraph,
    global_ids: Vec<NodeId>,
    version: u32,
    /// Per graph node, `stamp << 32 | local id`; stamp 0 is never current.
    slots: Vec<u64>,
    /// Row indices drawn for the node being sampled, when it has too many
    /// neighbors for a bit mask to hold them.
    picked: Vec<usize>,
}

impl<'g> Discovered<'g> {
    /// Starts a batch whose first local ids are `seeds`.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty, contains duplicates, or references nodes
    /// outside `graph`.
    fn seeds(graph: &'g CsrGraph, seeds: &[NodeId]) -> Self {
        assert!(!seeds.is_empty(), "seed set must be non-empty");
        let mut nodes = Discovered {
            graph,
            global_ids: Vec::with_capacity(seeds.len() * 4),
            version: 1,
            slots: vec![0; graph.num_nodes()],
            picked: Vec::new(),
        };
        for (i, &s) in seeds.iter().enumerate() {
            assert!((s as usize) < graph.num_nodes(), "seed {s} out of range");
            assert!(nodes.local_of(s) == i as NodeId, "duplicate seed {s}");
        }
        nodes
    }

    /// Forgets every global → local entry; `global_ids` stays.
    fn forget(&mut self) {
        self.version = self.version.wrapping_add(1);
        if self.version == 0 {
            self.slots.fill(0);
            self.version = 1;
        }
    }

    fn set_local(&mut self, global: NodeId, local: NodeId) {
        self.slots[global as usize] = (self.version as u64) << 32 | local as u64;
    }

    /// The local id of `global`; a node not seen since the last
    /// [`forget`](Self::forget) is appended to `global_ids`.
    #[inline]
    fn local_of(&mut self, global: NodeId) -> NodeId {
        let slot = self.slots[global as usize];
        if (slot >> 32) as u32 == self.version {
            return slot as NodeId;
        }
        let local = self.global_ids.len() as NodeId;
        self.global_ids.push(global);
        self.set_local(global, local);
        local
    }

    /// One sampling layer: appends to `rows` the row of every `frontier`
    /// node — up to `fanout` of its in-neighbors, as sorted local ids
    /// without duplicates or self-loops — and returns the next frontier,
    /// the nodes this layer discovered. A frontier is a contiguous
    /// ascending range of local ids, so rows are appended in final order.
    ///
    /// A node with more than `fanout` neighbors draws `fanout` distinct
    /// row indices by Floyd's algorithm; any other node keeps its whole
    /// row and draws nothing.
    fn hop(
        &mut self,
        frontier: Range<NodeId>,
        fanout: usize,
        rng: &mut StdRng,
        rows: &mut Rows,
    ) -> Range<NodeId> {
        let graph = self.graph;
        let discovered = self.global_ids.len() as NodeId;
        for dst in frontier {
            // Frontier nodes are scattered over the dataset graph: the row
            // `PREFETCH_AHEAD` nodes on is prefetched while this one is
            // sampled.
            if let Some(&ahead) = self.global_ids.get(dst as usize + PREFETCH_AHEAD) {
                graph.prefetch_row(ahead);
            }
            let pool = graph.neighbors(self.global_ids[dst as usize]);
            let start = rows.neighbors.len();
            let n = pool.len();
            if n <= fanout {
                for &u in pool {
                    rows.neighbors.push(self.local_of(u));
                }
            } else if n <= u128::BITS as usize {
                // Floyd's draw; the row indices picked so far are a bit
                // mask, so "already picked" is one test, not a scan.
                let mut picked = 0u128;
                for j in (n - fanout)..n {
                    let t = rng.gen_range(0..=j);
                    let pick = if picked >> t & 1 == 1 { j } else { t };
                    picked |= 1 << pick;
                    rows.neighbors.push(self.local_of(pool[pick]));
                }
            } else {
                self.picked.clear();
                for j in (n - fanout)..n {
                    let t = rng.gen_range(0..=j);
                    let pick = if self.picked.contains(&t) { j } else { t };
                    self.picked.push(pick);
                    rows.neighbors.push(self.local_of(pool[pick]));
                }
            }
            rows.finish_row(start, dst);
        }
        discovered..self.global_ids.len() as NodeId
    }
}

/// CSR rows under construction, appended in row order.
struct Rows {
    offsets: Vec<usize>,
    neighbors: Vec<NodeId>,
}

impl Default for Rows {
    fn default() -> Self {
        Rows {
            offsets: vec![0],
            neighbors: Vec::new(),
        }
    }
}

impl Rows {
    /// Closes the row of `owner` written at `neighbors[start..]`: sorts it
    /// and drops duplicates and the self-loop, in place.
    fn finish_row(&mut self, start: usize, owner: NodeId) {
        self.neighbors[start..].sort_unstable();
        let mut write = start;
        for read in start..self.neighbors.len() {
            let v = self.neighbors[read];
            if v != owner && (write == start || self.neighbors[write - 1] != v) {
                self.neighbors[write] = v;
                write += 1;
            }
        }
        self.neighbors.truncate(write);
        self.offsets.push(write);
    }

    /// Appends empty rows until there are `rows` of them.
    fn pad_to(&mut self, rows: usize) {
        self.offsets.resize(rows + 1, self.neighbors.len());
    }

    /// Appends `tail`'s rows after this one's.
    fn append(&mut self, tail: Rows) {
        let base = self.neighbors.len();
        self.offsets
            .extend(tail.offsets[1..].iter().map(|&o| base + o));
        self.neighbors.extend_from_slice(&tail.neighbors);
    }

    /// The graph over `num_nodes` nodes; rows never written (the nodes
    /// first reached at the last hop) are empty.
    fn into_graph(mut self, num_nodes: usize) -> CsrGraph {
        self.pad_to(num_nodes);
        CsrGraph::from_parts(self.offsets, self.neighbors)
    }
}

/// Derives the independent RNG stream for one seed node: a SplitMix64
/// finalizer over `(seed, node)` so nearby node ids decorrelate.
fn per_seed_stream(seed: u64, node: NodeId) -> u64 {
    let mut z = seed ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Iterates over a shuffled seed set in fixed-size chunks, yielding the
/// seed slice for each mini-batch of an epoch.
#[derive(Debug, Clone)]
pub struct SeedBatches {
    order: Vec<NodeId>,
    batch_size: usize,
}

impl SeedBatches {
    /// Shuffles `0..num_nodes` with `seed` and chunks into `batch_size`
    /// groups (the last group may be smaller).
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn new(num_nodes: usize, batch_size: usize, seed: u64) -> Self {
        assert!(batch_size > 0, "batch_size must be positive");
        let mut order: Vec<NodeId> = (0..num_nodes as NodeId).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        // Fisher–Yates
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        SeedBatches { order, batch_size }
    }

    /// Number of batches per epoch.
    pub fn num_batches(&self) -> usize {
        self.order.len().div_ceil(self.batch_size)
    }

    /// The seed slice for batch `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_batches()`.
    pub fn batch(&self, i: usize) -> &[NodeId] {
        let start = i * self.batch_size;
        assert!(start < self.order.len(), "batch index out of range");
        let end = (start + self.batch_size).min(self.order.len());
        &self.order[start..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffalo_graph::generators;
    use proptest::prelude::*;

    fn test_graph() -> CsrGraph {
        generators::barabasi_albert(500, 6, 0.4, 11).unwrap()
    }

    #[test]
    fn fanout_caps_seed_degree() {
        let g = test_graph();
        let batch = BatchSampler::new(vec![5, 3]).sample(&g, &[0, 1, 2], 1);
        for s in 0..batch.num_seeds as NodeId {
            assert!(batch.graph.degree(s) <= 5);
        }
    }

    #[test]
    fn seeds_come_first_and_map_back() {
        let g = test_graph();
        let seeds = [10u32, 20, 30];
        let batch = BatchSampler::new(vec![4]).sample(&g, &seeds, 2);
        assert_eq!(&batch.global_ids[..3], &seeds);
        assert_eq!(batch.num_seeds, 3);
    }

    #[test]
    fn sampled_edges_exist_in_original_graph() {
        let g = test_graph();
        let batch = BatchSampler::new(vec![6, 4]).sample(&g, &[1, 2, 3, 4], 3);
        for v in batch.graph.node_ids() {
            let gv = batch.global_ids[v as usize];
            for &u in batch.graph.neighbors(v) {
                let gu = batch.global_ids[u as usize];
                assert!(
                    g.has_edge(gu, gv) || g.has_edge(gv, gu),
                    "sampled edge ({gu},{gv}) missing in original"
                );
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = test_graph();
        let s = BatchSampler::new(vec![5, 5]);
        let a = s.sample(&g, &[0, 9, 17], 99);
        let b = s.sample(&g, &[0, 9, 17], 99);
        assert_eq!(a.global_ids, b.global_ids);
        assert_eq!(a.graph, b.graph);
    }

    #[test]
    fn isolated_components_match_standalone_samples() {
        let g = test_graph();
        let s = BatchSampler::new(vec![5, 3]);
        let seeds = [0u32, 9, 17, 250];
        let merged = s.sample_isolated(&g, &seeds, 77);
        assert_eq!(merged.num_seeds, seeds.len());
        assert_eq!(&merged.global_ids[..seeds.len()], &seeds);
        for (i, &node) in seeds.iter().enumerate() {
            // The i-th component of the merged batch, restricted back to
            // seed i alone, must be a bitwise copy of sampling that seed
            // standalone with its derived stream.
            let alone = s.sample(&g, &[node], per_seed_stream(77, node));
            let part = merged.restrict_to_seeds(&[i as NodeId]);
            assert_eq!(part.global_ids, alone.global_ids, "seed {node}");
            assert_eq!(part.graph, alone.graph, "seed {node}");
        }
    }

    #[test]
    fn isolated_is_composition_independent() {
        let g = test_graph();
        let s = BatchSampler::new(vec![4, 4]);
        // The same seed batched with different companions keeps the exact
        // same sampled closure — the property online serving relies on.
        let with_a = s.sample_isolated(&g, &[42, 7, 300], 5);
        let with_b = s.sample_isolated(&g, &[123, 42], 5);
        let a = with_a.restrict_to_seeds(&[0]);
        let b = with_b.restrict_to_seeds(&[1]);
        assert_eq!(a.global_ids, b.global_ids);
        assert_eq!(a.graph, b.graph);
        // The halves of a multi-seed dispatch, sampled on their own, are the
        // whole dispatch restricted to them — what lets the serving ladder
        // re-split a dispatch by sampling each half afresh.
        for fanouts in [vec![4, 4], vec![3], vec![5, 2, 3]] {
            let s = BatchSampler::new(fanouts);
            for all in [
                &[3u32, 42, 99, 300, 301][..],
                &[7, 8],
                &[0, 1, 2, 250, 251, 399],
            ] {
                let whole = s.sample_isolated(&g, all, 11);
                let mid = all.len().div_ceil(2);
                let locals: Vec<NodeId> = (0..all.len() as NodeId).collect();
                for (half, half_locals) in
                    [(&all[..mid], &locals[..mid]), (&all[mid..], &locals[mid..])]
                {
                    let alone = s.sample_isolated(&g, half, 11);
                    let restricted = whole.restrict_to_seeds(half_locals);
                    assert_eq!(alone.graph, restricted.graph, "{half:?} of {all:?}");
                    assert_eq!(alone.global_ids, restricted.global_ids, "{half:?}");
                }
            }
        }
    }

    #[test]
    fn isolated_components_are_disjoint() {
        let g = test_graph();
        let s = BatchSampler::new(vec![6, 4]);
        let merged = s.sample_isolated(&g, &[1, 2, 3], 9);
        // No sampled edge crosses components: every node reachable from
        // seed i is only reachable from seed i.
        for i in 0..3u32 {
            let part = merged.restrict_to_seeds(&[i]);
            for other in 0..3u32 {
                if other == i {
                    continue;
                }
                let o = merged.restrict_to_seeds(&[other]);
                // Component node *local* sets in the merged batch are
                // disjoint even when global ids overlap.
                assert_eq!(part.num_seeds, 1);
                assert_eq!(o.num_seeds, 1);
            }
        }
        let total: usize = (0..3u32)
            .map(|i| merged.restrict_to_seeds(&[i]).num_nodes())
            .sum();
        assert_eq!(
            total,
            merged.num_nodes(),
            "components must partition the batch"
        );
    }

    #[test]
    fn isolated_is_deterministic() {
        let g = test_graph();
        let s = BatchSampler::new(vec![5, 5]);
        let a = s.sample_isolated(&g, &[0, 9, 17], 99);
        let b = s.sample_isolated(&g, &[0, 9, 17], 99);
        assert_eq!(a.global_ids, b.global_ids);
        assert_eq!(a.graph, b.graph);
    }

    #[test]
    #[should_panic(expected = "duplicate seed")]
    fn isolated_rejects_duplicate_seeds() {
        let g = test_graph();
        let _ = BatchSampler::new(vec![3]).sample_isolated(&g, &[4, 4], 0);
    }

    #[test]
    fn depth_one_only_samples_direct_neighbors() {
        let g = test_graph();
        let batch = BatchSampler::new(vec![1000]).sample(&g, &[7], 5);
        // All non-seed nodes must be real neighbors of node 7.
        for l in 1..batch.num_nodes() as NodeId {
            let orig = batch.global_ids[l as usize];
            assert!(g.has_edge(orig, 7));
        }
        assert_eq!(batch.graph.degree(0), g.degree(7));
    }

    #[test]
    fn restrict_to_seeds_keeps_reachable_closure() {
        let g = test_graph();
        let batch = BatchSampler::new(vec![4, 4]).sample(&g, &[0, 1, 2, 3], 7);
        let micro = batch.restrict_to_seeds(&[0, 2]);
        assert_eq!(micro.num_seeds, 2);
        assert_eq!(micro.global_ids[0], batch.global_ids[0]);
        assert_eq!(micro.global_ids[1], batch.global_ids[2]);
        assert!(micro.num_nodes() <= batch.num_nodes());
        // Seed in-degrees are preserved: the restriction keeps every
        // sampled in-neighbor of a kept seed.
        assert_eq!(micro.graph.degree(0), batch.graph.degree(0));
        assert_eq!(micro.graph.degree(1), batch.graph.degree(2));
    }

    #[test]
    fn restriction_preserves_neighbor_order() {
        // Order-sensitive aggregators (LSTM) require that a kept node's
        // neighbor sequence is identical in the micro-batch.
        let g = test_graph();
        let seeds: Vec<NodeId> = (0..30).collect();
        let batch = BatchSampler::new(vec![6, 4]).sample(&g, &seeds, 13);
        // Deliberately unsorted subset: the restriction must sort it.
        let micro = batch.restrict_to_seeds(&[17, 3, 25, 8]);
        assert_eq!(
            &micro.global_ids[..4],
            &[
                batch.global_ids[3],
                batch.global_ids[8],
                batch.global_ids[17],
                batch.global_ids[25]
            ]
        );
        // Each kept seed's neighbor row maps to the same global sequence.
        for &(child, parent) in [(0u32, 3u32), (1, 8), (2, 17), (3, 25)].iter() {
            let child_seq: Vec<NodeId> = micro
                .graph
                .neighbors(child)
                .iter()
                .map(|&u| micro.global_ids[u as usize])
                .collect();
            let parent_seq: Vec<NodeId> = batch
                .graph
                .neighbors(parent)
                .iter()
                .map(|&u| batch.global_ids[u as usize])
                .collect();
            assert_eq!(child_seq, parent_seq, "seed {parent} row reordered");
        }
    }

    #[test]
    #[should_panic(expected = "not a seed")]
    fn restrict_rejects_non_seed() {
        let g = test_graph();
        let batch = BatchSampler::new(vec![2]).sample(&g, &[0], 1);
        let _ = batch.restrict_to_seeds(&[(batch.num_nodes() - 1) as NodeId]);
    }

    #[test]
    fn seed_batches_cover_everything_once() {
        let sb = SeedBatches::new(103, 10, 4);
        assert_eq!(sb.num_batches(), 11);
        let mut seen = [false; 103];
        for b in (0..sb.num_batches()).map(|i| sb.batch(i)) {
            for &v in b {
                assert!(!seen[v as usize], "node {v} appears twice");
                seen[v as usize] = true;
            }
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn seed_batches_shuffle_depends_on_seed() {
        let a = SeedBatches::new(50, 50, 1);
        let b = SeedBatches::new(50, 50, 2);
        assert_ne!(a.batch(0), b.batch(0));
    }

    proptest! {
        /// Batches never contain a node twice and all edges respect fanout caps per layer.
        #[test]
        fn batch_node_uniqueness(seed in 0u64..50) {
            let g = generators::barabasi_albert(200, 4, 0.2, 3).unwrap();
            let batch = BatchSampler::new(vec![3, 3]).sample(&g, &[0, 5, 9], seed);
            let mut ids = batch.global_ids.clone();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), batch.global_ids.len());
        }

        /// In a `sample`d batch hop 1 is the id range `num_seeds..end1`,
        /// `end1` one past the largest id in the seeds' rows (or
        /// `num_seeds` if there is none): no id above the range occurs
        /// in them by the choice of `end1`, and every id in it does.
        /// Raw rows, so repeats and self-loops are in play.
        #[test]
        fn hop_one_is_an_id_range(
            n in 1usize..60,
            edges in proptest::collection::vec((0u32..60, 0u32..60), 0..400),
            picks in proptest::collection::vec(0u32..60, 1..20),
            fanouts in proptest::collection::vec(1usize..8, 1..4),
            seed in 0u64..1_000,
        ) {
            let mut rows: Vec<Vec<NodeId>> = vec![Vec::new(); n];
            for (s, d) in edges {
                rows[d as usize % n].push(s % n as NodeId);
            }
            let mut offsets = vec![0usize];
            for row in &rows {
                offsets.push(offsets[offsets.len() - 1] + row.len());
            }
            let g = CsrGraph::from_parts(offsets, rows.concat());
            let mut seeds: Vec<NodeId> = Vec::new();
            for p in picks {
                let v = p % n as NodeId;
                if !seeds.contains(&v) {
                    seeds.push(v);
                }
            }
            let batch = BatchSampler::new(fanouts).sample(&g, &seeds, seed);
            let k = batch.num_seeds;
            let seed_rows = &batch.graph.neighbor_array()[..batch.graph.offsets()[k]];
            let end1 = seed_rows.iter().map(|&u| u as usize + 1).max().unwrap_or(0).max(k);
            let mut hit = vec![false; end1 - k];
            for &u in seed_rows.iter().filter(|&&u| u as usize >= k) {
                hit[u as usize - k] = true;
            }
            prop_assert!(hit.iter().all(|&h| h), "an id in {}..{} is in no seed row", k, end1);
        }
    }
}
