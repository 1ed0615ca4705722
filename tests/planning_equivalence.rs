//! The host planning path — sample, restrict, closure counting, block
//! generation — against frozen copies of the bodies it replaced (`parent`,
//! the tree at PR 12). Everything training reads must be bit-equal:
//! `global_ids`, `layer_frontiers`, the sampled graph, the rows a
//! `depth()`-layer consumer can reach, and every `Block`.
//!
//! The hot loop no longer restricts and then generates: `BlockWalker`
//! builds a micro-batch's blocks in one walk of the batch graph. Its
//! oracle is the public composition it replaced there,
//! `generate_blocks_fast(restrict_to_seeds(group))`.

use buffalo::blocks::{generate_blocks_fast, Block, BlockWalker, GenerateOptions};
use buffalo::bucketing::{closure_counts, ClosureScratch};
use buffalo::graph::{generators, CsrGraph, GraphBuilder, NodeId};
use buffalo::sampling::{Batch, BatchSampler};
use proptest::collection::vec;
use proptest::prelude::*;

/// The replaced bodies, verbatim except that `induced_subgraph` (deleted
/// with its only caller) is inlined into `restrict_to_seeds` and that the
/// row gathering of `generate_blocks_fast` is serial.
mod parent {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    pub fn sample(fanouts: &[usize], graph: &CsrGraph, seeds: &[NodeId], seed: u64) -> Batch {
        assert!(!seeds.is_empty(), "seed set must be non-empty");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut local_of: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        let mut global_ids: Vec<NodeId> = Vec::with_capacity(seeds.len() * 4);
        for &s in seeds {
            assert!((s as usize) < graph.num_nodes(), "seed {s} out of range");
            let prev = local_of.insert(s, global_ids.len() as NodeId);
            assert!(prev.is_none(), "duplicate seed {s}");
            global_ids.push(s);
        }
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new(); // (src=in-neighbor, dst)
        let mut frontier: Vec<NodeId> = seeds.to_vec(); // original ids
        let mut layer_frontiers: Vec<Vec<NodeId>> = vec![(0..seeds.len() as NodeId).collect()];
        for &fanout in fanouts {
            let mut next_frontier: Vec<NodeId> = Vec::new();
            let mut next_locals: Vec<NodeId> = Vec::new();
            for &v in &frontier {
                let dst_local = local_of[&v];
                let nb = graph.neighbors(v);
                for u in sample_distinct(nb, fanout, &mut rng) {
                    let src_local = *local_of.entry(u).or_insert_with(|| {
                        let l = global_ids.len() as NodeId;
                        global_ids.push(u);
                        next_frontier.push(u);
                        next_locals.push(l);
                        l
                    });
                    edges.push((src_local, dst_local));
                }
            }
            layer_frontiers.push(next_locals);
            frontier = next_frontier;
        }
        let mut b = GraphBuilder::with_capacity(global_ids.len(), edges.len());
        b.extend_edges(edges);
        Batch {
            graph: b.build_directed(),
            global_ids,
            num_seeds: seeds.len(),
            fanouts: fanouts.to_vec(),
            layer_frontiers,
        }
    }

    pub fn sample_isolated(
        fanouts: &[usize],
        graph: &CsrGraph,
        seeds: &[NodeId],
        seed: u64,
    ) -> Batch {
        assert!(!seeds.is_empty(), "seed set must be non-empty");
        let parts: Vec<Batch> = seeds
            .iter()
            .map(|&s| sample(fanouts, graph, &[s], per_seed_stream(seed, s)))
            .collect();
        for w in 0..seeds.len() {
            for v in (w + 1)..seeds.len() {
                assert!(seeds[w] != seeds[v], "duplicate seed {}", seeds[w]);
            }
        }
        let k = seeds.len();
        let total_nodes: usize = parts.iter().map(Batch::num_nodes).sum();
        let total_edges: usize = parts.iter().map(Batch::num_edges).sum();
        let mut global_ids: Vec<NodeId> = Vec::with_capacity(total_nodes);
        global_ids.extend_from_slice(seeds);
        let mut bases: Vec<NodeId> = Vec::with_capacity(k);
        let mut next = k as NodeId;
        for p in &parts {
            bases.push(next);
            global_ids.extend_from_slice(&p.global_ids[1..]);
            next += (p.num_nodes() - 1) as NodeId;
        }
        let relabel = |i: usize, l: NodeId| -> NodeId {
            if l == 0 {
                i as NodeId
            } else {
                bases[i] + l - 1
            }
        };
        let mut b = GraphBuilder::with_capacity(total_nodes, total_edges);
        for (i, p) in parts.iter().enumerate() {
            for dst in p.graph.node_ids() {
                for &src in p.graph.neighbors(dst) {
                    b.add_edge(relabel(i, src), relabel(i, dst));
                }
            }
        }
        let mut layer_frontiers: Vec<Vec<NodeId>> = vec![(0..k as NodeId).collect()];
        for layer in 1..=fanouts.len() {
            let mut front: Vec<NodeId> = Vec::new();
            for (i, p) in parts.iter().enumerate() {
                if let Some(f) = p.layer_frontiers.get(layer) {
                    front.extend(f.iter().map(|&l| relabel(i, l)));
                }
            }
            layer_frontiers.push(front);
        }
        Batch {
            graph: b.build_directed(),
            global_ids,
            num_seeds: k,
            fanouts: fanouts.to_vec(),
            layer_frontiers,
        }
    }

    fn per_seed_stream(seed: u64, node: NodeId) -> u64 {
        let mut z = seed ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn sample_distinct(pool: &[NodeId], k: usize, rng: &mut StdRng) -> Vec<NodeId> {
        let n = pool.len();
        if n <= k {
            return pool.to_vec();
        }
        let mut picked: Vec<usize> = Vec::with_capacity(k);
        for j in (n - k)..n {
            let t = rng.gen_range(0..=j);
            if picked.contains(&t) {
                picked.push(j);
            } else {
                picked.push(t);
            }
        }
        picked.into_iter().map(|i| pool[i]).collect()
    }

    pub fn restrict_to_seeds(batch: &Batch, seed_subset: &[NodeId]) -> Batch {
        for &s in seed_subset {
            assert!((s as usize) < batch.num_seeds, "local id {s} is not a seed");
        }
        let mut seen = vec![false; batch.num_nodes()];
        let mut frontier: Vec<NodeId> = seed_subset.to_vec();
        for &s in seed_subset {
            seen[s as usize] = true;
        }
        let mut tail: Vec<NodeId> = Vec::new();
        let mut frontiers = vec![seed_subset.to_vec()];
        for _ in 0..batch.depth() {
            let mut next = Vec::new();
            for &v in &frontier {
                for &u in batch.graph.neighbors(v) {
                    if !seen[u as usize] {
                        seen[u as usize] = true;
                        next.push(u);
                        tail.push(u);
                    }
                }
            }
            frontiers.push(next.clone());
            frontier = next;
        }
        let mut keep: Vec<NodeId> = seed_subset.to_vec();
        keep.sort_unstable();
        tail.sort_unstable();
        keep.extend_from_slice(&tail);
        // `CsrGraph::induced_subgraph(&keep)`.
        let mut remap = vec![NodeId::MAX; batch.num_nodes()];
        for (new, &old) in keep.iter().enumerate() {
            assert_eq!(remap[old as usize], NodeId::MAX, "duplicate node id");
            remap[old as usize] = new as NodeId;
        }
        let mut offsets = vec![0usize];
        let mut neighbors = Vec::new();
        for &old in &keep {
            let start = neighbors.len();
            for &nb in batch.graph.neighbors(old) {
                let mapped = remap[nb as usize];
                if mapped != NodeId::MAX {
                    neighbors.push(mapped);
                }
            }
            neighbors[start..].sort_unstable();
            offsets.push(neighbors.len());
        }
        Batch {
            graph: CsrGraph::from_parts(offsets, neighbors),
            global_ids: keep.iter().map(|&l| batch.global_ids[l as usize]).collect(),
            num_seeds: seed_subset.len(),
            fanouts: batch.fanouts.clone(),
            layer_frontiers: frontiers
                .into_iter()
                .map(|f| f.into_iter().map(|v| remap[v as usize]).collect())
                .collect(),
        }
    }

    pub fn generate_blocks_fast(g: &CsrGraph, num_seeds: usize, depth: usize) -> Vec<Block> {
        let mut dst: Vec<NodeId> = (0..num_seeds as NodeId).collect();
        let mut blocks_rev: Vec<Block> = Vec::with_capacity(depth);
        let mut pos_of: Vec<u32> = vec![u32::MAX; g.num_nodes()];
        for _ in 0..depth {
            let mut src_nodes: Vec<NodeId> = dst.clone();
            for (i, &v) in dst.iter().enumerate() {
                pos_of[v as usize] = i as u32;
            }
            let mut offsets = Vec::with_capacity(dst.len() + 1);
            let mut indices = Vec::new();
            offsets.push(0usize);
            for &v in &dst {
                for &u in g.neighbors(v) {
                    let p = &mut pos_of[u as usize];
                    if *p == u32::MAX {
                        *p = src_nodes.len() as u32;
                        src_nodes.push(u);
                    }
                    indices.push(*p);
                }
                offsets.push(indices.len());
            }
            let block = Block::from_parts(dst, src_nodes, offsets, indices);
            for &v in block.src_nodes() {
                pos_of[v as usize] = u32::MAX;
            }
            dst = block.src_nodes().to_vec();
            blocks_rev.push(block);
        }
        blocks_rev.reverse();
        blocks_rev
    }
}

fn blocks_of(g: &CsrGraph, num_seeds: usize, depth: usize) -> Vec<Block> {
    generate_blocks_fast(g, num_seeds, depth, GenerateOptions::default())
}

fn assert_same_nodes(new: &Batch, old: &Batch) {
    assert_eq!(new.global_ids, old.global_ids);
    assert_eq!(new.num_seeds, old.num_seeds);
    assert_eq!(new.fanouts, old.fanouts);
    assert_eq!(new.layer_frontiers, old.layer_frontiers);
}

fn assert_same_batch(new: &Batch, old: &Batch) {
    assert_same_nodes(new, old);
    assert_eq!(new.graph, old.graph);
}

/// A restriction against its frozen twin: the same nodes and frontiers,
/// the same row for every node reached before the last hop, an empty row
/// for the rest — and therefore the same blocks.
fn assert_same_restriction(new: &Batch, old: &Batch) {
    assert_same_nodes(new, old);
    let depth = new.depth();
    for (hop, frontier) in new.layer_frontiers.iter().enumerate() {
        for &v in frontier {
            if hop < depth {
                assert_eq!(new.graph.neighbors(v), old.graph.neighbors(v), "row of {v}");
            } else {
                assert!(new.graph.neighbors(v).is_empty(), "last-hop row of {v}");
            }
        }
    }
    assert_eq!(
        blocks_of(&new.graph, new.num_seeds, depth),
        parent::generate_blocks_fast(&old.graph, old.num_seeds, depth)
    );
}

/// One walk against restrict → generate: the same layer sizes, the same
/// positions in every row, and the same dataset nodes in every block —
/// the walker names them by batch-local id, the restriction by its own.
/// Returns the walked blocks.
fn assert_walk_equals_composition(
    walker: &mut BlockWalker,
    batch: &Batch,
    group: &[NodeId],
) -> Vec<Block> {
    let walked = walker.micro_batch(&batch.graph, batch.num_seeds, group, batch.depth());
    let micro = batch.restrict_to_seeds(group);
    let composed = blocks_of(&micro.graph, micro.num_seeds, micro.depth());
    assert_eq!(walked.len(), composed.len());
    for (w, c) in walked.iter().zip(&composed) {
        assert_eq!(
            (w.num_dst(), w.num_src(), w.num_edges()),
            (c.num_dst(), c.num_src(), c.num_edges()),
            "group {group:?}"
        );
        for i in 0..c.num_dst() {
            assert_eq!(
                w.src_positions(i),
                c.src_positions(i),
                "row {i} of {group:?}"
            );
        }
        let globals = |ids: &[NodeId], of: &Batch| -> Vec<NodeId> {
            ids.iter().map(|&l| of.global_ids[l as usize]).collect()
        };
        assert_eq!(
            globals(w.src_nodes(), batch),
            globals(c.src_nodes(), &micro)
        );
        assert_eq!(
            globals(w.dst_nodes(), batch),
            globals(c.dst_nodes(), &micro)
        );
    }
    walked
}

/// `take` distinct entries of `0..n`, in an order `picks` decides.
fn unsorted_subset(n: usize, take: usize, picks: &[usize]) -> Vec<NodeId> {
    let mut pool: Vec<NodeId> = (0..n as NodeId).collect();
    let mut out = Vec::new();
    for &p in picks.iter().cycle().take(take.min(n)) {
        out.push(pool.swap_remove(p % pool.len()));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) sample / sample_isolated / restrict_to_seeds, nested restricts
    /// included, equal their parent bodies on everything training reads.
    #[test]
    fn planning_equals_parent(
        n in 40usize..400,
        m in 1usize..9,
        graph_seed in 0u64..1_000,
        num_seeds in 1usize..60,
        fanouts in vec(1usize..12, 1..4),
        sample_seed in 0u64..1_000,
        picks in vec(0usize..1_000, 2..40),
        take in 1usize..40,
    ) {
        let g = generators::barabasi_albert(n, m, 0.3, graph_seed).unwrap();
        let seeds = unsorted_subset(n, num_seeds, &picks);
        let sampler = BatchSampler::new(fanouts.clone());

        let batch = sampler.sample(&g, &seeds, sample_seed);
        assert_same_batch(&batch, &parent::sample(&fanouts, &g, &seeds, sample_seed));
        let isolated = sampler.sample_isolated(&g, &seeds, sample_seed);
        assert_same_batch(
            &isolated,
            &parent::sample_isolated(&fanouts, &g, &seeds, sample_seed),
        );

        for whole in [&batch, &isolated] {
            let subset = unsorted_subset(whole.num_seeds, take, &picks);
            let micro = whole.restrict_to_seeds(&subset);
            let old_micro = parent::restrict_to_seeds(whole, &subset);
            assert_same_restriction(&micro, &old_micro);
            // Nested: the new restriction of the new micro-batch against
            // the parent's restriction of the parent's.
            let inner = unsorted_subset(micro.num_seeds, take / 2 + 1, &picks[1..]);
            assert_same_restriction(
                &micro.restrict_to_seeds(&inner),
                &parent::restrict_to_seeds(&old_micro, &inner),
            );
            // (b) closure counting agrees with the blocks it stands for.
            let mut scratch = ClosureScratch::default();
            let locals: Vec<NodeId> = (0..micro.num_seeds as NodeId).collect();
            let counts = closure_counts(&micro.graph, &locals, micro.depth(), &mut scratch);
            let blocks = blocks_of(&micro.graph, micro.num_seeds, micro.depth());
            prop_assert_eq!(counts.layers.len(), blocks.len());
            for (c, b) in counts.layers.iter().zip(&blocks) {
                prop_assert_eq!(
                    (c.num_dst, c.num_src, c.num_edges),
                    (b.num_dst(), b.num_src(), b.num_edges())
                );
            }
        }
    }

    /// (a) again, on graphs `GraphBuilder` never makes: rows built raw,
    /// unsorted, with repeated neighbors and self-loops, which the sampled
    /// graph must still drop exactly as `build_directed` did.
    #[test]
    fn sampling_equals_parent_on_raw_rows(
        n in 2usize..50,
        edges in vec((0u32..50, 0u32..50), 0..400),
        num_seeds in 1usize..20,
        fanouts in vec(1usize..6, 1..4),
        sample_seed in 0u64..1_000,
        picks in vec(0usize..1_000, 2..20),
    ) {
        let mut rows: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (s, d) in edges {
            rows[d as usize % n].push(s % n as u32);
        }
        let mut offsets = vec![0usize];
        for row in &rows {
            offsets.push(offsets[offsets.len() - 1] + row.len());
        }
        let g = CsrGraph::from_parts(offsets, rows.concat());
        let seeds = unsorted_subset(n, num_seeds, &picks);
        let sampler = BatchSampler::new(fanouts.clone());
        assert_same_batch(
            &sampler.sample(&g, &seeds, sample_seed),
            &parent::sample(&fanouts, &g, &seeds, sample_seed),
        );
        assert_same_batch(
            &sampler.sample_isolated(&g, &seeds, sample_seed),
            &parent::sample_isolated(&fanouts, &g, &seeds, sample_seed),
        );
    }

    /// (c) generate_blocks_fast equals its parent body on arbitrary
    /// batch graphs: repeated sources, empty rows, rows beyond the depth.
    #[test]
    fn blocks_equal_parent(
        n in 1usize..120,
        edges in vec((0u32..120, 0u32..120), 0..600),
        num_seeds in 0usize..40,
        depth in 1usize..4,
    ) {
        let mut b = GraphBuilder::new(n);
        b.extend_edges(edges.into_iter().map(|(s, d)| (s % n as u32, d % n as u32)));
        let g = b.build_directed();
        let num_seeds = num_seeds.min(n);
        prop_assert_eq!(
            blocks_of(&g, num_seeds, depth),
            parent::generate_blocks_fast(&g, num_seeds, depth)
        );
    }

    /// (d) the one-walk block builder equals restrict → generate — groups
    /// in arbitrary order, a single seed whose seed neighbors were not
    /// chosen, a seed chosen together with the seeds in its row, every
    /// seed at once — on one reused walker; and closure counting from the
    /// same unsorted groups, on one reused scratch, still counts exactly
    /// what those blocks hold.
    #[test]
    fn walker_equals_restrict_then_generate(
        n in 40usize..400,
        m in 1usize..9,
        graph_seed in 0u64..1_000,
        num_seeds in 1usize..60,
        fanouts in vec(1usize..12, 1..4),
        sample_seed in 0u64..1_000,
        picks in vec(0usize..1_000, 2..40),
        take in 1usize..40,
    ) {
        let g = generators::barabasi_albert(n, m, 0.3, graph_seed).unwrap();
        let seeds = unsorted_subset(n, num_seeds, &picks);
        let sampler = BatchSampler::new(fanouts.clone());
        let mut walker = BlockWalker::default();
        let mut scratch = ClosureScratch::default();
        for batch in [
            sampler.sample(&g, &seeds, sample_seed),
            sampler.sample_isolated(&g, &seeds, sample_seed),
        ] {
            let one = (picks[0] % batch.num_seeds) as NodeId;
            let mut with_its_row = vec![one];
            with_its_row.extend(
                batch.graph.neighbors(one).iter().filter(|&&u| (u as usize) < batch.num_seeds),
            );
            let everyone = unsorted_subset(batch.num_seeds, batch.num_seeds, &picks);
            let groups = [
                unsorted_subset(batch.num_seeds, take, &picks),
                unsorted_subset(batch.num_seeds, take / 2 + 1, &picks[1..]),
                vec![one],
                with_its_row,
                everyone.clone(),
            ];
            for group in &groups {
                let blocks = assert_walk_equals_composition(&mut walker, &batch, group);
                let counts = closure_counts(&batch.graph, group, batch.depth(), &mut scratch);
                prop_assert_eq!(counts.layers.len(), blocks.len());
                for (c, b) in counts.layers.iter().zip(&blocks) {
                    prop_assert_eq!(
                        (c.num_dst, c.num_src, c.num_edges),
                        (b.num_dst(), b.num_src(), b.num_edges())
                    );
                }
            }
            // Every seed chosen is the batch itself, node ids included.
            let whole = blocks_of(&batch.graph, batch.num_seeds, batch.depth());
            prop_assert_eq!(
                &walker.micro_batch(&batch.graph, batch.num_seeds, &everyone, batch.depth()),
                &whole
            );
            prop_assert_eq!(
                &walker.whole_batch(&batch.graph, batch.num_seeds, batch.depth()),
                &whole
            );
        }
    }

    /// (a) once more where the sampler changes how it remembers the row
    /// indices Floyd's algorithm drew: a bit mask up to 128 neighbors, a
    /// list above. Nodes of degree 127, 128 and 129 sit on both sides.
    #[test]
    fn sampling_equals_parent_at_the_mask_boundary(
        fanout in 1usize..140,
        inner in 1usize..12,
        sample_seed in 0u64..1_000,
    ) {
        let n = 400u32;
        let mut b = GraphBuilder::new(n as usize);
        for v in 0..3u32 {
            for j in 0..127 + v {
                b.add_edge(3 + (v * 31 + j) % (n - 3), v);
            }
        }
        for v in 3..n {
            b.add_edge((v * 7 + 1) % n, v);
            b.add_edge((v * 13 + 5) % n, v);
        }
        let g = b.build_directed();
        prop_assert_eq!([g.degree(0), g.degree(1), g.degree(2)], [127, 128, 129]);
        let fanouts = vec![fanout, inner];
        let sampler = BatchSampler::new(fanouts.clone());
        for seeds in [vec![0, 1, 2], vec![2, 7, 1, 0]] {
            assert_same_batch(
                &sampler.sample(&g, &seeds, sample_seed),
                &parent::sample(&fanouts, &g, &seeds, sample_seed),
            );
            assert_same_batch(
                &sampler.sample_isolated(&g, &seeds, sample_seed),
                &parent::sample_isolated(&fanouts, &g, &seeds, sample_seed),
            );
        }
    }
}
