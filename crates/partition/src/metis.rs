//! Multilevel k-way graph partitioning in the style of METIS.
//!
//! Three phases, as in the METIS papers the GNN systems rely on:
//!
//! 1. **Coarsening** — repeated heavy-edge matching collapses matched node
//!    pairs into super-nodes (accumulating node and edge weights) until
//!    the graph is small or matching stalls.
//! 2. **Initial partitioning** — greedy growth: super-nodes are assigned
//!    in descending weight order to the lightest compatible part,
//!    preferring the part with the strongest connection.
//! 3. **Uncoarsening + refinement** — the partition is projected back
//!    level by level; at each level a bounded boundary
//!    Fiduccia–Mattheyses pass moves nodes to reduce the edge cut while
//!    keeping parts within the balance tolerance.
//!
//! This deliberate, faithful implementation is what makes the paper's
//! "partitioning is slow relative to bucket scheduling" comparison honest
//! (Figures 5 and 11): its cost is dominated by the repeated node
//! dependency analysis Buffalo avoids.

use buffalo_graph::{CsrGraph, NodeId};

/// Coarsening stops when the graph has at most `COARSEN_TO × k` nodes.
const COARSEN_TO: usize = 30;
/// Allowed imbalance: a part may weigh up to `(1 + EPSILON) × ideal`.
const EPSILON: f64 = 0.1;
/// Boundary refinement passes per uncoarsening level.
const REFINE_PASSES: usize = 4;
/// RNG seed for matching tie-breaks.
const SEED: u64 = 1;

/// Internal weighted graph used across coarsening levels.
#[derive(Debug, Clone)]
struct WGraph {
    offsets: Vec<usize>,
    neighbors: Vec<NodeId>,
    eweights: Vec<u64>,
    nweights: Vec<u64>,
}

impl WGraph {
    fn from_csr(g: &CsrGraph) -> Self {
        WGraph {
            offsets: g.offsets().to_vec(),
            neighbors: g.neighbor_array().to_vec(),
            eweights: vec![1; g.num_edges()],
            nweights: vec![1; g.num_nodes()],
        }
    }

    fn num_nodes(&self) -> usize {
        self.nweights.len()
    }

    fn row(&self, v: NodeId) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        let (s, e) = (self.offsets[v as usize], self.offsets[v as usize + 1]);
        self.neighbors[s..e]
            .iter()
            .copied()
            .zip(self.eweights[s..e].iter().copied())
    }

    fn total_weight(&self) -> u64 {
        self.nweights.iter().sum()
    }
}

/// Partitions `g` into `k` parts, returning the part id of every node.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn metis_kway(g: &CsrGraph, k: usize) -> Vec<u32> {
    assert!(k > 0, "k must be positive");
    let n = g.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    if k == 1 {
        return vec![0; n];
    }
    if k >= n {
        return (0..n as u32).map(|v| v % k as u32).collect();
    }
    let base = WGraph::from_csr(g);
    // Coarsening: remember each level's graph and the projection map.
    let mut levels: Vec<(WGraph, Vec<NodeId>)> = Vec::new(); // (graph, map fine->coarse)
    let mut current = base;
    let target = COARSEN_TO.saturating_mul(k).max(2 * k);
    let mut rng_state = SEED.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    while current.num_nodes() > target {
        let (coarse, map) = coarsen_once(&current, &mut rng_state);
        if coarse.num_nodes() as f64 > current.num_nodes() as f64 * 0.95 {
            break; // matching stalled
        }
        let prev = std::mem::replace(&mut current, coarse);
        levels.push((prev, map));
    }
    // Initial partition on the coarsest graph.
    let mut parts = initial_partition(&current, k);
    refine(&current, &mut parts, k);
    // Uncoarsen with refinement at every level.
    while let Some((fine, map)) = levels.pop() {
        let mut fine_parts = vec![0u32; fine.num_nodes()];
        for (v, p) in fine_parts.iter_mut().enumerate() {
            *p = parts[map[v] as usize];
        }
        refine(&fine, &mut fine_parts, k);
        parts = fine_parts;
    }
    parts
}

/// Weight of edges crossing parts (each undirected edge counted once).
pub fn edge_cut(g: &CsrGraph, parts: &[u32]) -> u64 {
    assert_eq!(parts.len(), g.num_nodes(), "parts length mismatch");
    let mut cut = 0u64;
    for v in g.node_ids() {
        for &u in g.neighbors(v) {
            if u > v && parts[u as usize] != parts[v as usize] {
                cut += 1;
            }
        }
    }
    cut
}

fn next_rand(state: &mut u64) -> u64 {
    // xorshift64*
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// One round of heavy-edge matching. Returns the coarse graph and the
/// fine→coarse projection.
fn coarsen_once(g: &WGraph, rng_state: &mut u64) -> (WGraph, Vec<NodeId>) {
    let n = g.num_nodes();
    let mut matched: Vec<NodeId> = vec![NodeId::MAX; n];
    // Random visitation order breaks adversarial structure.
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    for i in (1..n).rev() {
        let j = (next_rand(rng_state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    for &v in &order {
        if matched[v as usize] != NodeId::MAX {
            continue;
        }
        // Heaviest incident edge to an unmatched neighbor.
        let mut best: Option<(NodeId, u64)> = None;
        for (u, w) in g.row(v) {
            if u != v && matched[u as usize] == NodeId::MAX && best.is_none_or(|(_, bw)| w > bw) {
                best = Some((u, w));
            }
        }
        match best {
            Some((u, _)) => {
                matched[v as usize] = u;
                matched[u as usize] = v;
            }
            None => matched[v as usize] = v, // singleton
        }
    }
    // Assign coarse ids.
    let mut map: Vec<NodeId> = vec![NodeId::MAX; n];
    let mut next = 0 as NodeId;
    for v in 0..n as NodeId {
        if map[v as usize] != NodeId::MAX {
            continue;
        }
        map[v as usize] = next;
        let m = matched[v as usize];
        if m != v && m != NodeId::MAX {
            map[m as usize] = next;
        }
        next += 1;
    }
    let cn = next as usize;
    // Build coarse adjacency by accumulating weights.
    let mut nweights = vec![0u64; cn];
    for v in 0..n {
        nweights[map[v] as usize] += g.nweights[v];
    }
    // Aggregate edges with a per-row hash-free accumulator.
    let mut agg: Vec<(NodeId, u64)> = Vec::new();
    let mut offsets = vec![0usize; cn + 1];
    let mut adj_lists: Vec<Vec<(NodeId, u64)>> = vec![Vec::new(); cn];
    for v in 0..n as NodeId {
        let cv = map[v as usize];
        for (u, w) in g.row(v) {
            let cu = map[u as usize];
            if cu != cv {
                adj_lists[cv as usize].push((cu, w));
            }
        }
    }
    let mut neighbors = Vec::new();
    let mut eweights = Vec::new();
    for (cv, list) in adj_lists.iter_mut().enumerate() {
        list.sort_unstable_by_key(|&(u, _)| u);
        agg.clear();
        for &(u, w) in list.iter() {
            match agg.last_mut() {
                Some((lu, lw)) if *lu == u => *lw += w,
                _ => agg.push((u, w)),
            }
        }
        for &(u, w) in &agg {
            neighbors.push(u);
            eweights.push(w);
        }
        offsets[cv + 1] = neighbors.len();
    }
    (
        WGraph {
            offsets,
            neighbors,
            eweights,
            nweights,
        },
        map,
    )
}

/// Greedy initial partition: descending node weight, into the lightest
/// part (preferring the most-connected part among those under the cap).
fn initial_partition(g: &WGraph, k: usize) -> Vec<u32> {
    let n = g.num_nodes();
    let total = g.total_weight();
    let cap = ((total as f64 / k as f64) * (1.0 + EPSILON)).ceil() as u64;
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(g.nweights[v as usize]));
    let mut parts = vec![u32::MAX; n];
    let mut loads = vec![0u64; k];
    let mut conn = vec![0u64; k];
    for &v in &order {
        for c in conn.iter_mut() {
            *c = 0;
        }
        for (u, w) in g.row(v) {
            let p = parts[u as usize];
            if p != u32::MAX {
                conn[p as usize] += w;
            }
        }
        // Best: under cap, maximize connectivity, tie-break lightest.
        let mut best: Option<usize> = None;
        for p in 0..k {
            if loads[p] + g.nweights[v as usize] > cap {
                continue;
            }
            best = match best {
                None => Some(p),
                Some(b) => {
                    if (conn[p], std::cmp::Reverse(loads[p]))
                        > (conn[b], std::cmp::Reverse(loads[b]))
                    {
                        Some(p)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        let p = best.unwrap_or_else(|| {
            // Everything over cap (possible with huge super-nodes): lightest.
            (0..k).min_by_key(|&p| loads[p]).unwrap()
        });
        parts[v as usize] = p as u32;
        loads[p] += g.nweights[v as usize];
    }
    parts
}

/// Bounded boundary FM refinement: repeatedly move boundary nodes to the
/// neighboring part with the largest positive gain, respecting balance.
fn refine(g: &WGraph, parts: &mut [u32], k: usize) {
    let total = g.total_weight();
    let cap = ((total as f64 / k as f64) * (1.0 + EPSILON)).ceil() as u64;
    let mut loads = vec![0u64; k];
    for v in 0..g.num_nodes() {
        loads[parts[v] as usize] += g.nweights[v];
    }
    let mut conn = vec![0u64; k];
    for _ in 0..REFINE_PASSES {
        let mut moved = false;
        for v in 0..g.num_nodes() as NodeId {
            let home = parts[v as usize] as usize;
            for c in conn.iter_mut() {
                *c = 0;
            }
            let mut boundary = false;
            for (u, w) in g.row(v) {
                let p = parts[u as usize] as usize;
                conn[p] += w;
                if p != home {
                    boundary = true;
                }
            }
            if !boundary {
                continue;
            }
            let w_v = g.nweights[v as usize];
            let mut best_gain = 0i64;
            let mut best_part = home;
            for p in 0..k {
                if p == home || loads[p] + w_v > cap {
                    continue;
                }
                let gain = conn[p] as i64 - conn[home] as i64;
                if gain > best_gain {
                    best_gain = gain;
                    best_part = p;
                }
            }
            if best_part != home {
                parts[v as usize] = best_part as u32;
                loads[home] -= w_v;
                loads[best_part] += w_v;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffalo_graph::{generators, GraphBuilder};

    /// Two dense cliques joined by one edge — the obvious 2-way partition.
    fn two_cliques(size: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(2 * size);
        for i in 0..size as NodeId {
            for j in 0..i {
                b.add_edge(i, j);
                b.add_edge(i + size as NodeId, j + size as NodeId);
            }
        }
        b.add_edge(0, size as NodeId);
        b.build_undirected()
    }

    #[test]
    fn separates_two_cliques() {
        let g = two_cliques(20);
        let parts = metis_kway(&g, 2);
        assert_eq!(edge_cut(&g, &parts), 1, "only the bridge should be cut");
        // Each clique entirely in one part.
        for i in 1..20u32 {
            assert_eq!(parts[0], parts[i as usize]);
            assert_eq!(parts[20], parts[20 + i as usize]);
        }
        assert_ne!(parts[0], parts[20]);
    }

    #[test]
    fn respects_balance_tolerance() {
        let g = generators::barabasi_albert(2_000, 5, 0.3, 7).unwrap();
        let k = 4;
        let parts = metis_kway(&g, k);
        let mut sizes = vec![0usize; k];
        for &p in &parts {
            sizes[p as usize] += 1;
        }
        let cap = (2_000f64 / k as f64 * 1.15).ceil() as usize;
        for (p, &s) in sizes.iter().enumerate() {
            assert!(s <= cap, "part {p} has {s} nodes (cap {cap})");
            assert!(s > 0, "part {p} is empty");
        }
    }

    #[test]
    fn cut_is_much_better_than_random() {
        let g = generators::watts_strogatz(3_000, 10, 0.05, 5).unwrap();
        let parts = metis_kway(&g, 4);
        let random: Vec<u32> = (0..3_000u32).map(|v| v % 4).collect();
        let metis_cut = edge_cut(&g, &parts);
        let random_cut = edge_cut(&g, &random);
        assert!(
            (metis_cut as f64) < 0.4 * random_cut as f64,
            "metis {metis_cut} vs random {random_cut}"
        );
    }

    #[test]
    fn k_equals_one_is_trivial() {
        let g = two_cliques(5);
        let parts = metis_kway(&g, 1);
        assert!(parts.iter().all(|&p| p == 0));
    }

    #[test]
    fn k_at_least_n_round_robins() {
        let g = two_cliques(2);
        let parts = metis_kway(&g, 10);
        assert_eq!(parts.len(), 4);
        assert!(parts.iter().all(|&p| p < 10));
    }

    #[test]
    fn empty_graph_yields_empty_parts() {
        let g = CsrGraph::empty(0);
        assert!(metis_kway(&g, 3).is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::barabasi_albert(1_000, 4, 0.2, 3).unwrap();
        let a = metis_kway(&g, 3);
        let b = metis_kway(&g, 3);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn rejects_zero_k() {
        let g = two_cliques(3);
        let _ = metis_kway(&g, 0);
    }

    #[test]
    fn edge_cut_counts_undirected_once() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        let g = b.build_undirected();
        assert_eq!(edge_cut(&g, &[0, 1]), 1);
        assert_eq!(edge_cut(&g, &[0, 0]), 0);
    }
}
