//! Degree buckets: construction, explosion detection, and splitting.

use buffalo_graph::{CsrGraph, NodeId};

/// A degree bucket at the output layer: the seed (output) nodes sharing a
/// sampled in-degree, or — for the cut-off bucket — all seeds with degree
/// `>= F`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegreeBucket {
    /// The degree label. For the cut-off bucket this is `F` even though
    /// member degrees may exceed it; for micro-buckets produced by
    /// splitting it stays the parent's label.
    pub degree: usize,
    /// Batch-local seed ids in this bucket.
    pub nodes: Vec<NodeId>,
    /// `Some(i)` when this bucket is the `i`-th micro-bucket of a split
    /// explosion bucket; `None` for ordinary buckets.
    pub split_index: Option<usize>,
}

impl DegreeBucket {
    /// Number of output nodes (the paper's *bucket volume*).
    pub fn volume(&self) -> usize {
        self.nodes.len()
    }
}

/// Classic degree bucketing with cut-off `F` (§II-C).
///
/// Buckets the first `num_seeds` local ids of `batch` by their sampled
/// in-degree. Returns buckets ordered by degree `1, 2, …, F`; empty degrees
/// are omitted. Nodes with degree 0 (no sampled neighbors) are placed in a
/// degree-0 bucket so no output node is lost — this is the case Betty
/// cannot handle on OGBN-papers ("cannot process nodes with zero
/// in-edges", §V-B).
///
/// # Panics
///
/// Panics if `cutoff == 0` or `num_seeds > batch.num_nodes()`.
pub fn degree_bucketing(batch: &CsrGraph, num_seeds: usize, cutoff: usize) -> Vec<DegreeBucket> {
    assert!(
        num_seeds <= batch.num_nodes(),
        "num_seeds exceeds batch size"
    );
    let seeds: Vec<NodeId> = (0..num_seeds as NodeId).collect();
    degree_bucketing_of(batch, &seeds, cutoff)
}

/// [`degree_bucketing`] over an arbitrary seed subset instead of the
/// `0..num_seeds` prefix. Used by recovery re-splitting, which re-buckets
/// just the seeds of one offending group.
///
/// # Panics
///
/// Panics if `cutoff == 0` or any seed id is out of range for `batch`.
pub(crate) fn degree_bucketing_of(
    batch: &CsrGraph,
    seeds: &[NodeId],
    cutoff: usize,
) -> Vec<DegreeBucket> {
    assert!(cutoff > 0, "cut-off degree must be positive");
    let mut by_degree: Vec<Vec<NodeId>> = vec![Vec::new(); cutoff + 1];
    for &v in seeds {
        let d = batch.degree(v).min(cutoff);
        by_degree[d].push(v);
    }
    by_degree
        .into_iter()
        .enumerate()
        .filter(|(_, nodes)| !nodes.is_empty())
        .map(|(degree, nodes)| DegreeBucket {
            degree,
            nodes,
            split_index: None,
        })
        .collect()
}

/// Detects bucket explosion (Algorithm 3, line 4): returns the index of
/// the largest bucket when its volume exceeds `factor ×` the mean volume
/// of the *other* buckets. A lone bucket holding more than one node is the
/// extreme explosion (every output hit the fanout cap) and is always
/// flagged. With the paper's long-tail degree distributions the flagged
/// bucket is the cut-off bucket; the detector is generic anyway.
pub fn detect_explosion(buckets: &[DegreeBucket], factor: f64) -> Option<usize> {
    let (idx, largest) = buckets.iter().enumerate().max_by_key(|(_, b)| b.volume())?;
    if buckets.len() == 1 {
        return (largest.volume() > 1).then_some(idx);
    }
    let total: usize = buckets.iter().map(DegreeBucket::volume).sum();
    let rest_mean = (total - largest.volume()) as f64 / (buckets.len() - 1) as f64;
    (largest.volume() as f64 > factor * rest_mean).then_some(idx)
}

/// *SplitExplosionBucket* (Algorithm 3, line 5): evenly splits `bucket`
/// into `k` micro-buckets with output-node counts differing by at most 1.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn split_explosion_bucket(bucket: &DegreeBucket, k: usize) -> Vec<DegreeBucket> {
    assert!(k > 0, "cannot split into zero micro-buckets");
    let k = k.min(bucket.volume().max(1));
    let n = bucket.volume();
    let base = n / k;
    let extra = n % k;
    let mut out = Vec::with_capacity(k);
    let mut start = 0usize;
    for i in 0..k {
        let len = base + usize::from(i < extra);
        out.push(DegreeBucket {
            degree: bucket.degree,
            nodes: bucket.nodes[start..start + len].to_vec(),
            split_index: Some(i),
        });
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffalo_graph::GraphBuilder;
    use proptest::prelude::*;

    /// Batch where seed degrees are 0,1,2,3,3,5 (local ids 0..6, sources 6..).
    fn degree_ladder() -> CsrGraph {
        let mut b = GraphBuilder::new(20);
        let mut src = 6u32;
        for (seed, deg) in [(0u32, 0usize), (1, 1), (2, 2), (3, 3), (4, 3), (5, 5)] {
            for _ in 0..deg {
                b.add_edge(src, seed);
                src += 1;
            }
        }
        b.build_directed()
    }

    #[test]
    fn buckets_group_by_degree_with_cutoff() {
        let g = degree_ladder();
        let buckets = degree_bucketing(&g, 6, 3);
        // degrees: 0,1,2 individual; 3+ cut off into degree-3 bucket.
        let degrees: Vec<usize> = buckets.iter().map(|b| b.degree).collect();
        assert_eq!(degrees, vec![0, 1, 2, 3]);
        let cut = buckets.last().unwrap();
        assert_eq!(cut.volume(), 3); // seeds 3, 4 (deg 3) and 5 (deg 5)
        assert!(cut.nodes.contains(&5));
    }

    #[test]
    fn all_seeds_covered_exactly_once() {
        let g = degree_ladder();
        let buckets = degree_bucketing(&g, 6, 4);
        let mut all: Vec<NodeId> = buckets.iter().flat_map(|b| b.nodes.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn zero_degree_nodes_get_their_own_bucket() {
        let g = degree_ladder();
        let buckets = degree_bucketing(&g, 6, 3);
        assert_eq!(buckets[0].degree, 0);
        assert_eq!(buckets[0].nodes, vec![0]);
    }

    #[test]
    fn bucketing_of_subset_matches_prefix_bucketing() {
        let g = degree_ladder();
        // Subset {1, 3, 5}: degrees 1, 3, 5 → cutoff 3 merges 3 and 5.
        let buckets = degree_bucketing_of(&g, &[1, 3, 5], 3);
        let as_map: Vec<(usize, Vec<NodeId>)> = buckets
            .iter()
            .map(|b| (b.degree, b.nodes.clone()))
            .collect();
        assert_eq!(as_map, vec![(1, vec![1]), (3, vec![3, 5])]);
        // The full prefix agrees with the classic entry point.
        let all: Vec<NodeId> = (0..6).collect();
        assert_eq!(degree_bucketing_of(&g, &all, 3), degree_bucketing(&g, 6, 3));
    }

    #[test]
    fn explosion_detected_on_skew() {
        let buckets = vec![
            DegreeBucket {
                degree: 1,
                nodes: vec![0, 1],
                split_index: None,
            },
            DegreeBucket {
                degree: 2,
                nodes: vec![2, 3],
                split_index: None,
            },
            DegreeBucket {
                degree: 10,
                nodes: (4..104).collect(),
                split_index: None,
            },
        ];
        assert_eq!(detect_explosion(&buckets, 2.0), Some(2));
    }

    #[test]
    fn no_explosion_when_balanced() {
        let buckets: Vec<DegreeBucket> = (0..5)
            .map(|d| DegreeBucket {
                degree: d,
                nodes: vec![d as NodeId * 2, d as NodeId * 2 + 1],
                split_index: None,
            })
            .collect();
        assert_eq!(detect_explosion(&buckets, 2.0), None);
    }

    #[test]
    fn single_large_bucket_is_the_extreme_explosion() {
        // All outputs hit the fanout cap (one bucket): must be flagged so
        // the scheduler can split it.
        let buckets = vec![DegreeBucket {
            degree: 10,
            nodes: (0..1000).collect(),
            split_index: None,
        }];
        assert_eq!(detect_explosion(&buckets, 2.0), Some(0));
        // But a single singleton bucket cannot be split further.
        let tiny = vec![DegreeBucket {
            degree: 1,
            nodes: vec![0],
            split_index: None,
        }];
        assert_eq!(detect_explosion(&tiny, 2.0), None);
    }

    #[test]
    fn split_is_even_and_complete() {
        let bucket = DegreeBucket {
            degree: 10,
            nodes: (0..10).collect(),
            split_index: None,
        };
        let micro = split_explosion_bucket(&bucket, 3);
        assert_eq!(micro.len(), 3);
        let sizes: Vec<usize> = micro.iter().map(DegreeBucket::volume).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        let mut all: Vec<NodeId> = micro.iter().flat_map(|m| m.nodes.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        for (i, m) in micro.iter().enumerate() {
            assert_eq!(m.split_index, Some(i));
            assert_eq!(m.degree, 10);
        }
    }

    #[test]
    fn split_caps_at_volume() {
        let bucket = DegreeBucket {
            degree: 4,
            nodes: vec![1, 2],
            split_index: None,
        };
        let micro = split_explosion_bucket(&bucket, 10);
        assert_eq!(micro.len(), 2);
    }

    #[test]
    fn reproduces_the_papers_figure_3_example() {
        // Figure 3: twelve nodes whose degrees are
        //   {1: {9}, 2: {0,1,3,6,7,10}, 3: {11}, 4: {4,8}, 5: {2,5}}
        // bucketed with cut-off F = 4: degrees 1-3 get their own buckets,
        // degrees 4 and 5 share the cut-off bucket.
        let degree_of = [2usize, 2, 5, 2, 4, 5, 2, 2, 4, 1, 2, 3];
        let mut b = GraphBuilder::new(12 + degree_of.iter().sum::<usize>());
        let mut src = 12u32;
        for (node, &d) in degree_of.iter().enumerate() {
            for _ in 0..d {
                b.add_edge(src, node as NodeId);
                src += 1;
            }
        }
        let g = b.build_directed();
        let buckets = degree_bucketing(&g, 12, 4);
        let as_map: Vec<(usize, Vec<NodeId>)> = buckets
            .iter()
            .map(|bk| (bk.degree, bk.nodes.clone()))
            .collect();
        assert_eq!(
            as_map,
            vec![
                (1, vec![9]),
                (2, vec![0, 1, 3, 6, 7, 10]),
                (3, vec![11]),
                (4, vec![2, 4, 5, 8]), // degree-4 and degree-5 nodes merged
            ]
        );
        // Figure 7 partitions these into two bucket groups covering all
        // twelve output nodes; any 2-grouping of the buckets does.
        let total: usize = buckets.iter().map(DegreeBucket::volume).sum();
        assert_eq!(total, 12);
    }

    proptest! {
        /// Splitting preserves nodes and balances sizes within 1.
        #[test]
        fn split_properties(n in 1usize..500, k in 1usize..20) {
            let bucket = DegreeBucket {
                degree: 7,
                nodes: (0..n as NodeId).collect(),
                split_index: None,
            };
            let micro = split_explosion_bucket(&bucket, k);
            let total: usize = micro.iter().map(DegreeBucket::volume).sum();
            prop_assert_eq!(total, n);
            let min = micro.iter().map(DegreeBucket::volume).min().unwrap();
            let max = micro.iter().map(DegreeBucket::volume).max().unwrap();
            prop_assert!(max - min <= 1);
        }

        /// Bucketing covers all seeds exactly once for any cutoff.
        #[test]
        fn bucketing_is_a_partition(cutoff in 1usize..12) {
            let g = degree_ladder();
            let buckets = degree_bucketing(&g, 6, cutoff);
            let mut all: Vec<NodeId> = buckets.iter().flat_map(|b| b.nodes.clone()).collect();
            all.sort_unstable();
            prop_assert_eq!(all, (0..6).collect::<Vec<NodeId>>());
        }
    }
}
