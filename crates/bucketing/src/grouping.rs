//! *MemBalancedGrouping* (Algorithm 4): greedy load-balanced bin packing
//! of buckets into `K` memory-balanced bucket groups.

use crate::bucket::DegreeBucket;
use buffalo_memsim::estimate::{self, BucketStats, ClosureCounts};
use buffalo_memsim::GnnShape;

/// A bucket plus its precomputed statistics and per-bucket memory estimate
/// — one "item" of the bin-packing formulation (weight = value = estimated
/// memory, §IV-C2).
#[derive(Debug, Clone)]
pub struct BucketEntry {
    /// The bucket itself.
    pub bucket: DegreeBucket,
    /// `I`/`O`/`D` statistics for Eq. 1.
    pub stats: BucketStats,
    /// *BucketMemEstimator* output for this bucket, bytes.
    pub mem_estimate: u64,
}

impl BucketEntry {
    /// The entry of `bucket`, whose micro-batch has the closure `counts`
    /// under `shape`: `I` is the output layer's source count, and the
    /// estimate leaves out the model's parameters, which every group pays
    /// once (the `fixed_bytes` of [`mem_balanced_grouping`]).
    pub fn new(bucket: DegreeBucket, counts: &ClosureCounts, shape: &GnnShape) -> Self {
        BucketEntry {
            stats: BucketStats {
                degree: bucket.degree,
                num_output: bucket.volume(),
                num_input: counts.output_layer_inputs(),
            },
            mem_estimate: estimate::mem_from_counts(counts, shape)
                .saturating_sub(shape.parameter_bytes()),
            bucket,
        }
    }
}

/// Result of a grouping attempt.
#[derive(Debug, Clone)]
pub struct GroupingOutcome {
    /// The `K` bucket groups (indices into the input entry slice).
    pub groups: Vec<Vec<usize>>,
    /// Redundancy-aware memory estimate per group, bytes.
    pub group_estimates: Vec<u64>,
    /// Whether every group fits the memory constraint.
    pub success: bool,
}

impl GroupingOutcome {
    /// Largest relative imbalance between group estimates:
    /// `(max - min) / max`. Zero for `K = 1` or empty groups.
    pub fn imbalance(&self) -> f64 {
        let max = self.group_estimates.iter().copied().max().unwrap_or(0);
        let min = self.group_estimates.iter().copied().min().unwrap_or(0);
        if max == 0 {
            0.0
        } else {
            (max - min) as f64 / max as f64
        }
    }
}

/// Algorithm 4: greedily packs `entries` into `k` groups.
///
/// Buckets are sorted by per-bucket memory estimate descending; each is
/// placed into the group with the lowest current redundancy-aware
/// estimate. After placement, every group's estimate is validated against
/// `mem_constraint`; `success` is false if any group exceeds it (the
/// scheduler then retries with a larger `k`).
///
/// `clustering` is the graph's average clustering coefficient `C`.
/// `fixed_bytes` is the per-micro-batch constant cost — parameters,
/// gradients, optimizer state — which every group pays exactly once, so
/// entry estimates must *exclude* it (otherwise a group of `n` buckets
/// would be charged for `n` copies of the model).
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn mem_balanced_grouping(
    entries: &[BucketEntry],
    k: usize,
    mem_constraint: u64,
    clustering: f64,
    fixed_bytes: u64,
) -> GroupingOutcome {
    assert!(k > 0, "need at least one group");
    let mut order: Vec<usize> = (0..entries.len()).collect();
    // Descending by estimated memory (Algorithm 4 line 3); tie-break on
    // index for determinism.
    order.sort_by(|&a, &b| {
        entries[b]
            .mem_estimate
            .cmp(&entries[a].mem_estimate)
            .then(a.cmp(&b))
    });
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); k];
    // Incremental group estimates: Eq. 2 is a discounted sum, so adding a
    // bucket adds `m_est * R_group` — maintain running totals. The first
    // bucket of a group is undiscounted: the grouping ratio models
    // redundancy with buckets *already in the group*, and a lone bucket's
    // estimate is already exact.
    let mut estimates: Vec<u64> = vec![0; k];
    for idx in order {
        // Place into the currently-lightest group (Algorithm 4 line 7).
        let (gi, _) = estimates
            .iter()
            .enumerate()
            .min_by_key(|&(i, &e)| (e, i))
            // lint:allow(panic-reachability): infallible — `estimates` has length k and schedule_impl validates k >= 1 before grouping (suppresses chain: BuffaloScheduler::schedule_impl → mem_balanced_grouping → .expect())
            .expect("k >= 1");
        let contribution = if groups[gi].is_empty() {
            entries[idx].mem_estimate
        } else {
            (entries[idx].mem_estimate as f64
                * estimate::grouping_ratio(&entries[idx].stats, clustering)) as u64
        };
        groups[gi].push(idx);
        estimates[gi] += contribution;
    }
    for (e, g) in estimates.iter_mut().zip(&groups) {
        if !g.is_empty() {
            *e += fixed_bytes;
        }
    }
    let success = estimates.iter().all(|&e| e <= mem_constraint);
    GroupingOutcome {
        groups,
        group_estimates: estimates,
        success,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffalo_graph::NodeId;
    use proptest::prelude::*;

    fn entry(mem: u64, volume: usize) -> BucketEntry {
        BucketEntry {
            bucket: DegreeBucket {
                degree: 5,
                nodes: (0..volume as NodeId).collect(),
                split_index: None,
            },
            // num_input >= O*D so the grouping ratio is 1 and estimates
            // add linearly — easier to reason about in unit tests.
            stats: BucketStats {
                degree: 5,
                num_output: volume,
                num_input: volume * 50,
            },
            mem_estimate: mem,
        }
    }

    #[test]
    fn single_group_takes_everything() {
        let entries = vec![entry(10, 1), entry(20, 2), entry(30, 3)];
        let out = mem_balanced_grouping(&entries, 1, 100, 0.5, 0);
        assert!(out.success);
        assert_eq!(out.groups[0].len(), 3);
        assert_eq!(out.group_estimates[0], 60);
    }

    #[test]
    fn fails_when_constraint_violated() {
        let entries = vec![entry(80, 1), entry(70, 1)];
        let out = mem_balanced_grouping(&entries, 1, 100, 0.5, 0);
        assert!(!out.success);
    }

    #[test]
    fn balances_across_groups() {
        // Sizes 8,7,6,5: greedy descending into 2 bins -> {8,5} vs {7,6}.
        let entries = vec![entry(8, 1), entry(7, 1), entry(6, 1), entry(5, 1)];
        let out = mem_balanced_grouping(&entries, 2, 100, 0.5, 0);
        assert!(out.success);
        let mut est = out.group_estimates.clone();
        est.sort_unstable();
        assert_eq!(est, vec![13, 13]);
        assert!(out.imbalance() < 0.2);
    }

    #[test]
    fn largest_bucket_placed_first() {
        let entries = vec![entry(1, 1), entry(100, 1)];
        let out = mem_balanced_grouping(&entries, 2, 1000, 0.5, 0);
        // The 100-byte bucket must be alone in its group.
        let g_of_big = out.groups.iter().position(|g| g.contains(&1)).unwrap();
        assert_eq!(out.groups[g_of_big], vec![1]);
    }

    #[test]
    fn redundant_buckets_are_discounted() {
        // I << O*D*C -> ratio < 1 -> later buckets in a group contribute
        // below their standalone estimate; the first is exact.
        let redundant = |mem: u64| BucketEntry {
            bucket: DegreeBucket {
                degree: 10,
                nodes: (0..100).collect(),
                split_index: None,
            },
            stats: BucketStats {
                degree: 10,
                num_output: 100,
                num_input: 200,
            },
            mem_estimate: mem,
        };
        let lone = mem_balanced_grouping(&[redundant(1_000)], 1, u64::MAX, 0.5, 0);
        assert_eq!(
            lone.group_estimates[0], 1_000,
            "a lone bucket's exact estimate must not be discounted"
        );
        let pair = mem_balanced_grouping(&[redundant(1_000), redundant(900)], 1, u64::MAX, 0.5, 0);
        // First placed exact (1000); second discounted: R = 200/(100*10*0.5) = 0.4.
        assert_eq!(pair.group_estimates[0], 1_000 + 360);
    }

    #[test]
    fn deterministic_given_ties() {
        let entries = vec![entry(5, 1), entry(5, 1), entry(5, 1)];
        let a = mem_balanced_grouping(&entries, 2, 100, 0.5, 0);
        let b = mem_balanced_grouping(&entries, 2, 100, 0.5, 0);
        assert_eq!(a.groups, b.groups);
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn zero_groups_rejected() {
        let _ = mem_balanced_grouping(&[], 0, 100, 0.5, 0);
    }

    #[test]
    fn empty_entries_succeed_trivially() {
        let out = mem_balanced_grouping(&[], 3, 10, 0.5, 0);
        assert!(out.success);
        assert_eq!(out.groups.len(), 3);
        assert_eq!(out.imbalance(), 0.0);
    }

    proptest! {
        /// Every bucket lands in exactly one group.
        #[test]
        fn grouping_is_a_partition(mems in proptest::collection::vec(1u64..1000, 0..40), k in 1usize..8) {
            let entries: Vec<BucketEntry> = mems.iter().map(|&m| entry(m, 1)).collect();
            let out = mem_balanced_grouping(&entries, k, u64::MAX, 0.3, 0);
            let mut seen: Vec<usize> = out.groups.iter().flatten().copied().collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..entries.len()).collect::<Vec<_>>());
        }

        /// Greedy bound: max group <= mean + max item (classic LPT-style bound).
        #[test]
        fn greedy_is_near_balanced(mems in proptest::collection::vec(1u64..1000, 1..40), k in 1usize..6) {
            let entries: Vec<BucketEntry> = mems.iter().map(|&m| entry(m, 1)).collect();
            let out = mem_balanced_grouping(&entries, k, u64::MAX, 0.3, 0);
            let total: u64 = out.group_estimates.iter().sum();
            let max_item: u64 = entries.iter().map(|e| e.mem_estimate).max().unwrap();
            let max_group: u64 = out.group_estimates.iter().copied().max().unwrap();
            prop_assert!(max_group <= total / k as u64 + max_item);
        }
    }
}
