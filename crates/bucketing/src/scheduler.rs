//! The Buffalo Scheduler (Algorithm 3).

use crate::bucket::{degree_bucketing_of, detect_explosion, split_explosion_bucket, DegreeBucket};
use crate::closure::{closure_counts, ClosureScratch, ReachSets};
use crate::grouping::{mem_balanced_grouping, BucketEntry};
use buffalo_graph::{CsrGraph, NodeId};
use buffalo_memsim::estimate::mem_from_counts;
use buffalo_memsim::GnnShape;
use std::fmt;
use std::time::{Duration, Instant};

/// Maximum number of bucket groups to try before giving up (Algorithm
/// 3's `K_max`).
const K_MAX: usize = 256;

/// Explosion detection threshold: a bucket explodes when its volume
/// exceeds this many times the mean volume of the other buckets.
const EXPLOSION_FACTOR: f64 = 2.0;

/// A scheduling result: `K` bucket groups, each a list of output-node
/// (seed) local ids forming one micro-batch.
#[derive(Debug, Clone)]
pub struct SchedulePlan {
    /// Seed local ids per micro-batch.
    pub groups: Vec<Vec<NodeId>>,
    /// Redundancy-aware memory estimate per group, bytes. Report-only:
    /// execution allocates each group's exact memory and never reads it.
    pub group_estimates: Vec<u64>,
    /// The `K` that satisfied the constraint.
    pub k: usize,
    /// Whether the explosion bucket was split.
    pub split_explosion: bool,
    /// Wall-clock time the scheduler spent (the "Buffalo scheduling"
    /// component of Figure 11).
    pub scheduling_time: Duration,
}

impl SchedulePlan {
    /// Largest relative imbalance between group estimates (Figure 14).
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

/// Scheduling failure: no `K ≤ K_max` satisfied the memory constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleError {
    /// The constraint that could not be met, bytes.
    pub mem_constraint: u64,
    /// The `K_max` that was exhausted.
    pub k_max: usize,
    /// Smallest group estimate seen at `K_max`, bytes — how far off the
    /// best attempt was.
    pub best_max_group: u64,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no grouping within {} bytes found up to K={} (best max group {})",
            self.mem_constraint, self.k_max, self.best_max_group
        )
    }
}

impl std::error::Error for ScheduleError {}

/// Algorithm 3: schedules the degree buckets of a sampled batch into
/// memory-balanced bucket groups.
///
/// # Examples
///
/// ```
/// use buffalo_graph::generators;
/// use buffalo_sampling::BatchSampler;
/// use buffalo_bucketing::BuffaloScheduler;
/// use buffalo_memsim::{AggregatorKind, GnnShape};
///
/// let g = generators::barabasi_albert(2_000, 8, 0.4, 1).unwrap();
/// let seeds: Vec<u32> = (0..500).collect();
/// let batch = BatchSampler::new(vec![10, 25]).sample(&g, &seeds, 2);
/// let shape = GnnShape::new(128, 128, 2, 10, AggregatorKind::Lstm);
/// let scheduler = BuffaloScheduler::new(shape, vec![10, 25], 0.3);
/// let plan = scheduler
///     .schedule(&batch.graph, batch.num_seeds, 256 << 20)
///     .unwrap();
/// assert!(plan.k >= 1);
/// assert_eq!(plan.groups.iter().map(Vec::len).sum::<usize>(), 500);
/// ```
#[derive(Debug, Clone)]
pub struct BuffaloScheduler {
    shape: GnnShape,
    fanouts: Vec<usize>,
    clustering: f64,
}

impl BuffaloScheduler {
    /// Creates a scheduler for a model `shape`, sampling `fanouts` (output
    /// layer first; `fanouts[0]` doubles as the cut-off degree `F`), and
    /// the graph's average clustering coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `fanouts.len() != shape.num_layers` or `fanouts` is empty.
    pub fn new(shape: GnnShape, fanouts: Vec<usize>, clustering: f64) -> Self {
        assert!(!fanouts.is_empty(), "need at least one fanout");
        assert_eq!(
            fanouts.len(),
            shape.num_layers,
            "fanouts must cover every layer"
        );
        BuffaloScheduler {
            shape,
            fanouts,
            clustering,
        }
    }

    /// The cut-off degree `F` (= the output-layer fanout).
    pub(crate) fn cutoff(&self) -> usize {
        self.fanouts[0]
    }

    /// Exact union-closure memory of a group of entry indices, read off
    /// the members' reach sets (`reach`, in `entries` order) without a walk.
    fn exact_group_mem(
        &self,
        batch: &CsrGraph,
        entries: &[BucketEntry],
        reach: &mut ReachSets,
        members: &[usize],
    ) -> u64 {
        if members.is_empty() {
            return 0;
        }
        let lists = members.iter().map(|&i| (i, &entries[i].bucket.nodes[..]));
        mem_from_counts(&reach.union_counts(batch, lists), &self.shape)
    }

    /// Runs Algorithm 3 over the sampled `batch` graph whose first
    /// `num_seeds` local ids are output nodes, against `mem_constraint`
    /// bytes of device memory.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] if no `K ≤ K_max` fits.
    pub fn schedule(
        &self,
        batch: &CsrGraph,
        num_seeds: usize,
        mem_constraint: u64,
    ) -> Result<SchedulePlan, ScheduleError> {
        let all_seeds: Vec<NodeId> = (0..num_seeds as NodeId).collect();
        self.schedule_impl(batch, &all_seeds, mem_constraint, 1)
    }

    /// Re-schedules just one offending group's seeds into at least two
    /// smaller groups. This is the recovery path after an execution-time
    /// OOM: the plan-time estimate admitted the group but the device
    /// refused it, so the `K = 1` fast path is skipped — keeping the group
    /// whole would reproduce the same failure.
    ///
    /// The returned groups partition `seeds` exactly, so a trainer that
    /// swaps them in for the failed micro-batch still trains every seed
    /// exactly once per iteration.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] if no `K ≤ K_max` fits.
    pub fn resplit_group(
        &self,
        batch: &CsrGraph,
        seeds: &[NodeId],
        mem_constraint: u64,
    ) -> Result<SchedulePlan, ScheduleError> {
        self.schedule_impl(batch, seeds, mem_constraint, 2)
    }

    fn schedule_impl(
        &self,
        batch: &CsrGraph,
        all_seeds: &[NodeId],
        mem_constraint: u64,
        min_k: usize,
    ) -> Result<SchedulePlan, ScheduleError> {
        // lint:allow(wallclock-taint): plan-timing telemetry; the plan itself is clock-free (suppresses chain: BuffaloScheduler::schedule_impl → Instant::now)
        let start = Instant::now();
        let base = degree_bucketing_of(batch, all_seeds, self.cutoff());
        let explosion = detect_explosion(&base, EXPLOSION_FACTOR);
        let mut scratch = ClosureScratch::default();
        let mut best_max_group = u64::MAX;
        // Fast path and lower bound: one whole-batch closure tells us both
        // whether K = 1 suffices (Algorithm 3's "treat the original
        // subgraph as the micro-batch") and the smallest K worth trying —
        // the groups cover every seed, so their exact memories sum to at
        // least the whole-batch footprint.
        let whole_counts = closure_counts(batch, all_seeds, self.shape.num_layers, &mut scratch);
        let whole_mem = mem_from_counts(&whole_counts, &self.shape);
        if min_k <= 1 && whole_mem <= mem_constraint {
            return Ok(SchedulePlan {
                groups: vec![all_seeds.to_vec()],
                group_estimates: vec![whole_mem],
                k: 1,
                split_explosion: false,
                scheduling_time: start.elapsed(),
            });
        }
        if min_k > 1 && all_seeds.len() < min_k {
            // Dead end: fewer seeds than the required group count can
            // never partition into `min_k` non-empty micro-batches — a
            // single-seed group that the device refused is irreducible.
            // Without this guard the K loop either "succeeds" with empty
            // groups (handing the refused group back whole, re-triggering
            // the same OOM) or fails identically at every K; surface the
            // structured error at once so the recovery ladder falls to its
            // next rung.
            return Err(ScheduleError {
                mem_constraint,
                k_max: K_MAX,
                best_max_group: whole_mem,
            });
        }
        // Parameters are an irreducible per-micro-batch cost; K planning
        // works in the remaining activation budget.
        let param_bytes = self.shape.parameter_bytes();
        if mem_constraint <= param_bytes {
            return Err(ScheduleError {
                mem_constraint,
                k_max: K_MAX,
                best_max_group: param_bytes,
            });
        }
        let activation_budget = mem_constraint - param_bytes;
        let k_min =
            (((whole_mem - param_bytes.min(whole_mem)) / activation_budget.max(1)) as usize).max(2);
        if k_min > K_MAX {
            // Even a perfect packing cannot satisfy the constraint within
            // K_max groups.
            return Err(ScheduleError {
                mem_constraint,
                k_max: K_MAX,
                best_max_group: whole_mem / K_MAX as u64,
            });
        }
        // Build the bucket/micro-bucket entry list once — it depends only
        // on the memory constraint, not on K. Splitting is not limited to
        // the explosion bucket (§IV-A: "partitions a bucket, *e.g.*, the
        // bucket that causes the bucket explosion problem"): any bucket
        // whose own micro-batch would overflow the device must be split
        // too. Atoms around an eighth of the budget let the greedy packer
        // even groups out to a few percent (Figure 14's 4–6 % spread).
        let mut splitter = Splitter {
            scheduler: self,
            batch,
            atom_target: (activation_budget / 8).max(1),
            scratch,
            leaves: Vec::new(),
            reach: ReachSets::default(),
            parked: ReachSets::default(),
        };
        splitter.reach.reset(batch, self.shape.num_layers);
        splitter.parked.reset(batch, self.shape.num_layers);
        for bucket in &base {
            // A lone bucket is every seed: the whole-batch walk counted it.
            let entry = if base.len() == 1 {
                BucketEntry::new(bucket.clone(), &whole_counts, &self.shape)
            } else {
                splitter.walk(bucket.clone())
            };
            splitter.settle(entry, Held::Scratch);
        }
        let (entries, mut reach) = (splitter.leaves, splitter.reach);
        // Parts keep their bucket's degree, and only parts have a split index.
        let split = entries.iter().any(|e| {
            e.bucket.split_index.is_some() && is_explosion_bucket(&base, explosion, e.bucket.degree)
        });
        let mut k = k_min;
        while k <= K_MAX {
            let outcome =
                mem_balanced_grouping(&entries, k, mem_constraint, self.clustering, param_bytes);
            let max_group = outcome.group_estimates.iter().copied().max().unwrap_or(0);
            best_max_group = best_max_group.min(max_group);
            if !outcome.success {
                // Jump K geometrically toward feasibility instead of the
                // paper's `K + 1` (an optimization that preserves the
                // result: any skipped K would have failed the same way).
                k = next_k(k, max_group, mem_constraint);
                continue;
            }
            // The Eq.-2 grouping fits: re-validate every group with its exact
            // union-closure memory, read off its leaves' reach sets (nothing
            // is walked), and retry with a larger K on violation, so a plan
            // never OOMs from estimator under-prediction.
            let mut member_groups = outcome.groups;
            let mut exact: Vec<u64> = member_groups
                .iter()
                .map(|g| self.exact_group_mem(batch, &entries, &mut reach, g))
                .collect();
            // Exact-balance refinement: Eq. 2 balances *estimates*; actual
            // union closures can still diverge because overlap varies per
            // group. Move the lightest bucket out of the heaviest group
            // while it lowers the max. This runs on the re-split recovery
            // path, so extremum selection is panic-free: `argmax_last` /
            // `argmin_first` mirror `max_by_key`/`min_by_key` tie-breaking
            // (last max, first min — plan bit-identity depends on it) and
            // return `None` only for empty slices, which the grouping never
            // produces (`k >= 1` groups).
            for _ in 0..12 {
                let (Some(hi), Some(lo)) = (argmax_last(&exact), argmin_first(&exact)) else {
                    break;
                };
                if hi == lo
                    || member_groups[hi].len() < 2
                    || exact[hi].saturating_sub(exact[lo]) < exact[hi] / 20
                {
                    break;
                }
                let lightest: Vec<u64> = member_groups[hi]
                    .iter()
                    .map(|&e| entries[e].mem_estimate)
                    .collect();
                let Some(pos) = argmin_first(&lightest) else {
                    break;
                };
                let candidate = member_groups[hi][pos];
                let mut new_hi_members = member_groups[hi].clone();
                new_hi_members.remove(pos);
                let mut new_lo_members = member_groups[lo].clone();
                new_lo_members.push(candidate);
                let new_hi = self.exact_group_mem(batch, &entries, &mut reach, &new_hi_members);
                let new_lo = self.exact_group_mem(batch, &entries, &mut reach, &new_lo_members);
                if new_hi.max(new_lo) >= exact[hi] {
                    break;
                }
                member_groups[hi] = new_hi_members;
                member_groups[lo] = new_lo_members;
                exact[hi] = new_hi;
                exact[lo] = new_lo;
            }
            let worst = exact.iter().copied().max().unwrap_or(0);
            if worst > mem_constraint {
                best_max_group = best_max_group.min(worst);
                k = next_k(k, worst, mem_constraint);
                continue;
            }
            let groups: Vec<Vec<NodeId>> = member_groups
                .iter()
                .map(|g| {
                    g.iter()
                        .flat_map(|&i| entries[i].bucket.nodes.iter().copied())
                        .collect()
                })
                .collect();
            return Ok(SchedulePlan {
                groups,
                group_estimates: outcome.group_estimates,
                k,
                split_explosion: split,
                scheduling_time: start.elapsed(),
            });
        }
        Err(ScheduleError {
            mem_constraint,
            k_max: K_MAX,
            best_max_group,
        })
    }
}

/// Splits one schedule's buckets until each fits an atom, collecting the
/// leaves in the order the K search packs them: depth-first, every part in
/// the place of the bucket it came from. Each leaf's reach set is kept in
/// `reach`, so the K search counts a group off its members' sets.
struct Splitter<'a> {
    scheduler: &'a BuffaloScheduler,
    batch: &'a CsrGraph,
    /// A bucket whose estimate exceeds this many bytes is split.
    atom_target: u64,
    scratch: ClosureScratch,
    leaves: Vec<BucketEntry>,
    /// The reach set of each leaf, in `leaves` order.
    reach: ReachSets,
    /// The reach sets of parts walked for a guess and not yet settled: a
    /// stack, since settling a part may guess again.
    parked: ReachSets,
}

/// Where the reach set of an entry being settled is held.
enum Held {
    /// In the scratch, by the walk that counted the entry.
    Scratch,
    /// In the union its parts were counted off, `parked`'s.
    Union,
    /// Parked, as set `i`.
    Parked(usize),
}

impl Splitter<'_> {
    /// The entry of `bucket`; its reach set is left in the scratch.
    fn walk(&mut self, bucket: DegreeBucket) -> BucketEntry {
        let (shape, scratch) = (&self.scheduler.shape, &mut self.scratch);
        let counts = closure_counts(self.batch, &bucket.nodes, shape.num_layers, scratch);
        BucketEntry::new(bucket, &counts, shape)
    }

    /// How many parts `entry` splits into; `None` keeps it whole.
    fn parts_of(&self, entry: &BucketEntry) -> Option<usize> {
        let volume = entry.bucket.volume();
        (entry.mem_estimate > self.atom_target && volume > 1)
            .then(|| ((entry.mem_estimate / self.atom_target) as usize + 1).clamp(2, volume))
    }

    /// Adds `entry`'s leaves, its reach set `held` there, and returns how
    /// many parts it split into (1: none).
    fn settle(&mut self, entry: BucketEntry, held: Held) -> usize {
        let Some(p) = self.parts_of(&entry) else {
            match held {
                Held::Scratch => self.reach.keep(&self.scratch.hops),
                Held::Union => self.reach.keep(&self.parked.union),
                Held::Parked(i) => self.reach.keep(self.parked.get(i)),
            }
            self.leaves.push(entry);
            return 1;
        };
        // Each part is examined in turn: closure floors shrink sub-linearly,
        // so a part may still be oversized, and likely splits as its
        // previous sibling did. Walk it as that many parts; their union is
        // its own closure (its seed list is theirs, concatenated), and if
        // it does split so, the parts' walks are already made.
        let mut guess = 1;
        for bucket in split_explosion_bucket(&entry.bucket, p) {
            if guess < 2 {
                let part = self.walk(bucket);
                guess = self.settle(part, Held::Scratch);
                continue;
            }
            let base = self.parked.len();
            let mut parts = Vec::with_capacity(guess);
            for b in split_explosion_bucket(&bucket, guess) {
                parts.push(self.walk(b));
                self.parked.keep(&self.scratch.hops);
            }
            let lists = parts.iter().enumerate();
            let lists = lists.map(|(i, part)| (base + i, &part.bucket.nodes[..]));
            let counts = self.parked.union_counts(self.batch, lists);
            let part = BucketEntry::new(bucket, &counts, &self.scheduler.shape);
            if self.parts_of(&part) == Some(parts.len()) {
                for (i, part) in parts.into_iter().enumerate() {
                    self.settle(part, Held::Parked(base + i));
                }
            } else {
                guess = self.settle(part, Held::Union);
            }
            self.parked.truncate(base);
        }
        p
    }
}

/// Index of the maximum value, taking the **last** maximum on ties —
/// exactly `Iterator::max_by_key` semantics, without its panic-prone
/// `unwrap` at the call site. `None` only when `values` is empty.
fn argmax_last(values: &[u64]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, &v) in values.iter().enumerate() {
        match best {
            Some(b) if values[b] > v => {}
            _ => best = Some(i),
        }
    }
    best
}

/// Index of the minimum value, taking the **first** minimum on ties —
/// exactly `Iterator::min_by_key` semantics. `None` only when `values`
/// is empty.
fn argmin_first(values: &[u64]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, &v) in values.iter().enumerate() {
        match best {
            Some(b) if values[b] <= v => {}
            _ => best = Some(i),
        }
    }
    best
}

/// Whether a bucket with `degree` is the flagged explosion bucket. The
/// previous sentinel encoding (`Some(position().unwrap_or(usize::MAX)) ==
/// explosion`) let a degree that is absent from `base` masquerade as the
/// index `usize::MAX`; a direct match keeps "no explosion" and "bucket not
/// found" unambiguous.
fn is_explosion_bucket(base: &[DegreeBucket], explosion: Option<usize>, degree: usize) -> bool {
    match explosion {
        Some(ex) => base[ex].degree == degree,
        None => false,
    }
}

/// Next K to try after a failure whose heaviest group measured
/// `worst` bytes against `constraint`: scale K by the violation ratio,
/// advancing at least one but at most doubling — group memory shrinks
/// sub-linearly in K when micro-batch closures saturate, so an unbounded
/// jump would overshoot straight past `K_max` on small dense graphs.
fn next_k(k: usize, worst: u64, constraint: u64) -> usize {
    let ratio = (worst as f64 / constraint.max(1) as f64).min(2.0);
    ((k as f64 * ratio).ceil() as usize).max(k + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffalo_graph::generators;
    use buffalo_memsim::AggregatorKind;
    use buffalo_sampling::BatchSampler;

    fn sample_batch() -> (buffalo_sampling::Batch, f64) {
        let g = generators::barabasi_albert(3_000, 8, 0.5, 3).unwrap();
        let c = buffalo_graph::stats::clustering_coefficient_exact(&g);
        let seeds: Vec<NodeId> = (0..800).collect();
        let batch = BatchSampler::new(vec![10, 25]).sample(&g, &seeds, 5);
        (batch, c)
    }

    fn scheduler(c: f64) -> BuffaloScheduler {
        let shape = GnnShape::new(128, 128, 2, 16, AggregatorKind::Lstm);
        BuffaloScheduler::new(shape, vec![10, 25], c)
    }

    #[test]
    fn huge_budget_yields_single_group() {
        let (batch, c) = sample_batch();
        let plan = scheduler(c)
            .schedule(&batch.graph, batch.num_seeds, u64::MAX)
            .unwrap();
        assert_eq!(plan.k, 1);
        assert_eq!(plan.groups.len(), 1);
        assert_eq!(plan.groups.iter().map(Vec::len).sum::<usize>(), 800);
        assert!(!plan.split_explosion);
    }

    #[test]
    fn tight_budget_forces_more_groups() {
        let (batch, c) = sample_batch();
        let sched = scheduler(c);
        let loose = sched
            .schedule(&batch.graph, batch.num_seeds, u64::MAX)
            .unwrap();
        // Find a budget that forces splitting: half the single-group max.
        let single = loose.group_estimates[0];
        let plan = sched
            .schedule(&batch.graph, batch.num_seeds, single / 3)
            .unwrap();
        assert!(plan.k > 1, "expected multiple groups, got K={}", plan.k);
        assert_eq!(plan.groups.iter().map(Vec::len).sum::<usize>(), 800);
        for &e in &plan.group_estimates {
            assert!(e <= single / 3);
        }
    }

    #[test]
    fn groups_partition_the_seeds() {
        let (batch, c) = sample_batch();
        let sched = scheduler(c);
        let single = sched
            .schedule(&batch.graph, batch.num_seeds, u64::MAX)
            .unwrap()
            .group_estimates[0];
        let plan = sched
            .schedule(&batch.graph, batch.num_seeds, single / 4)
            .unwrap();
        let mut all: Vec<NodeId> = plan.groups.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..800).collect::<Vec<_>>());
    }

    #[test]
    fn impossible_budget_errors() {
        let (batch, c) = sample_batch();
        let err = scheduler(c)
            .schedule(&batch.graph, batch.num_seeds, 1)
            .unwrap_err();
        assert_eq!(err.k_max, K_MAX);
        assert!(err.best_max_group > 1);
        assert!(err.to_string().contains("K=256"));
    }

    #[test]
    fn power_law_batch_triggers_explosion_split() {
        let (batch, c) = sample_batch();
        let sched = scheduler(c);
        let single = sched
            .schedule(&batch.graph, batch.num_seeds, u64::MAX)
            .unwrap()
            .group_estimates[0];
        let plan = sched
            .schedule(&batch.graph, batch.num_seeds, single / 3)
            .unwrap();
        // BA graphs pile most seeds into the cut-off bucket, so the split
        // must kick in when K > 1.
        assert!(plan.split_explosion);
    }

    #[test]
    fn balanced_groups_have_low_imbalance() {
        let (batch, c) = sample_batch();
        let sched = scheduler(c);
        let single = sched
            .schedule(&batch.graph, batch.num_seeds, u64::MAX)
            .unwrap()
            .group_estimates[0];
        let plan = sched
            .schedule(&batch.graph, batch.num_seeds, single / 4)
            .unwrap();
        assert!(
            plan.imbalance() < 0.35,
            "imbalance {} too high (estimates {:?})",
            plan.imbalance(),
            plan.group_estimates
        );
    }

    #[test]
    #[should_panic(expected = "fanouts")]
    fn rejects_fanout_shape_mismatch() {
        let shape = GnnShape::new(8, 8, 3, 2, AggregatorKind::Mean);
        let _ = BuffaloScheduler::new(shape, vec![10, 25], 0.2);
    }

    #[test]
    fn resplit_partitions_the_offending_group() {
        let (batch, c) = sample_batch();
        let sched = scheduler(c);
        let single = sched
            .schedule(&batch.graph, batch.num_seeds, u64::MAX)
            .unwrap()
            .group_estimates[0];
        let plan = sched
            .schedule(&batch.graph, batch.num_seeds, single / 3)
            .unwrap();
        // Pretend the heaviest group OOM'd at runtime: re-split it against
        // a tighter constraint.
        let worst = (0..plan.groups.len())
            .max_by_key(|&i| plan.group_estimates[i])
            .unwrap();
        let seeds = &plan.groups[worst];
        let sub = sched
            .resplit_group(&batch.graph, seeds, plan.group_estimates[worst] / 2)
            .unwrap();
        assert!(sub.k >= 2, "re-split must produce at least two groups");
        let mut all: Vec<NodeId> = sub.groups.iter().flatten().copied().collect();
        all.sort_unstable();
        let mut expected = seeds.clone();
        expected.sort_unstable();
        assert_eq!(all, expected, "re-split must partition exactly the seeds");
    }

    #[test]
    fn resplit_never_returns_the_group_whole() {
        // Even when the constraint would admit the whole group, resplit
        // skips the K = 1 fast path: the device already refused this group
        // once, so handing it back unchanged would loop forever.
        let (batch, c) = sample_batch();
        let sched = scheduler(c);
        let seeds: Vec<NodeId> = (0..100).collect();
        let sub = sched.resplit_group(&batch.graph, &seeds, u64::MAX).unwrap();
        assert!(sub.k >= 2);
        assert_eq!(sub.groups.iter().map(Vec::len).sum::<usize>(), 100);
    }

    #[test]
    fn resplit_of_an_irreducible_group_is_a_structured_error() {
        // Satellite regression: a single-seed group cannot split into the
        // two-plus groups `resplit_group` requires. This must surface as
        // an immediate `ScheduleError` — not a plan with empty groups
        // that hands the refused group back whole (re-triggering the same
        // OOM until `max_resplits` runs out), and not a futile walk of
        // every K up to K_max.
        let (batch, c) = sample_batch();
        let sched = scheduler(c);
        let seeds = vec![0 as NodeId];
        // Roomy constraint: splitting is impossible regardless of memory.
        let err = sched
            .resplit_group(&batch.graph, &seeds, u64::MAX)
            .unwrap_err();
        assert_eq!(err.mem_constraint, u64::MAX);
        assert!(
            err.best_max_group > 0,
            "should report the group's footprint"
        );
        // Survivor-budget-sized constraint: same structured dead end.
        let err = sched
            .resplit_group(&batch.graph, &seeds, 1 << 20)
            .unwrap_err();
        assert_eq!(err.mem_constraint, 1 << 20);
        // An empty seed list is equally irreducible.
        assert!(sched.resplit_group(&batch.graph, &[], u64::MAX).is_err());
        // The plain scheduling path is unaffected: one seed, one group.
        let plan = sched.schedule(&batch.graph, 1, u64::MAX).unwrap();
        assert_eq!(plan.k, 1);
    }

    #[test]
    fn argmax_argmin_match_std_tie_breaking() {
        // Plan bit-identity depends on these mirroring max_by_key (last
        // max) and min_by_key (first min) exactly.
        for vals in [
            vec![3u64, 1, 3, 2],
            vec![5, 5, 5],
            vec![1],
            vec![2, 9, 9, 0, 0],
        ] {
            assert_eq!(
                argmax_last(&vals),
                (0..vals.len()).max_by_key(|&i| vals[i]),
                "{vals:?}"
            );
            assert_eq!(
                argmin_first(&vals),
                (0..vals.len()).min_by_key(|&i| vals[i]),
                "{vals:?}"
            );
        }
        assert_eq!(argmax_last(&[]), None);
        assert_eq!(argmin_first(&[]), None);
    }

    #[test]
    fn explosion_sentinel_handles_missing_and_absent_buckets() {
        // Regression for the fragile `Some(position().unwrap_or(usize::MAX))
        // == explosion` comparison: an absent degree must never match, with
        // or without a flagged explosion bucket.
        let base = vec![
            DegreeBucket {
                degree: 1,
                nodes: vec![0],
                split_index: None,
            },
            DegreeBucket {
                degree: 5,
                nodes: vec![1, 2, 3],
                split_index: None,
            },
        ];
        assert!(is_explosion_bucket(&base, Some(1), 5));
        assert!(!is_explosion_bucket(&base, Some(1), 1));
        // Degree absent from `base`: the old encoding compared
        // Some(usize::MAX) against the explosion index.
        assert!(!is_explosion_bucket(&base, Some(1), 999));
        assert!(!is_explosion_bucket(&base, None, 999));
        assert!(!is_explosion_bucket(&base, None, 5));
    }
}
