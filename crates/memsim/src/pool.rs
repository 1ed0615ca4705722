//! Elastic pool of simulated devices, each replaying a fault plan.
//!
//! A [`DevicePool`] is the one fault-injecting [`Device`]: `n` budgeted
//! members, every one replaying the same [`FaultPlan`] against its own
//! allocation counter — transient failures, budget shrink/restore
//! events, and the whole-device loss its index is named in. A single
//! faulted device is a pool of one.
//!
//! Everything is deterministic from the plan: the probabilistic stream
//! comes from a SplitMix64 generator seeded by `FaultPlan::seed`, and all
//! triggers key off a member's allocation counter. Two runs of the same
//! workload against the same plan inject exactly the same faults at
//! exactly the same allocations.
//!
//! Each top-level micro-batch is routed to one member — round-robin over
//! the *live* members, keyed by the micro-batch's spec index (see
//! [`DevicePool::begin_micro_batch`]) — so the scheduler's bucket groups
//! shard evenly across the pool.
//!
//! When a member suffers a permanent whole-device loss (an [`OomError`]
//! with `device_lost` set, injected by a `lose:device,at_alloc` fault
//! spec), the recovery ladder's failover rung marks it dead here; from
//! then on the round-robin simply skips it, which *is* the re-shard: the
//! dead member's unfinished groups land on the survivors in the original
//! submission order. Because the Execute stage is in-order and
//! single-threaded, gradient accumulation order — and therefore every
//! loss bit — is independent of which member an allocation landed on.
//!
//! The pool mints its own allocation ids and maps them onto per-member
//! ids, so handles from different members never collide. Marking a
//! member dead releases its simulated memory: a later `free` of one of
//! its handles is a no-op, exactly like freeing memory that fell off the
//! bus with its device.

use crate::device::{AllocId, Device, DeviceMemory, OomError};
use crate::fault::FaultPlan;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, MutexGuard};

/// Counters describing what a pool member has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Total `alloc` calls observed.
    pub allocs: u64,
    /// Transient faults injected.
    pub injected: u64,
    /// Budget events applied.
    pub budget_changes: u64,
}

/// One pool member: its memory and where its fault stream stands.
#[derive(Debug)]
struct Member {
    mem: DeviceMemory,
    /// The allocation index at which the plan loses this member.
    lost_at: Option<u64>,
    rng: u64,
    counters: FaultCounters,
    events_applied: usize,
}

impl Member {
    fn new(budget: u64, plan: &FaultPlan, index: usize) -> Self {
        Member {
            mem: DeviceMemory::new(budget),
            lost_at: plan.lost_at(index),
            rng: splitmix_seed(plan.seed),
            counters: FaultCounters::default(),
            events_applied: 0,
        }
    }

    /// One allocation call against the plan; `budget` is the member's
    /// budget before any budget event. Injected failures surface with
    /// `transient` set, a loss with `device_lost` set.
    fn alloc(&mut self, plan: &FaultPlan, budget: u64, bytes: u64) -> Result<AllocId, OomError> {
        self.counters.allocs += 1;
        let n = self.counters.allocs;
        while let Some(ev) = plan
            .budget_events
            .get(self.events_applied)
            .filter(|e| e.at_alloc <= n)
        {
            self.mem.set_budget((budget as f64 * ev.factor) as u64);
            self.events_applied += 1;
            self.counters.budget_changes += 1;
        }
        let mut inject = plan.fail_nth.binary_search(&n).is_ok();
        if plan.transient_prob > 0.0 {
            // Always draw, so the stream position depends only on the
            // allocation index — not on which faults fired.
            // lint:allow(rng-stream-discipline): stream-exact — the guard is plan-constant (transient_prob is fixed for the whole run), so fast_forward replays the identical per-alloc draw count (suppresses chain: DevicePool::alloc → Member::alloc → next_f64())
            let draw = next_f64(&mut self.rng);
            inject |= draw < plan.transient_prob;
        }
        if inject {
            self.counters.injected += 1;
        }
        // The loss dominates any transient injection at the same index:
        // once the member is gone, every alloc fails for good.
        let lost = self.lost_at.is_some_and(|at| n >= at);
        if lost || inject {
            let mut e = OomError::new(bytes, self.mem.in_use(), self.mem.budget());
            e.device_lost = lost;
            e.transient = !lost;
            return Err(e);
        }
        self.mem.alloc(bytes)
    }

    /// Resets the fault stream to the state it would hold after exactly
    /// `allocs` allocation calls from a fresh start.
    ///
    /// Works in both directions: a resume fast-forwards a freshly built
    /// member to a snapshot's recorded position, and a rollback can
    /// rewind a live one. The probabilistic stream is replayed
    /// draw-by-draw (its position depends only on the allocation index,
    /// never on which faults fired), counters are recomputed, and the
    /// budget is set to `budget × factor` of the last budget event at or
    /// before `allocs` (`budget` itself when none has fired yet).
    fn fast_forward(&mut self, plan: &FaultPlan, budget: u64, allocs: u64) {
        let mut rng = splitmix_seed(plan.seed);
        let mut injected = 0u64;
        for n in 1..=allocs {
            let mut inject = plan.fail_nth.binary_search(&n).is_ok();
            if plan.transient_prob > 0.0 {
                let draw = next_f64(&mut rng);
                inject |= draw < plan.transient_prob;
            }
            if inject {
                injected += 1;
            }
        }
        let applied = plan
            .budget_events
            .iter()
            .take_while(|e| e.at_alloc <= allocs)
            .count();
        let factor = applied
            .checked_sub(1)
            .and_then(|i| plan.budget_events.get(i))
            .map_or(1.0, |e| e.factor);
        self.mem.set_budget((budget as f64 * factor) as u64);
        self.rng = rng;
        self.events_applied = applied;
        self.counters = FaultCounters {
            allocs,
            injected,
            budget_changes: applied as u64,
        };
    }
}

#[derive(Debug)]
struct PoolState {
    members: Vec<Member>,
    /// The member receiving the next allocation.
    active: usize,
    /// Members marked permanently lost. Ordered set: the dead list feeds
    /// snapshots and logs, so its iteration order must be deterministic.
    dead: BTreeSet<usize>,
    /// Next pool-minted allocation id.
    next_id: u64,
    /// Pool id → (member index, member's own id) until freed.
    owners: BTreeMap<u64, (usize, AllocId)>,
}

impl PoolState {
    fn live(&self) -> impl Iterator<Item = &Member> + '_ {
        (self.members.iter().enumerate())
            .filter(|(i, _)| !self.dead.contains(i))
            .map(|(_, m)| m)
    }

    /// Marks member `index` dead and releases its simulated memory.
    fn mark_dead(&mut self, index: usize) {
        if let Some(m) = self.members.get(index) {
            if self.dead.insert(index) {
                m.mem.free_all();
            }
        }
    }
}

/// A pool of simulated devices behind one [`Device`] handle, every
/// member replaying one [`FaultPlan`].
///
/// # Examples
///
/// ```
/// use buffalo_memsim::{Device, DevicePool, FaultPlan};
///
/// let plan = FaultPlan::parse("transient:nth=2").unwrap();
/// let dev = DevicePool::homogeneous(1, 1_000, &plan).unwrap();
/// assert!(dev.alloc(10).is_ok());
/// let err = dev.alloc(10).unwrap_err(); // the injected 2nd alloc
/// assert!(err.transient);
/// assert!(dev.alloc(10).is_ok()); // transient: retry succeeds
/// assert_eq!(dev.counters()[0].injected, 1);
/// ```
#[derive(Debug)]
pub struct DevicePool {
    plan: FaultPlan,
    /// Every member's budget before the plan's budget events.
    budget: u64,
    state: Mutex<PoolState>,
}

impl DevicePool {
    /// A pool of `n` identical members with `per_device_budget` bytes
    /// each, all replaying `plan` (whose `lose:` entries fire only on the
    /// member whose index they name). `None` when `n` is zero: a pool
    /// needs a member.
    pub fn homogeneous(n: usize, per_device_budget: u64, plan: &FaultPlan) -> Option<Self> {
        if n == 0 {
            return None;
        }
        Some(DevicePool {
            plan: plan.clone(),
            budget: per_device_budget,
            state: Mutex::new(PoolState {
                members: (0..n)
                    .map(|i| Member::new(per_device_budget, plan, i))
                    .collect(),
                active: 0,
                dead: BTreeSet::new(),
                next_id: 0,
                owners: BTreeMap::new(),
            }),
        })
    }

    /// Each member's fault counters, by member index.
    pub fn counters(&self) -> Vec<FaultCounters> {
        self.lock().members.iter().map(|m| m.counters).collect()
    }

    /// Indices of members marked permanently lost, ascending.
    pub fn dead(&self) -> Vec<usize> {
        self.lock().dead.iter().copied().collect()
    }

    /// Routes the upcoming micro-batch's allocations: the live member
    /// at `index` modulo the live count, in member order. With no member
    /// alive the route stays where it was.
    pub fn begin_micro_batch(&self, index: usize) {
        let mut st = self.lock();
        let live = st.members.len() - st.dead.len();
        let pick = index.checked_rem(live).and_then(|k| {
            (0..st.members.len())
                .filter(|i| !st.dead.contains(i))
                .nth(k)
        });
        if let Some(i) = pick {
            st.active = i;
        }
    }

    /// The budget the *scheduler* plans against: the tightest budget
    /// across live members, since a bucket group must fit whichever
    /// survivor it lands on. Zero once every member is dead.
    pub fn schedule_budget(&self) -> u64 {
        let st = self.lock();
        st.live().map(|m| m.mem.budget()).min().unwrap_or(0)
    }

    /// The failover rung's one question, asked after an allocation came
    /// back [`OomError::device_lost`]: marks the member that refused it
    /// dead — skipped by every later
    /// [`begin_micro_batch`](Self::begin_micro_batch) — and returns
    /// `(lost member index, live members remaining)`. A pool of one
    /// leaves **zero** survivors, so recovery over it ends instead of
    /// failing over onto the member that just died.
    pub fn fail_active_device(&self) -> (usize, usize) {
        let mut st = self.lock();
        let active = st.active;
        st.mark_dead(active);
        (active, st.members.len() - st.dead.len())
    }

    /// Where the fault streams stand, for snapshots: `(allocation calls
    /// seen per member, indices of members marked dead, ascending)`.
    pub fn snapshot_position(&self) -> (Vec<u64>, Vec<u64>) {
        let st = self.lock();
        (
            st.members.iter().map(|m| m.counters.allocs).collect(),
            st.dead.iter().map(|&i| i as u64).collect(),
        )
    }

    /// Puts the fault streams back where
    /// [`snapshot_position`](Self::snapshot_position) found them: member
    /// `i` is reset to the state after exactly `allocs[i]` calls and the
    /// members in `dead` are marked dead again. Indices past the member
    /// count are ignored.
    pub fn restore_position(&self, allocs: &[u64], dead: &[u64]) {
        let mut st = self.lock();
        for (m, &n) in st.members.iter_mut().zip(allocs) {
            m.fast_forward(&self.plan, self.budget, n);
        }
        for &i in dead {
            st.mark_dead(i as usize);
        }
    }

    fn lock(&self) -> MutexGuard<'_, PoolState> {
        // Mirrors `parking_lot` semantics, like `DeviceMemory::lock`.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Device for DevicePool {
    fn alloc(&self, bytes: u64) -> Result<AllocId, OomError> {
        let mut guard = self.lock();
        let st = &mut *guard;
        let active = st.active;
        let member = match st.members.get_mut(active) {
            Some(m) if !st.dead.contains(&active) => m,
            // Routed onto a member already known dead (every member is
            // gone): fail like the member itself would, with nothing in
            // use.
            m => {
                let mut e = OomError::new(bytes, 0, m.map_or(0, |m| m.mem.budget()));
                e.device_lost = true;
                return Err(e);
            }
        };
        let inner = member.alloc(&self.plan, self.budget, bytes)?;
        let id = st.next_id;
        st.next_id += 1;
        st.owners.insert(id, (active, inner));
        Ok(AllocId(id))
    }

    fn free(&self, id: AllocId) {
        let mut st = self.lock();
        let owner = st.owners.remove(&id.0);
        debug_assert!(
            owner.is_some(),
            "free of unknown or already-freed allocation"
        );
        // A dead member's memory vanished with it: the free is a no-op.
        if let Some((m, inner)) = owner.filter(|(m, _)| !st.dead.contains(m)) {
            if let Some(member) = st.members.get(m) {
                member.mem.free(inner);
            }
        }
    }

    fn budget(&self) -> u64 {
        let st = self.lock();
        st.members.get(st.active).map_or(0, |m| m.mem.budget())
    }

    fn set_budget(&self, bytes: u64) {
        let st = self.lock();
        if let Some(m) = st.members.get(st.active) {
            m.mem.set_budget(bytes);
        }
    }

    fn in_use(&self) -> u64 {
        self.lock().live().map(|m| m.mem.in_use()).sum()
    }

    fn peak(&self) -> u64 {
        // The per-member high-water mark: "did any single device exceed
        // its budget", which is what budget-respect assertions check.
        let st = self.lock();
        st.members.iter().map(|m| m.mem.peak()).max().unwrap_or(0)
    }

    fn reset_peak(&self) {
        for m in &self.lock().members {
            m.mem.reset_peak();
        }
    }

    fn free_all(&self) {
        let mut st = self.lock();
        st.owners.clear();
        for m in &st.members {
            m.mem.free_all();
        }
    }

    fn pool(&self) -> Option<&DevicePool> {
        Some(self)
    }
}

/// SplitMix64: tiny, seedable, and plenty for fault schedules. Seeding
/// with a fixed increment first decorrelates small user seeds.
fn splitmix_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x1234_5678_9ABC_DEF0
}

/// One SplitMix64 step: advances `state` and returns its next output —
/// the fault RNG's draw, and the one serving traces are drawn with.
pub fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn next_f64(state: &mut u64) -> f64 {
    (next_u64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn pool(n: usize, budget: u64, spec: &str) -> DevicePool {
        DevicePool::homogeneous(n, budget, &FaultPlan::parse(spec).unwrap()).unwrap()
    }

    /// Allocates and frees `n` times on the routed member, recording
    /// which allocations succeeded.
    fn drain(p: &DevicePool, n: usize, bytes: u64) -> Vec<bool> {
        (0..n)
            .map(|_| match p.alloc(bytes) {
                Ok(id) => {
                    p.free(id);
                    true
                }
                Err(_) => false,
            })
            .collect()
    }

    /// Reads member `i`'s memory.
    fn member<T>(p: &DevicePool, i: usize, f: impl FnOnce(&DeviceMemory) -> T) -> T {
        f(&p.lock().members[i].mem)
    }

    #[test]
    fn empty_pool_is_rejected() {
        assert!(DevicePool::homogeneous(0, 100, &FaultPlan::none()).is_none());
    }

    #[test]
    fn noop_plan_is_transparent() {
        let p = pool(1, 100, "");
        assert!(drain(&p, 10, 10).iter().all(|&ok| ok));
        assert_eq!(p.counters()[0].injected, 0);
        assert_eq!(p.counters()[0].allocs, 10);
    }

    #[test]
    fn fail_nth_hits_exactly_those_allocs() {
        let p = pool(1, 100, "transient:nth=2,nth=4");
        assert_eq!(drain(&p, 5, 10), vec![true, false, true, false, true]);
        assert_eq!(p.counters()[0].injected, 2);
    }

    #[test]
    fn probabilistic_faults_are_deterministic_from_seed() {
        let run = |seed: u64| {
            drain(
                &pool(1, 100, &format!("transient:p=0.3,seed={seed}")),
                200,
                10,
            )
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed must replay identically");
        assert_ne!(a, run(8), "different seeds should differ");
        let faults = a.iter().filter(|&&ok| !ok).count();
        assert!(
            (20..=100).contains(&faults),
            "p=0.3 over 200 draws injected {faults}"
        );
    }

    #[test]
    fn budget_shrink_and_restore() {
        let p = pool(1, 100, "shrink:at=3,factor=0.5,restore=5");
        assert_eq!(drain(&p, 2, 80), vec![true, true]);
        // 3rd alloc: budget is now 50, and the error is NOT transient.
        let err = p.alloc(80).unwrap_err();
        assert!(!err.transient);
        assert_eq!(err.budget, 50);
        assert_eq!(drain(&p, 1, 40), vec![true]);
        // 5th alloc: restored.
        assert!(p.alloc(80).is_ok());
        assert_eq!(p.counters()[0].budget_changes, 2);
    }

    #[test]
    fn injected_faults_leave_state_untouched() {
        let p = pool(1, 100, "transient:nth=1");
        let err = p.alloc(10).unwrap_err();
        assert!(err.transient);
        assert_eq!(p.in_use(), 0);
        assert_eq!(member(&p, 0, DeviceMemory::peak), 0);
    }

    #[test]
    fn fast_forward_matches_live_stream() {
        let spec = "transient:p=0.3,seed=7,nth=2;shrink:at=5,factor=0.5,restore=12";
        // Reference: run 20 allocs live, record the outcome of allocs 9..20.
        let live = pool(1, 100, spec);
        let full = drain(&live, 20, 10);
        // A fresh pool fast-forwarded to position 8 must replay 9..20
        // identically, with identical counters at the end.
        let ff = pool(1, 100, spec);
        ff.restore_position(&[8], &[]);
        assert_eq!(ff.snapshot_position(), (vec![8], Vec::new()));
        assert_eq!(
            drain(&ff, 12, 10),
            full[8..],
            "fast-forwarded stream must match live"
        );
        assert_eq!(ff.counters(), live.counters());
    }

    #[test]
    fn fast_forward_rewinds_budget_and_counters() {
        let p = pool(1, 100, "shrink:at=3,factor=0.5,restore=5");
        drain(&p, 6, 10);
        assert_eq!(p.budget(), 100); // restored at alloc 5
                                     // Rewind into the shrunken window.
        p.restore_position(&[3], &[]);
        assert_eq!(p.budget(), 50);
        assert_eq!(p.counters()[0].allocs, 3);
        assert_eq!(p.counters()[0].budget_changes, 1);
        // Rewind before any event: original budget, zeroed counters.
        p.restore_position(&[0], &[]);
        assert_eq!(p.budget(), 100);
        assert_eq!(p.counters(), vec![FaultCounters::default()]);
    }

    #[test]
    fn device_loss_is_permanent_and_distinguishable() {
        let p = pool(1, 100, "lose:0,3");
        assert_eq!(drain(&p, 2, 10), vec![true, true]);
        // From the 3rd alloc on, every attempt fails with the permanent
        // marker set — not the transient one.
        for _ in 0..4 {
            let err = p.alloc(10).unwrap_err();
            assert!(err.device_lost);
            assert!(!err.transient);
        }
        assert_eq!(p.counters()[0].allocs, 6);
        assert_eq!(p.counters()[0].injected, 0);
        let s = p.alloc(10).unwrap_err().to_string();
        assert!(s.contains("device lost"), "{s}");
    }

    #[test]
    fn device_loss_only_fires_on_its_own_index() {
        // One plan on two members; only member 1 dies.
        let p = pool(2, 100, "lose:1,1");
        p.begin_micro_batch(0);
        assert!(drain(&p, 5, 10).iter().all(|&ok| ok));
        p.begin_micro_batch(1);
        assert!(drain(&p, 5, 10).iter().all(|&ok| !ok));
    }

    #[test]
    fn fast_forward_preserves_loss_state() {
        let spec = "transient:p=0.3,seed=7;lose:0,5";
        let full = drain(&pool(1, 100, spec), 12, 10);
        // Fast-forwarding past the loss point lands in the lost state and
        // replays the identical (all-failing) tail.
        let ff = pool(1, 100, spec);
        ff.restore_position(&[8], &[]);
        assert_eq!(drain(&ff, 4, 10), full[8..]);
        // Rewinding before the loss point revives it.
        ff.restore_position(&[2], &[]);
        assert_eq!(drain(&ff, 2, 10), full[2..4]);
    }

    /// Routes micro-batch `index` and reports which member took its
    /// allocation (the one whose counter moved).
    fn routed(p: &DevicePool, index: usize) -> usize {
        let before = p.snapshot_position().0;
        p.begin_micro_batch(index);
        drain(p, 1, 1);
        let after = p.snapshot_position().0;
        (0..after.len()).find(|&i| after[i] != before[i]).unwrap()
    }

    #[test]
    fn round_robin_routes_over_live_members() {
        let p = pool(3, 100, "");
        for i in 0..6 {
            assert_eq!(routed(&p, i), i % 3);
        }
        assert_eq!(p.snapshot_position().0, vec![2, 2, 2]);
        // Kill member 1: the rotation skips it from now on.
        p.begin_micro_batch(1);
        assert_eq!(p.fail_active_device(), (1, 2));
        assert_eq!(p.dead(), vec![1]);
        let route: Vec<usize> = (0..4).map(|i| routed(&p, i)).collect();
        assert_eq!(route, vec![0, 2, 0, 2]);
    }

    #[test]
    fn frees_route_to_the_owning_member() {
        let p = pool(2, 100, "");
        p.begin_micro_batch(0);
        let a = p.alloc(30).unwrap();
        p.begin_micro_batch(1);
        let b = p.alloc(40).unwrap();
        let in_use = |i| member(&p, i, DeviceMemory::in_use);
        assert_eq!((in_use(0), in_use(1), p.in_use()), (30, 40, 70));
        p.free(a);
        assert_eq!((in_use(0), in_use(1)), (0, 40));
        p.free(b);
        assert_eq!(p.in_use(), 0);
    }

    // The panic is `free`'s `debug_assert!`: a release build has no check.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "already-freed")]
    fn double_free_through_a_pool_panics() {
        let p = pool(2, 100, "");
        let a = p.alloc(5).unwrap();
        p.free(a);
        p.free(a);
    }

    #[test]
    fn budgets_are_per_member_and_schedule_uses_the_tightest() {
        let p = pool(2, 100, "");
        p.begin_micro_batch(0);
        p.set_budget(60); // shrink member 0 only
        assert_eq!(member(&p, 0, DeviceMemory::budget), 60);
        assert_eq!(member(&p, 1, DeviceMemory::budget), 100);
        assert_eq!(p.schedule_budget(), 60);
        p.begin_micro_batch(1);
        assert_eq!(p.budget(), 100);
        // Once member 0 dies, the tightest live budget is member 1's.
        p.begin_micro_batch(0);
        p.fail_active_device();
        assert_eq!(p.schedule_budget(), 100);
    }

    #[test]
    fn dead_member_memory_vanishes_and_late_frees_are_noops() {
        let p = pool(2, 100, "");
        p.begin_micro_batch(1);
        let held = p.alloc(50).unwrap();
        p.fail_active_device();
        // Its memory is gone and in_use no longer counts it.
        assert_eq!(member(&p, 1, DeviceMemory::in_use), 0);
        assert_eq!(p.in_use(), 0);
        // Freeing the orphaned handle must not panic or touch anyone.
        p.free(held);
        // Allocating while routed at a dead member fails permanently.
        let err = p.alloc(10).unwrap_err();
        assert!(err.device_lost);
    }

    #[test]
    fn injected_loss_surfaces_through_the_pool() {
        let p = pool(2, 100, "lose:1,2");
        p.begin_micro_batch(1);
        assert!(p.alloc(10).is_ok());
        let err = p.alloc(10).unwrap_err();
        assert!(err.device_lost && !err.transient);
        // The pool has not marked it dead by itself — that is the
        // recovery ladder's decision.
        assert_eq!(p.dead(), Vec::<usize>::new());
    }

    #[test]
    fn losing_the_last_member_leaves_zero_survivors() {
        // What ends recovery instead of failing over forever: a pool of
        // one leaves nobody to fail over to, and a plain device is no
        // pool at all.
        let p = pool(1, 100, "");
        assert_eq!(p.fail_active_device(), (0, 0));
        assert_eq!(p.schedule_budget(), 0);
        assert!(DeviceMemory::new(100).pool().is_none());
    }

    #[test]
    fn dead_set_round_trips_through_snapshot_form() {
        let p = pool(4, 100, "");
        p.begin_micro_batch(1);
        p.fail_active_device();
        p.begin_micro_batch(2); // live rotation: 0,2,3 → index 2 → member 3
        p.fail_active_device();
        let (allocs, dead) = p.snapshot_position();
        assert_eq!(dead, vec![1, 3]);
        let fresh = pool(4, 100, "");
        fresh.restore_position(&allocs, &dead);
        assert_eq!(fresh.dead(), vec![1, 3]);
        // Out-of-range indices are ignored, not a panic.
        fresh.restore_position(&[], &[99]);
        assert_eq!(fresh.dead(), vec![1, 3]);
    }

    /// One routed call `(kind, bytes, route)` of a replayed sequence:
    /// frees a held handle when `kind` is 0 and one is held (`None`),
    /// allocates otherwise. An allocation refused with `device_lost`
    /// fails the active member over, as the recovery ladder does.
    fn step(
        p: &DevicePool,
        held: &mut Vec<AllocId>,
        (kind, bytes, route): (u8, u64, usize),
    ) -> Option<Result<(), OomError>> {
        p.begin_micro_batch(route);
        if kind == 0 && !held.is_empty() {
            p.free(held.swap_remove(bytes as usize % held.len()));
            return None;
        }
        Some(match p.alloc(bytes) {
            Ok(id) => {
                held.push(id);
                Ok(())
            }
            Err(e) => {
                if e.device_lost {
                    p.fail_active_device();
                }
                Err(e)
            }
        })
    }

    /// Everything a replay compares between two pools besides outcomes.
    #[derive(Debug, PartialEq)]
    struct Observed {
        in_use: u64,
        peak: u64,
        budgets: Vec<u64>,
        /// Stream positions and the dead set.
        position: (Vec<u64>, Vec<u64>),
    }

    fn observe(p: &DevicePool) -> Observed {
        let budgets = p.lock().members.iter().map(|m| m.mem.budget()).collect();
        Observed {
            in_use: p.in_use(),
            peak: p.peak(),
            budgets,
            position: p.snapshot_position(),
        }
    }

    proptest! {
        /// A `lose:` fault naming a device index at or beyond the pool
        /// size never fires: every allocation on every member succeeds
        /// exactly as with no plan at all.
        #[test]
        fn loss_beyond_pool_size_never_fires(
            n in 1usize..5,
            extra in 0usize..16,
            at in 1u64..10,
            allocs in 1usize..40,
        ) {
            let p = pool(n, 1_000, &format!("lose:{},{at}", n + extra));
            for i in 0..allocs {
                p.begin_micro_batch(i);
                let id = p.alloc(1);
                prop_assert!(id.is_ok(), "alloc {i} failed: {:?}", id.err());
                p.free(id.unwrap());
            }
            prop_assert_eq!(p.dead(), Vec::<usize>::new());
        }

        /// A pool restored from a snapshot replays the live one: under
        /// any fault plan on 1–4 members, run a routed alloc/free
        /// sequence, empty the pool at any step (as an iteration
        /// boundary does) and snapshot it, restore a fresh pool to that
        /// snapshot, and replay the rest on both — every outcome, the
        /// usage, peak, member budgets, stream positions and dead set
        /// agree at every step, until no member survives.
        #[test]
        fn a_restored_pool_replays_the_live_one(
            n in 1usize..5,
            (p_pct, seed, nths) in (0u32..60, 0u64..1_000, vec(1u64..60, 0..4)),
            (shrink_at, factor_pct, restore_at) in (0u64..40, 10u32..100, 0u64..60),
            losses in vec((0usize..5, 1u64..40), 0..3),
            ops in vec((0u8..3, 1u64..400, 0usize..8), 1..80),
            cut in 0usize..80,
        ) {
            let mut spec = format!("transient:p=0.{p_pct:02},seed={seed}");
            for n in nths {
                spec += &format!(",nth={n}");
            }
            // `at = 0` stands for "clause absent".
            if shrink_at > 0 {
                spec += &format!(";shrink:at={shrink_at},factor=0.{factor_pct:02}");
                if restore_at > shrink_at {
                    spec += &format!(",restore={restore_at}");
                }
            }
            for (device, at) in losses {
                spec += &format!(";lose:{device},{at}");
            }
            let live = pool(n, 1_000, &spec);
            let all_dead = |p: &DevicePool| p.dead().len() == n;
            let (head, tail) = ops.split_at(cut.min(ops.len()));
            let mut held = Vec::new();
            for &op in head {
                step(&live, &mut held, op);
            }
            for id in held.drain(..) {
                live.free(id);
            }
            live.reset_peak();
            let (allocs, dead) = live.snapshot_position();
            let restored = pool(n, 1_000, &spec);
            restored.restore_position(&allocs, &dead);
            prop_assert_eq!(observe(&restored), observe(&live));
            let mut held_restored = Vec::new();
            for (i, &op) in tail.iter().enumerate() {
                if all_dead(&live) {
                    break;
                }
                let want = step(&live, &mut held, op);
                let got = step(&restored, &mut held_restored, op);
                prop_assert_eq!(got, want, "op {} of spec {}", head.len() + i, spec);
                prop_assert_eq!(observe(&restored), observe(&live));
            }
        }
    }
}
