//! Elastic pool of simulated devices for multi-device training.
//!
//! A [`DevicePool`] owns per-device [`FaultyDevice`] handles and fronts
//! them behind the single [`Device`] trait the trainers, the epoch
//! runner, and the pipeline's Execute stage already speak. Each
//! top-level micro-batch is routed to one pool member — round-robin over
//! the *live* devices, keyed by the micro-batch's spec index (see
//! [`Device::begin_micro_batch`]) — so the scheduler's bucket groups
//! shard evenly across the pool.
//!
//! When a member suffers a permanent whole-device loss (an [`OomError`]
//! with `device_lost` set, injected by a `lose:device,at_alloc` fault
//! spec), the recovery ladder's failover rung marks it dead here; from
//! then on the round-robin simply skips it, which *is* the re-shard: the
//! dead device's unfinished groups land on the survivors in the original
//! submission order. Because the Execute stage is in-order and
//! single-threaded, gradient accumulation order — and therefore every
//! loss bit — is independent of which device an allocation landed on.
//!
//! The pool mints its own allocation ids and maps them onto inner
//! per-device ids, so handles from different members never collide.
//! Marking a device dead releases its simulated memory and forgets its
//! live allocations: a later `free` of such a handle is a no-op, exactly
//! like freeing memory that fell off the bus with its device.

use crate::TrainError;
use buffalo_memsim::{AllocId, Device, DeviceMemory, FaultPlan, FaultyDevice, OomError};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, MutexGuard};

#[derive(Debug, Default)]
struct PoolState {
    /// The member receiving the next allocation.
    active: usize,
    /// Members marked permanently lost. Ordered set: the dead list feeds
    /// snapshots and logs, so its iteration order must be deterministic.
    dead: BTreeSet<usize>,
    /// Next pool-minted allocation id.
    next_id: u64,
    /// Pool id → (member index, member's own id) for live allocations.
    owners: BTreeMap<u64, (usize, AllocId)>,
}

/// A pool of simulated devices behind one [`Device`] handle.
#[derive(Debug)]
pub struct DevicePool {
    devices: Vec<FaultyDevice>,
    state: Mutex<PoolState>,
}

impl DevicePool {
    /// Builds a pool over `devices`. Member `i` should carry device
    /// index `i` (see [`FaultyDevice::with_index`]) so `lose:` fault
    /// specs address the right member.
    ///
    /// # Errors
    ///
    /// [`TrainError::InvalidConfig`] when `devices` is empty.
    pub fn new(devices: Vec<FaultyDevice>) -> Result<Self, TrainError> {
        if devices.is_empty() {
            return Err(TrainError::InvalidConfig(
                "device pool needs at least one device".into(),
            ));
        }
        Ok(DevicePool {
            devices,
            state: Mutex::new(PoolState::default()),
        })
    }

    /// Builds a pool of `n` identical devices with `per_device_budget`
    /// bytes each, all replaying `plan` (whose `lose:` entries fire only
    /// on the member whose index they name).
    ///
    /// # Errors
    ///
    /// [`TrainError::InvalidConfig`] when `n` is zero.
    pub fn homogeneous(
        n: usize,
        per_device_budget: u64,
        plan: &FaultPlan,
    ) -> Result<Self, TrainError> {
        if n == 0 {
            return Err(TrainError::InvalidConfig(
                "device pool needs at least one device".into(),
            ));
        }
        DevicePool::new(
            (0..n)
                .map(|i| {
                    FaultyDevice::with_index(DeviceMemory::new(per_device_budget), plan.clone(), i)
                })
                .collect(),
        )
    }

    /// Number of pool members, dead or alive.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the pool has no members (never true for a constructed pool).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Member `i`, if it exists.
    pub fn device(&self, i: usize) -> Option<&FaultyDevice> {
        self.devices.get(i)
    }

    /// Indices of members marked permanently lost, ascending.
    pub fn dead(&self) -> Vec<usize> {
        self.lock().dead.iter().copied().collect()
    }

    /// Whether member `i` is marked dead.
    pub fn is_dead(&self, i: usize) -> bool {
        self.lock().dead.contains(&i)
    }

    fn lock(&self) -> MutexGuard<'_, PoolState> {
        // Mirrors `parking_lot` semantics, like `DeviceMemory::lock`.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A `device_lost` refusal describing dead member `index`.
    fn lost_error(&self, index: usize, bytes: u64) -> OomError {
        let budget = self.devices.get(index).map_or(0, |d| d.budget());
        let mut e = OomError::new(bytes, 0, budget);
        e.device_lost = true;
        e
    }

    /// Marks member `index` dead: its simulated memory is released and
    /// its live allocation handles are forgotten (a later `free` of one
    /// is a no-op — the memory vanished with the device).
    fn mark_dead(&self, index: usize) {
        let mut st = self.lock();
        if index >= self.devices.len() || !st.dead.insert(index) {
            return;
        }
        st.owners.retain(|_, &mut (dev, _)| dev != index);
        if let Some(d) = self.devices.get(index) {
            d.free_all();
        }
    }
}

impl Device for DevicePool {
    fn alloc(&self, bytes: u64) -> Result<AllocId, OomError> {
        let mut st = self.lock();
        let active = st.active;
        if st.dead.contains(&active) {
            // Routed onto a member already known dead (e.g. every member
            // is gone): fail exactly like the device itself would.
            drop(st);
            return Err(self.lost_error(active, bytes));
        }
        let dev = match self.devices.get(active) {
            Some(d) => d,
            // Unreachable by construction (active always < len); treat as
            // a permanent refusal rather than panicking on a pool bug.
            None => {
                drop(st);
                return Err(self.lost_error(active, bytes));
            }
        };
        let inner = Device::alloc(dev, bytes)?;
        let id = st.next_id;
        st.next_id += 1;
        st.owners.insert(id, (active, inner));
        Ok(AllocId::from_raw(id))
    }

    fn free(&self, id: AllocId) {
        let owner = self.lock().owners.remove(&id.raw());
        if let Some((dev, inner)) = owner {
            if let Some(d) = self.devices.get(dev) {
                Device::free(d, inner);
            }
        }
        // Unknown ids belonged to a device that has since died: the
        // memory vanished with it, so the free is a no-op.
    }

    fn budget(&self) -> u64 {
        let active = self.lock().active;
        self.devices.get(active).map_or(0, |d| d.budget())
    }

    fn set_budget(&self, bytes: u64) {
        let active = self.lock().active;
        if let Some(d) = self.devices.get(active) {
            d.set_budget(bytes);
        }
    }

    fn in_use(&self) -> u64 {
        let st = self.lock();
        self.devices
            .iter()
            .enumerate()
            .filter(|(i, _)| !st.dead.contains(i))
            .map(|(_, d)| d.in_use())
            .sum()
    }

    fn peak(&self) -> u64 {
        // The per-device high-water mark: "did any single device exceed
        // its budget", which is what budget-respect assertions check.
        self.devices.iter().map(|d| d.peak()).max().unwrap_or(0)
    }

    fn reset_peak(&self) {
        for d in &self.devices {
            d.reset_peak();
        }
    }

    fn free_all(&self) {
        let mut st = self.lock();
        st.owners.clear();
        for d in &self.devices {
            d.free_all();
        }
    }

    fn begin_micro_batch(&self, index: usize) {
        let mut st = self.lock();
        let live = self.devices.len() - st.dead.len();
        let pick = index.checked_rem(live).and_then(|k| {
            (0..self.devices.len())
                .filter(|i| !st.dead.contains(i))
                .nth(k)
        });
        if let Some(i) = pick {
            st.active = i;
        }
    }

    fn schedule_budget(&self) -> u64 {
        // A bucket group must fit whichever survivor it lands on, so the
        // scheduler plans against the tightest live budget.
        let st = self.lock();
        self.devices
            .iter()
            .enumerate()
            .filter(|(i, _)| !st.dead.contains(i))
            .map(|(_, d)| d.budget())
            .min()
            .unwrap_or(0)
    }

    fn fail_active_device(&self) -> (usize, usize) {
        let active = self.lock().active;
        self.mark_dead(active);
        (active, self.devices.len() - self.lock().dead.len())
    }

    fn snapshot_position(&self) -> (Vec<u64>, Vec<u64>) {
        (
            self.devices.iter().map(|d| d.counters().allocs).collect(),
            self.lock().dead.iter().map(|&i| i as u64).collect(),
        )
    }

    fn restore_position(&self, allocs: &[u64], dead: &[u64]) {
        for (d, &n) in self.devices.iter().zip(allocs) {
            d.fast_forward(n);
        }
        for &i in dead {
            self.mark_dead(i as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize, budget: u64, spec: &str) -> DevicePool {
        let plan = FaultPlan::parse(spec).unwrap();
        DevicePool::homogeneous(n, budget, &plan).unwrap()
    }

    #[test]
    fn empty_pool_is_rejected() {
        let err = DevicePool::homogeneous(0, 100, &FaultPlan::none()).unwrap_err();
        assert!(matches!(err, TrainError::InvalidConfig(_)));
        let err = DevicePool::new(Vec::new()).unwrap_err();
        assert!(matches!(err, TrainError::InvalidConfig(_)));
    }

    /// Routes micro-batch `index` and reports which member took its
    /// allocation (the one whose counter moved).
    fn routed(p: &DevicePool, index: usize) -> usize {
        let before = p.snapshot_position().0;
        p.begin_micro_batch(index);
        if let Ok(id) = Device::alloc(p, 1) {
            Device::free(p, id);
        }
        let after = p.snapshot_position().0;
        (0..p.len()).find(|&i| after[i] != before[i]).unwrap()
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
        let a = Device::alloc(&p, 30).unwrap();
        p.begin_micro_batch(1);
        let b = Device::alloc(&p, 40).unwrap();
        assert_eq!(p.device(0).unwrap().in_use(), 30);
        assert_eq!(p.device(1).unwrap().in_use(), 40);
        assert_eq!(p.in_use(), 70);
        Device::free(&p, a);
        assert_eq!(p.device(0).unwrap().in_use(), 0);
        assert_eq!(p.device(1).unwrap().in_use(), 40);
        Device::free(&p, b);
        assert_eq!(p.in_use(), 0);
    }

    #[test]
    fn budgets_are_per_member_and_schedule_uses_the_tightest() {
        let p = pool(2, 100, "");
        p.begin_micro_batch(0);
        p.set_budget(60); // shrink member 0 only
        assert_eq!(p.device(0).unwrap().budget(), 60);
        assert_eq!(p.device(1).unwrap().budget(), 100);
        assert_eq!(p.schedule_budget(), 60);
        p.begin_micro_batch(1);
        assert_eq!(Device::budget(&p), 100);
        // Once member 0 dies, the tightest live budget is member 1's.
        p.begin_micro_batch(0);
        p.fail_active_device();
        assert_eq!(p.schedule_budget(), 100);
    }

    #[test]
    fn dead_member_memory_vanishes_and_late_frees_are_noops() {
        let p = pool(2, 100, "");
        p.begin_micro_batch(1);
        let held = Device::alloc(&p, 50).unwrap();
        p.fail_active_device();
        // Its memory is gone and in_use no longer counts it.
        assert_eq!(p.device(1).unwrap().in_use(), 0);
        assert_eq!(p.in_use(), 0);
        // Freeing the orphaned handle must not panic or touch anyone.
        Device::free(&p, held);
        // Allocating while routed at a dead member fails permanently.
        let err = Device::alloc(&p, 10).unwrap_err();
        assert!(err.device_lost);
    }

    #[test]
    fn injected_loss_surfaces_through_the_pool() {
        let p = pool(2, 100, "lose:1,2");
        p.begin_micro_batch(1);
        assert!(Device::alloc(&p, 10).is_ok());
        let err = Device::alloc(&p, 10).unwrap_err();
        assert!(err.device_lost && !err.transient);
        // The pool has not marked it dead by itself — that is the
        // recovery ladder's decision.
        assert_eq!(p.dead(), Vec::<usize>::new());
    }

    #[test]
    fn losing_the_last_member_leaves_zero_survivors() {
        // What ends recovery instead of failing over forever: a pool of
        // one answers exactly like the trait's lone-device default.
        let p = pool(1, 100, "");
        assert_eq!(p.fail_active_device(), (0, 0));
        assert_eq!(p.schedule_budget(), 0);
        let lone = FaultyDevice::new(DeviceMemory::new(100), FaultPlan::none());
        assert_eq!(lone.fail_active_device(), (0, 0));
        assert_eq!(DeviceMemory::new(100).fail_active_device(), (0, 0));
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

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Everything observable about one allocation attempt.
        fn outcome(r: Result<AllocId, OomError>) -> Result<(), OomError> {
            r.map(|_| ())
        }

        proptest! {
            /// A `lose:` fault naming a device index at or beyond the
            /// pool size never fires: every allocation on every member
            /// succeeds exactly as with no plan at all.
            #[test]
            fn loss_beyond_pool_size_never_fires(
                n in 1usize..5,
                extra in 0usize..16,
                at in 1u64..10,
                allocs in 1usize..40,
            ) {
                let plan = FaultPlan::parse(
                    &format!("lose:{},{at}", n + extra)).unwrap();
                let p = DevicePool::homogeneous(n, 1_000, &plan).unwrap();
                for i in 0..allocs {
                    p.begin_micro_batch(i);
                    let id = Device::alloc(&p, 1);
                    prop_assert!(id.is_ok(), "alloc {i} failed: {:?}", id.err());
                    Device::free(&p, id.unwrap());
                }
                prop_assert_eq!(p.dead(), Vec::<usize>::new());
                for i in 0..n {
                    prop_assert!(!p.device(i).unwrap().is_lost());
                }
            }

            /// A single device is a pool of one: under any fault plan and
            /// any alloc/free sequence, `DevicePool::homogeneous(1, ..)`
            /// and a lone `FaultyDevice` answer every call identically —
            /// the same `Ok` or the same `OomError` field for field, the
            /// same usage, peak and allocation counter — and still do
            /// after both are fast-forwarded to an arbitrary position.
            #[test]
            fn pool_of_one_is_the_lone_faulty_device(
                (p_pct, seed, nths) in (0u32..60, 0u64..1_000, collection::vec(1u64..60, 0..4)),
                (shrink_at, factor_pct, restore_at) in (0u64..40, 10u32..100, 0u64..60),
                lose_at in 0u64..50,
                ops in collection::vec((0u8..3, 1u64..400), 1..60),
                seek in 0u64..50,
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
                if lose_at > 0 {
                    spec += &format!(";lose:0,{lose_at}");
                }
                let plan = FaultPlan::parse(&spec).unwrap();
                let pool = DevicePool::homogeneous(1, 1_000, &plan).unwrap();
                let lone = FaultyDevice::new(DeviceMemory::new(1_000), plan);
                let replay = |round: usize| -> Result<(), TestCaseError> {
                    let (mut held_p, mut held_l) = (Vec::new(), Vec::new());
                    for (i, &(op, bytes)) in ops.iter().enumerate() {
                        pool.begin_micro_batch(i);
                        lone.begin_micro_batch(i);
                        if op == 0 && !held_p.is_empty() {
                            let k = bytes as usize % held_p.len();
                            Device::free(&pool, held_p.swap_remove(k));
                            Device::free(&lone, held_l.swap_remove(k));
                        } else {
                            let (a, b) = (Device::alloc(&pool, bytes), Device::alloc(&lone, bytes));
                            held_p.extend(a.as_ref().ok());
                            held_l.extend(b.as_ref().ok());
                            prop_assert_eq!(outcome(a), outcome(b), "round {} op {}", round, i);
                        }
                        prop_assert_eq!(pool.in_use(), lone.in_use());
                        prop_assert_eq!(pool.peak(), lone.peak());
                        prop_assert_eq!(Device::budget(&pool), lone.budget());
                        prop_assert_eq!(pool.schedule_budget(), lone.schedule_budget());
                        prop_assert_eq!(pool.snapshot_position(), lone.snapshot_position());
                    }
                    Ok(())
                };
                replay(0)?;
                for d in [&pool as &dyn Device, &lone] {
                    d.free_all();
                    d.reset_peak();
                    d.restore_position(&[seek], &[]);
                }
                replay(1)?;
            }
        }
    }
}
