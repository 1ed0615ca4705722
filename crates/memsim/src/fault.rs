//! Deterministic fault injection over the simulated device.
//!
//! A [`FaultPlan`] describes *when* allocations misbehave — transient
//! alloc failures on specific allocation indices or with a seeded
//! probability, and mid-run budget shrink/restore events simulating
//! fragmentation or a co-tenant process. A [`FaultyDevice`] wraps a
//! [`DeviceMemory`] and replays the plan on every `alloc` call.
//!
//! Everything is deterministic from the plan: the probabilistic stream
//! comes from a SplitMix64 generator seeded by `FaultPlan::seed`, and all
//! triggers key off the device's allocation counter. Two runs of the same
//! training workload against the same plan inject exactly the same faults
//! at exactly the same allocations.

use crate::device::{AllocId, Device, DeviceMemory, OomError};
use std::fmt;
use std::sync::Mutex;

/// A scheduled budget change: at the `at_alloc`-th allocation call
/// (1-based, counted across the device's lifetime), the budget becomes
/// `factor ×` the device's original budget. `factor = 1.0` restores it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetEvent {
    /// Allocation index (1-based) at which the change takes effect.
    pub at_alloc: u64,
    /// Multiplier applied to the original budget.
    pub factor: f64,
}

/// A scheduled crash of the process-equivalent in the middle of a
/// checkpoint write: at the `at_save`-th snapshot save (1-based, counted
/// across the writer's lifetime), the writer stops after `after_bytes`
/// bytes (half the snapshot when `None`) and the training run dies.
///
/// With `torn = false` (the default) the partial write lands in the
/// writer's *temp* file — the torn bytes are exactly what an atomic
/// rename protocol promises to keep invisible. With `torn = true` the
/// partial write lands at the *final* snapshot path, simulating a
/// filesystem that made a rename visible without the data (no journal,
/// lost fsync), so resume must detect the corruption via the integrity
/// footer and fall back to an older snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashPoint {
    /// Snapshot save index (1-based) at which the crash fires.
    pub at_save: u64,
    /// Bytes written before dying; half the snapshot when `None`.
    pub after_bytes: Option<u64>,
    /// Whether the partial write is visible at the final snapshot path.
    pub torn: bool,
}

impl CrashPoint {
    /// Whether the crash fires at the given (1-based) save index.
    pub fn fires(&self, save_index: u64) -> bool {
        self.at_save == save_index
    }
}

/// A scheduled whole-device loss: from the `at_alloc`-th allocation call
/// (1-based) on device `device` onward, *every* allocation on that device
/// fails permanently with [`OomError::device_lost`] set — the simulated
/// equivalent of a GPU falling off the bus mid-epoch. Unlike a transient
/// fault, retrying is pointless; the executor must fail over to a
/// surviving device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceLoss {
    /// Index of the device (within a pool) that is lost.
    pub device: usize,
    /// Allocation index (1-based, per-device) at which the loss fires.
    pub at_alloc: u64,
}

/// A deterministic fault schedule.
///
/// Build one directly, with the convenience constructors, or by parsing a
/// CLI spec (see [`FaultPlan::parse`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the probabilistic transient-fault stream.
    pub seed: u64,
    /// Probability in `[0, 1)` that any given allocation fails with an
    /// injected transient fault.
    pub transient_prob: f64,
    /// Specific allocation indices (1-based) that fail with an injected
    /// transient fault, regardless of `transient_prob`.
    pub fail_nth: Vec<u64>,
    /// Scheduled budget shrink/restore events, sorted by `at_alloc`.
    pub budget_events: Vec<BudgetEvent>,
    /// Scheduled mid-checkpoint-write crash, consumed by the checkpoint
    /// writer rather than the device (allocations never see it).
    pub crash: Option<CrashPoint>,
    /// Scheduled whole-device losses, sorted by `(device, at_alloc)`.
    /// Each entry names a device index; it only ever fires on a
    /// [`FaultyDevice`] carrying that index (see
    /// [`FaultyDevice::with_index`]), so a loss naming an index outside
    /// the pool never fires at all.
    pub device_loss: Vec<DeviceLoss>,
}

impl FaultPlan {
    /// A plan that injects nothing (the identity wrapper).
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            transient_prob: 0.0,
            fail_nth: Vec::new(),
            budget_events: Vec::new(),
            crash: None,
            device_loss: Vec::new(),
        }
    }

    /// Transient alloc failures with probability `p` from `seed`.
    pub fn transient(p: f64, seed: u64) -> Self {
        FaultPlan {
            transient_prob: p,
            seed,
            ..FaultPlan::none()
        }
    }

    /// Whether the plan can inject anything at all.
    pub fn is_noop(&self) -> bool {
        self.transient_prob <= 0.0
            && self.fail_nth.is_empty()
            && self.budget_events.is_empty()
            && self.crash.is_none()
            && self.device_loss.is_empty()
    }

    /// The earliest allocation index at which device `device` is lost,
    /// or `None` if the plan never loses it.
    pub fn lost_at(&self, device: usize) -> Option<u64> {
        self.device_loss
            .iter()
            .filter(|l| l.device == device)
            .map(|l| l.at_alloc)
            .min()
    }

    /// Parses a CLI fault spec. Clauses are separated by `;`:
    ///
    /// * `transient:p=0.1,seed=7` — probabilistic transient failures;
    /// * `transient:nth=5,nth=12` — fail exactly the 5th and 12th allocs;
    /// * `shrink:at=10,factor=0.5,restore=30` — halve the budget at the
    ///   10th alloc, restore it at the 30th (`restore` optional);
    /// * `crash:at=3,bytes=64,torn=1` — kill the run during the 3rd
    ///   checkpoint save, 64 bytes into the write (`bytes` and `torn`
    ///   optional; see [`CrashPoint`]);
    /// * `lose:1,40` — permanently lose device 1 at its 40th allocation
    ///   (positional: `lose:device,at_alloc`; see [`DeviceLoss`]).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending clause or key.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::none();
        for clause in spec.split(';').filter(|c| !c.trim().is_empty()) {
            let (kind, params) = clause
                .split_once(':')
                .ok_or_else(|| format!("fault clause `{clause}` needs `kind:key=value,...`"))?;
            if kind.trim() == "lose" {
                // Positional clause: `lose:device,at_alloc`.
                let vals: Vec<&str> = params
                    .split(',')
                    .map(str::trim)
                    .filter(|p| !p.is_empty())
                    .collect();
                let [device, at] = vals[..] else {
                    return Err(format!(
                        "lose clause needs `lose:device,at_alloc`, got `{clause}`"
                    ));
                };
                let device: usize = parse_num("device", device)?;
                let at_alloc: u64 = parse_num("at_alloc", at)?;
                if at_alloc == 0 {
                    return Err("lose at_alloc is 1-based; 0 never fires".into());
                }
                plan.device_loss.push(DeviceLoss { device, at_alloc });
                continue;
            }
            let mut pairs = Vec::new();
            for kv in params.split(',').filter(|p| !p.trim().is_empty()) {
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("bad fault parameter `{kv}` (want key=value)"))?;
                pairs.push((k.trim(), v.trim()));
            }
            match kind.trim() {
                "transient" => {
                    for (k, v) in pairs {
                        match k {
                            "p" => {
                                plan.transient_prob = parse_num(k, v)?;
                                if !(0.0..1.0).contains(&plan.transient_prob) {
                                    return Err(format!("transient p must be in [0,1): `{v}`"));
                                }
                            }
                            "seed" => plan.seed = parse_num(k, v)?,
                            "nth" => plan.fail_nth.push(parse_num(k, v)?),
                            other => return Err(format!("unknown transient key `{other}`")),
                        }
                    }
                }
                "shrink" => {
                    let (mut at, mut factor, mut restore) = (None, None, None);
                    for (k, v) in pairs {
                        match k {
                            "at" => at = Some(parse_num(k, v)?),
                            "factor" => factor = Some(parse_num(k, v)?),
                            "restore" => restore = Some(parse_num(k, v)?),
                            other => return Err(format!("unknown shrink key `{other}`")),
                        }
                    }
                    let at: u64 = at.ok_or("shrink clause needs at=N")?;
                    let factor: f64 = factor.ok_or("shrink clause needs factor=F")?;
                    if !(0.0..=1.0).contains(&factor) {
                        return Err(format!("shrink factor must be in [0,1]: {factor}"));
                    }
                    plan.budget_events.push(BudgetEvent {
                        at_alloc: at,
                        factor,
                    });
                    if let Some(r) = restore {
                        plan.budget_events.push(BudgetEvent {
                            at_alloc: r,
                            factor: 1.0,
                        });
                    }
                }
                "crash" => {
                    let (mut at, mut bytes, mut torn) = (None, None, false);
                    for (k, v) in pairs {
                        match k {
                            "at" => at = Some(parse_num(k, v)?),
                            "bytes" => bytes = Some(parse_num(k, v)?),
                            "torn" => {
                                torn = match v {
                                    "1" | "true" => true,
                                    "0" | "false" => false,
                                    other => {
                                        return Err(format!("crash torn must be 0|1: `{other}`"))
                                    }
                                }
                            }
                            other => return Err(format!("unknown crash key `{other}`")),
                        }
                    }
                    let at: u64 = at.ok_or("crash clause needs at=N")?;
                    if at == 0 {
                        return Err("crash at=N is 1-based; 0 never fires".into());
                    }
                    plan.crash = Some(CrashPoint {
                        at_save: at,
                        after_bytes: bytes,
                        torn,
                    });
                }
                other => return Err(format!("unknown fault kind `{other}`")),
            }
        }
        plan.fail_nth.sort_unstable();
        plan.budget_events.sort_by_key(|e| e.at_alloc);
        plan.device_loss.sort_by_key(|l| (l.device, l.at_alloc));
        Ok(plan)
    }
}

fn parse_num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad fault value {key}={v}"))
}

/// Counters describing what a [`FaultyDevice`] has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Total `alloc` calls observed.
    pub allocs: u64,
    /// Transient faults injected.
    pub injected: u64,
    /// Budget events applied.
    pub budget_changes: u64,
}

#[derive(Debug)]
struct FaultState {
    rng: u64,
    counters: FaultCounters,
    events_applied: usize,
}

/// A fault-injecting wrapper over [`DeviceMemory`].
///
/// Implements [`Device`], so anything that takes `&dyn Device` — the
/// trainers, `run_epochs_checkpointed`, the simulation harness — can run against it
/// unchanged. Injected failures surface as [`OomError`]s with
/// `transient: true`; budget events mutate the wrapped device through
/// [`DeviceMemory::set_budget`].
///
/// # Examples
///
/// ```
/// use buffalo_memsim::{Device, DeviceMemory, FaultPlan, FaultyDevice};
///
/// let plan = FaultPlan::parse("transient:nth=2").unwrap();
/// let dev = FaultyDevice::new(DeviceMemory::new(1_000), plan);
/// assert!(Device::alloc(&dev, 10).is_ok());
/// let err = Device::alloc(&dev, 10).unwrap_err(); // the injected 2nd alloc
/// assert!(err.transient);
/// assert!(Device::alloc(&dev, 10).is_ok()); // transient: retry succeeds
/// assert_eq!(dev.counters().injected, 1);
/// ```
#[derive(Debug)]
pub struct FaultyDevice {
    inner: DeviceMemory,
    plan: FaultPlan,
    original_budget: u64,
    lost_at: Option<u64>,
    state: Mutex<FaultState>,
}

impl FaultyDevice {
    /// Wraps `inner`, replaying `plan` against its allocation stream. The
    /// device carries index 0, so only `lose:0,...` clauses apply to it.
    pub fn new(inner: DeviceMemory, plan: FaultPlan) -> Self {
        FaultyDevice::with_index(inner, plan, 0)
    }

    /// Wraps `inner` as device `index` of a pool: only the plan's
    /// [`DeviceLoss`] entries naming `index` ever fire here. A loss
    /// naming an index no pool member carries never fires anywhere.
    pub fn with_index(inner: DeviceMemory, plan: FaultPlan, index: usize) -> Self {
        let original_budget = inner.budget();
        let lost_at = plan.lost_at(index);
        FaultyDevice {
            inner,
            original_budget,
            lost_at,
            state: Mutex::new(FaultState {
                rng: splitmix_seed(plan.seed),
                counters: FaultCounters::default(),
                events_applied: 0,
            }),
            plan,
        }
    }

    /// The wrapped device.
    pub fn inner(&self) -> &DeviceMemory {
        &self.inner
    }

    /// Whether the plan has already lost this device: true once the
    /// allocation counter has reached the loss point.
    pub fn is_lost(&self) -> bool {
        self.lost_at
            .is_some_and(|at| self.lock().counters.allocs >= at)
    }

    /// The plan being replayed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Fault counters so far.
    pub fn counters(&self) -> FaultCounters {
        self.lock().counters
    }

    /// Resets the fault streams to the state they would hold after exactly
    /// `allocs` allocation calls from a fresh start.
    ///
    /// Works in both directions: a resume fast-forwards a freshly built
    /// device to a snapshot's recorded position, and a rollback can rewind
    /// a live device. The probabilistic stream is replayed draw-by-draw
    /// (its position depends only on the allocation index, never on which
    /// faults fired), counters are recomputed, and the wrapped budget is
    /// set to `original × factor` of the last budget event at or before
    /// `allocs` (the original budget when none has fired yet).
    pub fn fast_forward(&self, allocs: u64) {
        let mut st = self.lock();
        let mut rng = splitmix_seed(self.plan.seed);
        let mut injected = 0u64;
        for n in 1..=allocs {
            let mut inject = self.plan.fail_nth.binary_search(&n).is_ok();
            if self.plan.transient_prob > 0.0 {
                let draw = next_f64(&mut rng);
                inject |= draw < self.plan.transient_prob;
            }
            if inject {
                injected += 1;
            }
        }
        let applied = self
            .plan
            .budget_events
            .iter()
            .take_while(|e| e.at_alloc <= allocs)
            .count();
        let factor = if applied == 0 {
            1.0
        } else {
            self.plan.budget_events[applied - 1].factor
        };
        self.inner
            .set_budget((self.original_budget as f64 * factor) as u64);
        st.rng = rng;
        st.events_applied = applied;
        st.counters = FaultCounters {
            allocs,
            injected,
            budget_changes: applied as u64,
        };
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl fmt::Display for FaultyDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.counters();
        write!(
            f,
            "faulty device: {} allocs, {} injected faults, {} budget changes",
            c.allocs, c.injected, c.budget_changes
        )
    }
}

impl Device for FaultyDevice {
    fn alloc(&self, bytes: u64) -> Result<AllocId, OomError> {
        let (inject, lost) = {
            let mut st = self.lock();
            st.counters.allocs += 1;
            let n = st.counters.allocs;
            while st.events_applied < self.plan.budget_events.len()
                && self.plan.budget_events[st.events_applied].at_alloc <= n
            {
                let ev = self.plan.budget_events[st.events_applied];
                self.inner
                    .set_budget((self.original_budget as f64 * ev.factor) as u64);
                st.events_applied += 1;
                st.counters.budget_changes += 1;
            }
            let mut inject = self.plan.fail_nth.binary_search(&n).is_ok();
            if self.plan.transient_prob > 0.0 {
                // Always draw, so the stream position depends only on the
                // allocation index — not on which faults fired.
                // lint:allow(rng-stream-discipline): stream-exact — the guard is plan-constant (transient_prob is fixed for the whole run), so fast_forward replays the identical per-alloc draw count (suppresses chain: DevicePool::alloc → FaultyDevice::alloc → next_f64())
                let draw = next_f64(&mut st.rng);
                inject |= draw < self.plan.transient_prob;
            }
            if inject {
                st.counters.injected += 1;
            }
            // The loss dominates any transient injection at the same
            // index: once the device is gone, every alloc fails for good.
            let lost = self.lost_at.is_some_and(|at| n >= at);
            (inject, lost)
        };
        if lost {
            let mut e = OomError::new(bytes, self.inner.in_use(), self.inner.budget());
            e.device_lost = true;
            return Err(e);
        }
        if inject {
            let mut e = OomError::new(bytes, self.inner.in_use(), self.inner.budget());
            e.transient = true;
            return Err(e);
        }
        self.inner.alloc(bytes)
    }
    fn free(&self, id: AllocId) {
        self.inner.free(id);
    }
    fn budget(&self) -> u64 {
        self.inner.budget()
    }
    fn set_budget(&self, bytes: u64) {
        self.inner.set_budget(bytes);
    }
    fn in_use(&self) -> u64 {
        self.inner.in_use()
    }
    fn peak(&self) -> u64 {
        self.inner.peak()
    }
    fn reset_peak(&self) {
        self.inner.reset_peak();
    }
    fn free_all(&self) {
        self.inner.free_all();
    }
    fn snapshot_position(&self) -> (Vec<u64>, Vec<u64>) {
        (vec![self.lock().counters.allocs], Vec::new())
    }
    fn restore_position(&self, allocs: &[u64], _dead: &[u64]) {
        if let Some(&n) = allocs.first() {
            self.fast_forward(n);
        }
    }
}

/// SplitMix64: tiny, seedable, and plenty for fault schedules. Seeding
/// with a fixed increment first decorrelates small user seeds.
fn splitmix_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x1234_5678_9ABC_DEF0
}

fn next_u64(state: &mut u64) -> u64 {
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

    fn drain(dev: &FaultyDevice, n: usize, bytes: u64) -> Vec<bool> {
        (0..n)
            .map(|_| match Device::alloc(dev, bytes) {
                Ok(id) => {
                    Device::free(dev, id);
                    true
                }
                Err(_) => false,
            })
            .collect()
    }

    #[test]
    fn noop_plan_is_transparent() {
        let dev = FaultyDevice::new(DeviceMemory::new(100), FaultPlan::none());
        assert!(FaultPlan::none().is_noop());
        assert!(drain(&dev, 10, 10).iter().all(|&ok| ok));
        assert_eq!(dev.counters().injected, 0);
        assert_eq!(dev.counters().allocs, 10);
    }

    #[test]
    fn fail_nth_hits_exactly_those_allocs() {
        let plan = FaultPlan::parse("transient:nth=2,nth=4").unwrap();
        let dev = FaultyDevice::new(DeviceMemory::new(100), plan);
        assert_eq!(drain(&dev, 5, 10), vec![true, false, true, false, true]);
        assert_eq!(dev.counters().injected, 2);
    }

    #[test]
    fn probabilistic_faults_are_deterministic_from_seed() {
        let run = |seed: u64| {
            let dev = FaultyDevice::new(DeviceMemory::new(100), FaultPlan::transient(0.3, seed));
            drain(&dev, 200, 10)
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
        let plan = FaultPlan::parse("shrink:at=3,factor=0.5,restore=5").unwrap();
        let dev = FaultyDevice::new(DeviceMemory::new(100), plan);
        assert!(Device::alloc(&dev, 80)
            .map(|id| Device::free(&dev, id))
            .is_ok());
        assert!(Device::alloc(&dev, 80)
            .map(|id| Device::free(&dev, id))
            .is_ok());
        // 3rd alloc: budget is now 50, and the error is NOT transient.
        let err = Device::alloc(&dev, 80).unwrap_err();
        assert!(!err.transient);
        assert_eq!(err.budget, 50);
        assert!(Device::alloc(&dev, 40)
            .map(|id| Device::free(&dev, id))
            .is_ok());
        // 5th alloc: restored.
        assert!(Device::alloc(&dev, 80).is_ok());
        assert_eq!(dev.counters().budget_changes, 2);
    }

    #[test]
    fn injected_faults_leave_state_untouched() {
        let plan = FaultPlan::parse("transient:nth=1").unwrap();
        let dev = FaultyDevice::new(DeviceMemory::new(100), plan);
        let err = Device::alloc(&dev, 10).unwrap_err();
        assert!(err.transient);
        assert_eq!(dev.in_use(), 0);
        assert_eq!(dev.inner().live_allocations(), 0);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultPlan::parse("transient").is_err());
        assert!(FaultPlan::parse("transient:p=2.0").is_err());
        assert!(FaultPlan::parse("transient:bogus=1").is_err());
        assert!(FaultPlan::parse("shrink:factor=0.5").is_err());
        assert!(FaultPlan::parse("shrink:at=3,factor=1.5").is_err());
        assert!(FaultPlan::parse("meteor:at=1").is_err());
        assert!(FaultPlan::parse("transient:p").is_err());
    }

    #[test]
    fn parse_crash_clause() {
        let plan = FaultPlan::parse("crash:at=3,bytes=64,torn=1").unwrap();
        assert_eq!(
            plan.crash,
            Some(CrashPoint {
                at_save: 3,
                after_bytes: Some(64),
                torn: true
            })
        );
        assert!(!plan.is_noop());
        assert!(plan.crash.unwrap().fires(3));
        assert!(!plan.crash.unwrap().fires(2));

        let plan = FaultPlan::parse("crash:at=1").unwrap();
        assert_eq!(
            plan.crash,
            Some(CrashPoint {
                at_save: 1,
                after_bytes: None,
                torn: false
            })
        );

        assert!(FaultPlan::parse("crash:bytes=10").is_err());
        assert!(FaultPlan::parse("crash:at=0").is_err());
        assert!(FaultPlan::parse("crash:at=1,torn=2").is_err());
        assert!(FaultPlan::parse("crash:at=1,bogus=1").is_err());
    }

    #[test]
    fn fast_forward_matches_live_stream() {
        let spec = "transient:p=0.3,seed=7,nth=2;shrink:at=5,factor=0.5,restore=12";
        // Reference: run 20 allocs live, record the outcome of allocs 9..20.
        let live = FaultyDevice::new(DeviceMemory::new(100), FaultPlan::parse(spec).unwrap());
        let full = drain(&live, 20, 10);
        // Fresh device fast-forwarded to position 8 must replay 9..20
        // identically, with identical counters at every point.
        let ff = FaultyDevice::new(DeviceMemory::new(100), FaultPlan::parse(spec).unwrap());
        ff.fast_forward(8);
        assert_eq!(ff.snapshot_position(), (vec![8], Vec::new()));
        let tail = drain(&ff, 12, 10);
        assert_eq!(tail, full[8..], "fast-forwarded stream must match live");
        assert_eq!(ff.counters(), live.counters());
    }

    #[test]
    fn fast_forward_rewinds_budget_and_counters() {
        let plan = FaultPlan::parse("shrink:at=3,factor=0.5,restore=5").unwrap();
        let dev = FaultyDevice::new(DeviceMemory::new(100), plan);
        drain(&dev, 6, 10);
        assert_eq!(dev.budget(), 100); // restored at alloc 5
                                       // Rewind into the shrunken window.
        dev.fast_forward(3);
        assert_eq!(dev.budget(), 50);
        assert_eq!(dev.counters().allocs, 3);
        assert_eq!(dev.counters().budget_changes, 1);
        // Rewind before any event: original budget, zeroed counters.
        dev.fast_forward(0);
        assert_eq!(dev.budget(), 100);
        assert_eq!(dev.counters(), FaultCounters::default());
    }

    #[test]
    fn parse_lose_clause_roundtrips() {
        let plan = FaultPlan::parse("lose:1,40").unwrap();
        assert_eq!(
            plan.device_loss,
            vec![DeviceLoss {
                device: 1,
                at_alloc: 40
            }]
        );
        assert!(!plan.is_noop());
        assert_eq!(plan.lost_at(1), Some(40));
        assert_eq!(plan.lost_at(0), None);
        // Multiple losses sort by (device, at_alloc); the earliest wins.
        let plan = FaultPlan::parse("lose:2,9;lose:0,5;lose:2,3").unwrap();
        assert_eq!(plan.lost_at(2), Some(3));
        assert_eq!(plan.lost_at(0), Some(5));
        // Combines with the other clauses.
        let plan = FaultPlan::parse("transient:p=0.1,seed=7;lose:1,4").unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.lost_at(1), Some(4));
    }

    #[test]
    fn parse_rejects_malformed_lose_specs() {
        // No params, a single param, 0-based at_alloc, negative or
        // non-numeric indices, too many params.
        assert!(FaultPlan::parse("lose:").is_err());
        assert!(FaultPlan::parse("lose:0").is_err());
        assert!(FaultPlan::parse("lose:1,0").is_err());
        assert!(FaultPlan::parse("lose:-1,5").is_err());
        assert!(FaultPlan::parse("lose:1,-5").is_err());
        assert!(FaultPlan::parse("lose:one,5").is_err());
        assert!(FaultPlan::parse("lose:1,2,3").is_err());
    }

    #[test]
    fn device_loss_is_permanent_and_distinguishable() {
        let plan = FaultPlan::parse("lose:0,3").unwrap();
        let dev = FaultyDevice::new(DeviceMemory::new(100), plan);
        assert_eq!(drain(&dev, 2, 10), vec![true, true]);
        assert!(!dev.is_lost());
        // From the 3rd alloc on, every attempt fails with the permanent
        // marker set — not the transient one.
        for _ in 0..4 {
            let err = Device::alloc(&dev, 10).unwrap_err();
            assert!(err.device_lost);
            assert!(!err.transient);
        }
        assert!(dev.is_lost());
        assert_eq!(dev.counters().allocs, 6);
        assert_eq!(dev.counters().injected, 0);
        assert!(dev.to_string().contains("6 allocs"));
        let s = Device::alloc(&dev, 10).unwrap_err().to_string();
        assert!(s.contains("device lost"), "{s}");
    }

    #[test]
    fn device_loss_only_fires_on_its_own_index() {
        // The same plan wraps two pool members; only index 1 dies.
        let plan = FaultPlan::parse("lose:1,1").unwrap();
        let d0 = FaultyDevice::with_index(DeviceMemory::new(100), plan.clone(), 0);
        let d1 = FaultyDevice::with_index(DeviceMemory::new(100), plan, 1);
        assert!(drain(&d0, 5, 10).iter().all(|&ok| ok));
        assert!(drain(&d1, 5, 10).iter().all(|&ok| !ok));
        assert!(!d0.is_lost());
        assert!(d1.is_lost());
    }

    #[test]
    fn fast_forward_preserves_loss_state() {
        let spec = "transient:p=0.3,seed=7;lose:0,5";
        let live = FaultyDevice::new(DeviceMemory::new(100), FaultPlan::parse(spec).unwrap());
        let full = drain(&live, 12, 10);
        // Fast-forwarding past the loss point lands in the dead state and
        // replays the identical (all-failing) tail.
        let ff = FaultyDevice::new(DeviceMemory::new(100), FaultPlan::parse(spec).unwrap());
        ff.fast_forward(8);
        assert!(ff.is_lost());
        assert_eq!(drain(&ff, 4, 10), full[8..]);
        // Rewinding before the loss point revives it.
        ff.fast_forward(2);
        assert!(!ff.is_lost());
    }

    #[test]
    fn parse_combines_clauses() {
        let plan = FaultPlan::parse("transient:p=0.1,seed=7;shrink:at=10,factor=0.25").unwrap();
        assert_eq!(plan.seed, 7);
        assert!((plan.transient_prob - 0.1).abs() < 1e-12);
        assert_eq!(
            plan.budget_events,
            vec![BudgetEvent {
                at_alloc: 10,
                factor: 0.25
            }]
        );
        assert!(!plan.is_noop());
    }

    /// Each clause kind with its keys and a value each accepts (`lose`'s
    /// keys are positional, so empty), then an unknown kind.
    const CLAUSES: [(&str, [(&str, &str); 3]); 5] = [
        ("transient", [("p", "0.25"), ("seed", "7"), ("nth", "5")]),
        (
            "shrink",
            [("at", "10"), ("factor", "0.5"), ("restore", "30")],
        ),
        ("crash", [("at", "3"), ("bytes", "64"), ("torn", "1")]),
        ("lose", [("", "1"), ("", "40"), ("", "2")]),
        ("meteor", [("at", "1"), ("p", "0.5"), ("", "1")]),
    ];
    /// Values out of some key's range or type: the range edges, past
    /// `u64::MAX`, and text that is no number at all.
    const EDGES: [&str; 12] = [
        "0",
        "1",
        "-1",
        "nan",
        "1e400",
        "true",
        "18446744073709551615",
        "18446744073709551616",
        " 2 ",
        "",
        "=",
        "\u{e9}",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// A spec, arbitrary or assembled from the vocabulary above as
        /// `kind:key=value,...;...`, parses or is rejected; it never
        /// panics, and what parses holds the plan's documented ranges and
        /// orders. An assembled parameter is one of its kind's keys or
        /// `bogus`, with the value that key accepts three times in four
        /// and an edge value otherwise.
        #[test]
        fn fault_spec_parsing_is_total(
            raw in vec(0u16..256, 0..256),
            clauses in vec((0..CLAUSES.len(), vec((0usize..4, 0..4 * EDGES.len()), 0..4)), 0..4),
        ) {
            let raw: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
            let _ = FaultPlan::parse(&String::from_utf8_lossy(&raw));
            let clause = |(kind, params): &(usize, Vec<(usize, usize)>)| {
                let (kind, keys) = CLAUSES[*kind];
                let params: Vec<String> = params
                    .iter()
                    .map(|&(k, v)| {
                        let (key, accepted) = keys.get(k).copied().unwrap_or(("bogus", "1"));
                        let value = EDGES.get(v).copied().unwrap_or(accepted);
                        match key {
                            "" => value.to_owned(),
                            key => format!("{key}={value}"),
                        }
                    })
                    .collect();
                format!("{kind}:{}", params.join(","))
            };
            let spec = clauses.iter().map(clause).collect::<Vec<_>>().join(";");
            if let Ok(plan) = FaultPlan::parse(&spec) {
                prop_assert!((0.0..1.0).contains(&plan.transient_prob));
                prop_assert!(plan.fail_nth.windows(2).all(|w| w[0] <= w[1]));
                prop_assert!(plan.budget_events.windows(2).all(|w| w[0].at_alloc <= w[1].at_alloc));
                prop_assert!(plan.budget_events.iter().all(|e| (0.0..=1.0).contains(&e.factor)));
                prop_assert!(plan.crash.is_none_or(|c| c.at_save >= 1));
                prop_assert!(plan.device_loss.iter().all(|l| l.at_alloc >= 1));
                let key = |l: &DeviceLoss| (l.device, l.at_alloc);
                prop_assert!(plan.device_loss.windows(2).all(|w| key(&w[0]) <= key(&w[1])));
            }
        }
    }
}
