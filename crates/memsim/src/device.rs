//! Budgeted device-memory simulator.

use crate::DevicePool;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Handle to a live simulated allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllocId(pub(crate) u64);

/// Returned when an allocation would exceed the device budget — the
/// simulated equivalent of CUDA's out-of-memory error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OomError {
    /// Bytes requested by the failing allocation.
    pub requested: u64,
    /// Bytes in use at the time of the request.
    pub in_use: u64,
    /// Total device budget.
    pub budget: u64,
    /// `true` when the failure was injected by a fault plan (see
    /// [`DevicePool`](crate::DevicePool)) rather than a genuine budget
    /// overflow — transient faults are worth retrying, overflows are not.
    pub transient: bool,
    /// `true` when the device has been lost for good (a whole-device-loss
    /// fault, see [`FaultPlan::device_loss`](crate::FaultPlan)): every
    /// subsequent allocation on this device fails too, so retrying is
    /// pointless — the caller must fail over to a surviving device.
    pub device_lost: bool,
    /// When a double-buffered executor freed the previous micro-batch's
    /// allocation and retried, the original failure (observed with the
    /// previous allocation still resident) is preserved here so OOM
    /// reports attribute both attempts.
    pub first_attempt: Option<Box<OomError>>,
}

impl OomError {
    /// A genuine (non-injected, first-attempt) out-of-memory failure.
    pub fn new(requested: u64, in_use: u64, budget: u64) -> Self {
        OomError {
            requested,
            in_use,
            budget,
            transient: false,
            device_lost: false,
            first_attempt: None,
        }
    }
}

impl fmt::Display for OomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of device memory: requested {} B with {} B in use of {} B budget",
            self.requested, self.in_use, self.budget
        )?;
        if self.transient {
            write!(f, " (injected transient fault)")?;
        }
        if self.device_lost {
            write!(f, " (device lost)")?;
        }
        if let Some(first) = &self.first_attempt {
            write!(f, "; first attempt failed with {} B in use", first.in_use)?;
        }
        Ok(())
    }
}

impl std::error::Error for OomError {}

/// Object-safe view of a budgeted device: everything trainers and the
/// simulation pipeline need from device memory, implemented by the plain
/// [`DeviceMemory`] and by the fault-injecting [`DevicePool`]. Trainers
/// accept `&dyn Device`, so any call site holding a `&DeviceMemory`
/// keeps working unchanged.
pub trait Device: Sync {
    /// Attempts to allocate `bytes` (see [`DeviceMemory::alloc`]).
    fn alloc(&self, bytes: u64) -> Result<AllocId, OomError>;
    /// Releases a live allocation (see [`DeviceMemory::free`]).
    fn free(&self, id: AllocId);
    /// The current budget in bytes.
    fn budget(&self) -> u64;
    /// Replaces the budget without evicting anything; when shrunk below
    /// current usage, allocations fail until enough is freed.
    fn set_budget(&self, bytes: u64);
    /// Bytes currently allocated.
    fn in_use(&self) -> u64;
    /// High-water mark since creation or the last [`reset_peak`](Device::reset_peak).
    fn peak(&self) -> u64;
    /// Resets the peak to the current usage.
    fn reset_peak(&self);
    /// Frees everything.
    fn free_all(&self);

    /// The pool behind this handle, if it is one: micro-batch routing,
    /// the schedule budget, failover and the fault streams' position
    /// are [`DevicePool`] methods. A plain device is a lone device with
    /// nowhere to fail over to, and each caller spells out that answer.
    fn pool(&self) -> Option<&DevicePool> {
        None
    }
}

#[derive(Debug, Default)]
struct State {
    /// Live allocations by id. Ordered map so that any future drain or
    /// debug dump of the allocation table is id-ordered — hash containers
    /// are banned from memsim by the nondet-iteration lint because
    /// allocation-table walks feed accounting decisions.
    live: BTreeMap<u64, u64>,
    in_use: u64,
    peak: u64,
}

/// A simulated GPU memory pool with a hard byte budget.
///
/// Thread-safe: trainers and schedulers share one device through `&self`.
/// Allocation faults with [`OomError`] when the budget would be exceeded —
/// this is how every "OOM" cell in the paper's tables is reproduced.
///
/// # Examples
///
/// ```
/// use buffalo_memsim::DeviceMemory;
///
/// let dev = DeviceMemory::new(1_000);
/// let a = dev.alloc(600).unwrap();
/// assert!(dev.alloc(600).is_err()); // would exceed budget
/// dev.free(a);
/// assert!(dev.alloc(600).is_ok());
/// assert_eq!(dev.peak(), 1_200 - 600); // peak was 600
/// ```
#[derive(Debug)]
pub struct DeviceMemory {
    budget: AtomicU64,
    next_id: AtomicU64,
    state: Mutex<State>,
}

impl DeviceMemory {
    /// Creates a device with `budget` bytes of memory.
    pub fn new(budget: u64) -> Self {
        DeviceMemory {
            budget: AtomicU64::new(budget),
            next_id: AtomicU64::new(0),
            state: Mutex::new(State::default()),
        }
    }

    /// Creates a device with a budget in GiB (the unit used throughout the
    /// paper's figures: 16, 24, 48, 80 GB).
    pub fn with_gib(gib: f64) -> Self {
        DeviceMemory::new((gib * (1u64 << 30) as f64) as u64)
    }

    /// The current budget in bytes.
    pub fn budget(&self) -> u64 {
        self.budget.load(Ordering::Relaxed)
    }

    /// Replaces the budget — the simulated equivalent of a co-tenant
    /// process grabbing (or releasing) device memory, or fragmentation
    /// shrinking the usable pool. Nothing is evicted: if the new budget is
    /// below current usage, every allocation fails until enough is freed.
    pub(crate) fn set_budget(&self, bytes: u64) {
        // Taking the state lock orders the change against in-flight allocs.
        let _st = self.lock();
        self.budget.store(bytes, Ordering::Relaxed);
    }

    /// Mirrors `parking_lot` semantics: a panic while holding the lock
    /// (e.g. a deliberate double-free abort) must not wedge the simulator
    /// for other threads.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Attempts to allocate `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] if the allocation would exceed the budget. The
    /// pool is unchanged on failure.
    pub fn alloc(&self, bytes: u64) -> Result<AllocId, OomError> {
        let mut st = self.lock();
        let budget = self.budget.load(Ordering::Relaxed);
        if st.in_use + bytes > budget {
            return Err(OomError::new(bytes, st.in_use, budget));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        st.in_use += bytes;
        st.peak = st.peak.max(st.in_use);
        st.live.insert(id, bytes);
        Ok(AllocId(id))
    }

    /// Releases a live allocation.
    ///
    /// # Panics
    ///
    /// Panics on double-free or an id from another device.
    pub fn free(&self, id: AllocId) {
        let mut st = self.lock();
        let bytes = st
            .live
            .remove(&id.0)
            // lint:allow(panic-reachability): accounting invariant — Residency frees every alloc id exactly once; a double-free is a caller bug the simulator should crash on loudly (suppresses chain: Residency::acquire → DeviceMemory::free → .expect())
            .expect("free of unknown or already-freed allocation");
        st.in_use -= bytes;
    }

    /// Bytes currently allocated.
    pub fn in_use(&self) -> u64 {
        self.lock().in_use
    }

    /// High-water mark since creation or the last `reset_peak`.
    pub fn peak(&self) -> u64 {
        self.lock().peak
    }

    /// Resets the peak to the current usage (call between iterations to get
    /// per-iteration peaks).
    pub(crate) fn reset_peak(&self) {
        let mut st = self.lock();
        st.peak = st.in_use;
    }

    /// Frees everything (end of iteration / micro-batch teardown).
    pub(crate) fn free_all(&self) {
        let mut st = self.lock();
        st.live.clear();
        st.in_use = 0;
    }
}

impl Device for DeviceMemory {
    fn alloc(&self, bytes: u64) -> Result<AllocId, OomError> {
        DeviceMemory::alloc(self, bytes)
    }
    fn free(&self, id: AllocId) {
        DeviceMemory::free(self, id);
    }
    fn budget(&self) -> u64 {
        DeviceMemory::budget(self)
    }
    fn set_budget(&self, bytes: u64) {
        DeviceMemory::set_budget(self, bytes);
    }
    fn in_use(&self) -> u64 {
        DeviceMemory::in_use(self)
    }
    fn peak(&self) -> u64 {
        DeviceMemory::peak(self)
    }
    fn reset_peak(&self) {
        DeviceMemory::reset_peak(self);
    }
    fn free_all(&self) {
        DeviceMemory::free_all(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        let dev = DeviceMemory::new(100);
        let a = dev.alloc(40).unwrap();
        let b = dev.alloc(60).unwrap();
        assert_eq!(dev.in_use(), 100);
        dev.free(a);
        assert_eq!(dev.in_use(), 60);
        dev.free(b);
        assert_eq!(dev.in_use(), 0);
        assert_eq!(dev.peak(), 100);
    }

    #[test]
    fn oom_reports_accurate_numbers() {
        let dev = DeviceMemory::new(100);
        let _a = dev.alloc(80).unwrap();
        let err = dev.alloc(30).unwrap_err();
        assert_eq!(err.requested, 30);
        assert_eq!(err.in_use, 80);
        assert_eq!(err.budget, 100);
        // Failed alloc must not change state.
        assert_eq!(dev.in_use(), 80);
        assert_eq!(dev.peak(), 80);
    }

    #[test]
    fn exact_fit_is_allowed() {
        let dev = DeviceMemory::new(100);
        assert!(dev.alloc(100).is_ok());
        assert!(dev.alloc(0).is_ok()); // zero-sized alloc always fits
    }

    #[test]
    #[should_panic(expected = "already-freed")]
    fn double_free_panics() {
        let dev = DeviceMemory::new(10);
        let a = dev.alloc(5).unwrap();
        dev.free(a);
        dev.free(a);
    }

    #[test]
    fn reset_peak_tracks_iterations() {
        let dev = DeviceMemory::new(1000);
        let a = dev.alloc(700).unwrap();
        dev.free(a);
        assert_eq!(dev.peak(), 700);
        dev.reset_peak();
        assert_eq!(dev.peak(), 0);
        let _ = dev.alloc(300).unwrap();
        assert_eq!(dev.peak(), 300);
    }

    #[test]
    fn free_all_clears_everything() {
        let dev = DeviceMemory::new(100);
        let _ = dev.alloc(10).unwrap();
        let _ = dev.alloc(20).unwrap();
        dev.free_all();
        assert_eq!(dev.in_use(), 0);
        assert!(dev.alloc(100).is_ok());
    }

    #[test]
    fn set_budget_shrinks_without_evicting() {
        let dev = DeviceMemory::new(100);
        let a = dev.alloc(80).unwrap();
        dev.set_budget(50);
        assert_eq!(dev.budget(), 50);
        // Nothing evicted; usage may exceed the shrunken budget.
        assert_eq!(dev.in_use(), 80);
        let err = dev.alloc(1).unwrap_err();
        assert_eq!(err.budget, 50);
        assert!(!err.transient);
        dev.free(a);
        assert!(dev.alloc(50).is_ok());
        dev.set_budget(200);
        assert!(dev.alloc(150).is_ok());
    }

    #[test]
    fn trait_object_view_matches_inherent_api() {
        let dev = DeviceMemory::new(100);
        let d: &dyn Device = &dev;
        let a = d.alloc(60).unwrap();
        assert_eq!(d.in_use(), 60);
        assert_eq!(d.budget(), 100);
        d.free(a);
        d.free_all();
        d.reset_peak();
        assert_eq!(d.peak(), 0);
    }

    #[test]
    fn oom_display_mentions_fault_context() {
        let mut e = OomError::new(10, 5, 12);
        e.transient = true;
        e.first_attempt = Some(Box::new(OomError::new(10, 9, 12)));
        let s = e.to_string();
        assert!(s.contains("injected transient fault"), "{s}");
        assert!(s.contains("first attempt failed with 9 B"), "{s}");
    }

    #[test]
    fn with_gib_converts() {
        let dev = DeviceMemory::with_gib(24.0);
        assert_eq!(dev.budget(), 24 * (1u64 << 30));
    }

    #[test]
    fn concurrent_allocations_respect_budget() {
        use std::sync::Arc;
        let dev = Arc::new(DeviceMemory::new(1_000));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let d = Arc::clone(&dev);
            handles.push(std::thread::spawn(move || {
                let mut ok = 0;
                for _ in 0..100 {
                    if let Ok(id) = d.alloc(10) {
                        ok += 1;
                        std::hint::black_box(&id);
                    }
                }
                ok
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(dev.in_use(), total * 10);
        assert!(dev.in_use() <= 1_000);
    }
}
