//! Simulated device timeline: critical-path makespan accounting for
//! pipelined micro-batch execution.
//!
//! The trainers split one iteration into a CPU **Prepare** stage (seed
//! restriction, block generation, feature/label gather) and a device
//! **Execute** stage (transfer + forward/backward). When those stages are
//! pipelined, iteration time is no longer the sum of all component times —
//! it is the critical path through a two-resource schedule in which
//! preparation of micro-batch *i + 1* overlaps device work of micro-batch
//! *i*, bounded by how many prepared micro-batches may be in flight at
//! once. [`DeviceTimeline`] replays that schedule exactly, and
//! [`StageTimings`] carries the resulting breakdown (the paper's Figure 11
//! components plus the overlapped makespan) back through the trainers.

use std::collections::VecDeque;

/// Per-iteration timing breakdown of the staged pipeline.
///
/// Component fields are *summed busy time* per stage; `overlapped_makespan`
/// is the end-to-end critical path of the same work under the pipeline
/// schedule. For serial execution (pipeline depth 1) the makespan equals
/// [`serial_sum`](Self::serial_sum); for any depth it satisfies
/// `max_stage() ≤ overlapped_makespan ≤ serial_sum()`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Buffalo scheduling wall clock, seconds (serial prefix — the plan
    /// must exist before any micro-batch can be prepared).
    pub schedule_seconds: f64,
    /// Block generation wall clock across all micro-batches, seconds
    /// (part of Prepare).
    pub block_gen_seconds: f64,
    /// Feature/label gather wall clock across all micro-batches, seconds
    /// (part of Prepare).
    pub gather_seconds: f64,
    /// Simulated device compute across all micro-batches, seconds.
    pub sim_compute_seconds: f64,
    /// Simulated host→device transfer across all micro-batches, seconds.
    pub sim_transfer_seconds: f64,
    /// End-to-end iteration time under the pipeline schedule, seconds.
    pub overlapped_makespan: f64,
}

impl StageTimings {
    /// Total CPU Prepare time (block generation + gather).
    pub fn prepare_seconds(&self) -> f64 {
        self.block_gen_seconds + self.gather_seconds
    }

    /// Total device Execute time (transfer + compute).
    pub(crate) fn device_seconds(&self) -> f64 {
        self.sim_compute_seconds + self.sim_transfer_seconds
    }

    /// Iteration time if every stage ran back-to-back with no overlap.
    pub fn serial_sum(&self) -> f64 {
        self.schedule_seconds + self.prepare_seconds() + self.device_seconds()
    }

    /// The busiest single stage — no schedule can beat it.
    pub fn max_stage(&self) -> f64 {
        self.schedule_seconds
            .max(self.prepare_seconds())
            .max(self.device_seconds())
    }

    /// Serial-over-overlapped speedup (1.0 when nothing overlaps).
    pub fn speedup(&self) -> f64 {
        self.serial_sum() / self.overlapped_makespan.max(1e-12)
    }

    /// Accumulates another iteration's timings (makespans add: iterations
    /// run back-to-back).
    pub fn accumulate(&mut self, other: &StageTimings) {
        self.schedule_seconds += other.schedule_seconds;
        self.block_gen_seconds += other.block_gen_seconds;
        self.gather_seconds += other.gather_seconds;
        self.sim_compute_seconds += other.sim_compute_seconds;
        self.sim_transfer_seconds += other.sim_transfer_seconds;
        self.overlapped_makespan += other.overlapped_makespan;
    }
}

/// Replays a two-stage (Prepare → Execute) pipeline schedule and reports
/// its critical-path makespan.
///
/// `depth` bounds how many micro-batches may exist between the start of
/// their preparation and the end of their device execution — the capacity
/// of the prepared-batch buffer plus the one executing. Depth 1 is strict
/// serial execution (prepare *i* cannot start until *i − 1* left the
/// device); depth 2 is classic double buffering.
///
/// Invariants, for any recorded durations:
///
/// * `makespan() ≤ Σ prepare + Σ device` (overlap never hurts), with
///   equality at depth 1;
/// * `makespan() ≥ max(Σ prepare, Σ device)` (each resource is serial).
///
/// # Examples
///
/// ```
/// use buffalo_memsim::DeviceTimeline;
///
/// let mut tl = DeviceTimeline::new(2);
/// tl.record(1.0, 1.0);
/// tl.record(1.0, 1.0);
/// tl.record(1.0, 1.0);
/// // Serial would be 6.0; double buffering hides two prepares.
/// assert!((tl.makespan() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct DeviceTimeline {
    depth: usize,
    prepare_frontier: f64,
    device_frontier: f64,
    completions: VecDeque<f64>,
}

impl DeviceTimeline {
    /// Creates a timeline with the given pipeline depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "pipeline depth must be at least 1");
        DeviceTimeline {
            depth,
            prepare_frontier: 0.0,
            device_frontier: 0.0,
            completions: VecDeque::with_capacity(depth),
        }
    }

    /// Records one micro-batch: `prepare_s` seconds of CPU preparation
    /// followed by `device_s` seconds of device execution. Returns the
    /// micro-batch's completion time on the simulated clock.
    pub fn record(&mut self, prepare_s: f64, device_s: f64) -> f64 {
        // Preparation needs a free buffer slot: the slot held by the
        // micro-batch `depth` positions back frees when that one leaves
        // the device.
        let slot_free = if self.completions.len() >= self.depth {
            self.completions[self.completions.len() - self.depth]
        } else {
            0.0
        };
        let prepare_end = self.prepare_frontier.max(slot_free) + prepare_s.max(0.0);
        self.prepare_frontier = prepare_end;
        // In-order execution on a single simulated device.
        let device_end = self.device_frontier.max(prepare_end) + device_s.max(0.0);
        self.device_frontier = device_end;
        if self.completions.len() == self.depth {
            self.completions.pop_front();
        }
        self.completions.push_back(device_end);
        device_end
    }

    /// Critical-path end-to-end time of everything recorded so far.
    pub fn makespan(&self) -> f64 {
        self.device_frontier.max(self.prepare_frontier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_one_is_exactly_serial() {
        let mut tl = DeviceTimeline::new(1);
        for (p, d) in [(0.5, 2.0), (1.5, 0.25), (3.0, 1.0)] {
            tl.record(p, d);
        }
        assert!((tl.makespan() - 8.25).abs() < 1e-12);
    }

    #[test]
    fn double_buffering_hides_the_shorter_stage() {
        let mut tl = DeviceTimeline::new(2);
        // Device-bound: prepare fully hidden after the first.
        tl.record(1.0, 3.0);
        tl.record(1.0, 3.0);
        tl.record(1.0, 3.0);
        assert!((tl.makespan() - (1.0 + 9.0)).abs() < 1e-12);
    }

    #[test]
    fn bounded_buffer_throttles_the_producer() {
        // With a fast producer and slow device, depth 2 forces prepare i
        // to wait for completion of i - 2; an unbounded pipeline would
        // finish all prepares immediately.
        let mut tl = DeviceTimeline::new(2);
        for _ in 0..4 {
            tl.record(0.1, 1.0);
        }
        // Device chain dominates: 0.1 + 4.0.
        assert!((tl.makespan() - 4.1).abs() < 1e-12);
        // The last prepare could not have started before t = 1.1
        // (completion of micro-batch 1 at 0.1 + 1.0).
        assert!(tl.prepare_frontier >= 1.1);
    }

    #[test]
    fn makespan_between_bounds() {
        let durations = [(0.3, 0.7), (2.0, 0.1), (0.05, 0.05), (1.0, 1.0)];
        for depth in 1..=4 {
            let mut tl = DeviceTimeline::new(depth);
            for &(p, d) in &durations {
                tl.record(p, d);
            }
            let prepare: f64 = durations.iter().map(|&(p, _)| p).sum();
            let device: f64 = durations.iter().map(|&(_, d)| d).sum();
            let lower = prepare.max(device);
            assert!(tl.makespan() <= prepare + device + 1e-12, "depth {depth}");
            assert!(tl.makespan() + 1e-12 >= lower, "depth {depth}");
        }
    }

    #[test]
    fn deeper_pipelines_never_slow_down() {
        let durations = [(0.2, 0.9), (1.4, 0.3), (0.6, 0.6), (0.1, 2.0)];
        let mut last = f64::INFINITY;
        for depth in 1..=5 {
            let mut tl = DeviceTimeline::new(depth);
            for &(p, d) in &durations {
                tl.record(p, d);
            }
            assert!(tl.makespan() <= last + 1e-12, "depth {depth}");
            last = tl.makespan();
        }
    }

    #[test]
    fn stage_timings_invariants_and_speedup() {
        let t = StageTimings {
            schedule_seconds: 0.2,
            block_gen_seconds: 1.0,
            gather_seconds: 0.5,
            sim_compute_seconds: 2.0,
            sim_transfer_seconds: 0.3,
            overlapped_makespan: 2.8,
        };
        assert!((t.prepare_seconds() - 1.5).abs() < 1e-12);
        assert!((t.device_seconds() - 2.3).abs() < 1e-12);
        assert!((t.serial_sum() - 4.0).abs() < 1e-12);
        assert!((t.max_stage() - 2.3).abs() < 1e-12);
        assert!(t.overlapped_makespan <= t.serial_sum());
        assert!(t.overlapped_makespan >= t.max_stage());
        assert!(t.speedup() > 1.0);
        let mut acc = StageTimings::default();
        acc.accumulate(&t);
        acc.accumulate(&t);
        assert!((acc.serial_sum() - 8.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "depth must be at least 1")]
    fn zero_depth_is_rejected() {
        let _ = DeviceTimeline::new(0);
    }
}
