//! Phase-timed iteration simulation for every partitioning strategy.
//!
//! This module is the measurement harness behind Figures 5 and 10–16: it
//! runs one training iteration's *data path* for real — scheduling,
//! partitioning, micro-batch extraction, block generation — with
//! wall-clock timing, and costs the device-side phases (feature transfer,
//! forward/backward compute) through the analytical
//! [`CostModel`]. No tensor math runs, so billion-scale stand-ins stay
//! tractable while every algorithmic cost the paper reports is real.

use crate::TrainError;
use buffalo_blocks::{generate_blocks_checked, BlockWalker};
use buffalo_bucketing::BuffaloScheduler;
use buffalo_graph::{CsrGraph, NodeId};
use buffalo_memsim::{measure, CostModel, Device, DeviceTimeline, GnnShape};
use buffalo_partition::{betty_partition, metis_kway, random_partition, range_partition};
use buffalo_sampling::Batch;
use std::time::Instant;

/// Partitioning strategy under simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// No partitioning: whole-batch training (DGL/PyG on one GPU).
    Full,
    /// Buffalo bucket-level scheduling (K chosen by the scheduler).
    Buffalo,
    /// Betty: REG construction + METIS into `k` micro-batches, with
    /// Betty-style checked block generation.
    Betty {
        /// Number of micro-batches.
        k: usize,
    },
    /// Plain METIS over the output-node graph into `k` micro-batches.
    Metis {
        /// Number of micro-batches.
        k: usize,
    },
    /// Uniform random output split.
    Random {
        /// Number of micro-batches.
        k: usize,
        /// Shuffle seed.
        seed: u64,
    },
    /// Contiguous range output split.
    Range {
        /// Number of micro-batches.
        k: usize,
    },
}

impl Strategy {
    /// Short display name as used in figure output.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Full => "full",
            Strategy::Buffalo => "buffalo",
            Strategy::Betty { .. } => "betty",
            Strategy::Metis { .. } => "metis",
            Strategy::Random { .. } => "random",
            Strategy::Range { .. } => "range",
        }
    }
}

/// Wall-clock / simulated seconds per execution phase — the seven
/// components of Figure 11.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    /// Buffalo scheduler time (real).
    pub scheduling: f64,
    /// Betty REG construction (real).
    pub reg_construction: f64,
    /// METIS partitioning (real).
    pub metis_partition: f64,
    /// Dependency tracking / micro-batch extraction (real). Only Betty's
    /// path has this phase: every other strategy builds a micro-batch's
    /// blocks in one walk of the sampled batch, timed as block generation.
    pub connection_check: f64,
    /// Block generation (real).
    pub block_construction: f64,
    /// Host→device feature + structure transfer (simulated).
    pub data_loading: f64,
    /// Forward/backward/step on device (simulated).
    pub gpu_compute: f64,
}

impl PhaseTimes {
    /// End-to-end iteration time.
    pub fn total(&self) -> f64 {
        self.scheduling
            + self.reg_construction
            + self.metis_partition
            + self.connection_check
            + self.block_construction
            + self.data_loading
            + self.gpu_compute
    }
}

/// Result of simulating one iteration.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Per-phase times.
    pub phases: PhaseTimes,
    /// Number of micro-batches executed.
    pub num_micro_batches: usize,
    /// Peak device memory over the iteration, bytes.
    pub peak_mem_bytes: u64,
    /// Memory footprint of every micro-batch, bytes (Figure 14).
    pub per_micro_mem: Vec<u64>,
    /// Total nodes across all micro-batches, counting cross-micro-batch
    /// redundancy (the numerator of the paper's computation-efficiency
    /// metric, §V-H).
    pub total_nodes: usize,
    /// Total message edges across all micro-batches.
    pub total_edges: usize,
    /// CPU-side preparation seconds per micro-batch (extraction + block
    /// generation), in execution order.
    pub per_micro_cpu: Vec<f64>,
    /// Device-side seconds per micro-batch (loading + compute), in
    /// execution order.
    pub per_micro_device: Vec<f64>,
}

impl SimReport {
    /// The paper's computation-efficiency metric: nodes processed per
    /// second of end-to-end iteration time.
    pub fn computation_efficiency(&self) -> f64 {
        self.total_nodes as f64 / self.phases.total().max(1e-12)
    }

    /// End-to-end iteration time under double-buffered execution, where
    /// micro-batch `i + 1`'s CPU preparation overlaps micro-batch `i`'s
    /// device work — the pipelining optimization the paper's related work
    /// (§II-B) applies and Buffalo composes with. Replayed through the
    /// same bounded depth-2 [`DeviceTimeline`] the pipelined trainers use,
    /// so preparation may run at most one micro-batch ahead.
    /// Partitioning/scheduling cannot overlap (the plan must exist before
    /// extraction starts).
    pub fn pipelined_total(&self) -> f64 {
        let fixed =
            self.phases.scheduling + self.phases.reg_construction + self.phases.metis_partition;
        let mut timeline = DeviceTimeline::new(2.min(self.per_micro_cpu.len().max(1)));
        for (c, d) in self.per_micro_cpu.iter().zip(&self.per_micro_device) {
            timeline.record(*c, *d);
        }
        fixed + timeline.makespan()
    }
}

/// Static context for a simulation: model shape, sampling fanouts, the
/// graph's clustering coefficient, and the original graph (needed by the
/// Betty-style checked block generation).
#[derive(Debug, Clone, Copy)]
pub struct SimContext<'a> {
    /// Model shape.
    pub shape: &'a GnnShape,
    /// Sampling fanouts, output layer first.
    pub fanouts: &'a [usize],
    /// Average clustering coefficient of the dataset graph.
    pub clustering: f64,
    /// The original (unsampled) graph.
    pub original: &'a CsrGraph,
}

/// Simulates one training iteration of `strategy` over `batch`.
///
/// # Errors
///
/// * [`TrainError::Oom`] when a (micro-)batch exceeds the device budget —
///   for `Full` this reproduces the DGL/PyG OOM rows of Figure 10.
/// * [`TrainError::Schedule`] when Buffalo finds no feasible grouping.
/// * [`TrainError::Betty`] when Betty cannot handle the batch.
/// * [`TrainError::InvalidMicroBatches`] for a bad explicit `k`.
pub fn simulate_iteration(
    batch: &Batch,
    ctx: SimContext<'_>,
    strategy: Strategy,
    device: &dyn Device,
    cost: &CostModel,
) -> Result<SimReport, TrainError> {
    device.free_all();
    device.reset_peak();
    let mut phases = PhaseTimes::default();
    let mut report = SimReport {
        phases,
        num_micro_batches: 0,
        peak_mem_bytes: 0,
        per_micro_mem: Vec::new(),
        total_nodes: 0,
        total_edges: 0,
        per_micro_cpu: Vec::new(),
        per_micro_device: Vec::new(),
    };
    let groups: Vec<Vec<NodeId>> = match strategy {
        Strategy::Full => vec![(0..batch.num_seeds as NodeId).collect()],
        Strategy::Buffalo => {
            let scheduler =
                BuffaloScheduler::new(ctx.shape.clone(), ctx.fanouts.to_vec(), ctx.clustering);
            let plan = scheduler.schedule(&batch.graph, batch.num_seeds, device.budget())?;
            phases.scheduling = plan.scheduling_time.as_secs_f64();
            plan.groups
        }
        Strategy::Betty { k } => {
            check_k(k, batch.num_seeds)?;
            let part = betty_partition(&batch.graph, batch.num_seeds, ctx.shape.num_layers, k)?;
            phases.reg_construction = part.reg_time.as_secs_f64();
            phases.metis_partition = part.metis_time.as_secs_f64();
            part.groups
        }
        Strategy::Metis { k } => {
            check_k(k, batch.num_seeds)?;
            // Graph-level partitioning as the METIS-based systems do: the
            // whole sampled subgraph is partitioned and output nodes take
            // their component's id (§II-B, Figure 5).
            // lint:allow(wallclock-taint): measured CPU seconds feed the simulated timeline report, not the plan (suppresses chain: simulate_iteration → Instant::now)
            let t0 = Instant::now();
            let parts = metis_kway(&batch.graph, k);
            phases.metis_partition = t0.elapsed().as_secs_f64();
            let mut groups = vec![Vec::new(); k];
            for v in 0..batch.num_seeds {
                groups[parts[v] as usize % k].push(v as NodeId);
            }
            groups
        }
        Strategy::Random { k, seed } => {
            check_k(k, batch.num_seeds)?;
            random_partition(batch.num_seeds, k, seed)
        }
        Strategy::Range { k } => {
            check_k(k, batch.num_seeds)?;
            range_partition(batch.num_seeds, k)
        }
    };
    let depth = ctx.shape.num_layers;
    // One walker for the iteration: its tables are sized by the first
    // micro-batch and reset by every walk.
    let mut walker = BlockWalker::default();
    for group in groups.iter().filter(|g| !g.is_empty()) {
        let cpu_before = phases.connection_check + phases.block_construction;
        // lint:allow(wallclock-taint): measured CPU seconds feed the simulated timeline report, not the batch (suppresses chain: simulate_iteration → Instant::now)
        let t0 = Instant::now();
        let blocks = if let Strategy::Betty { .. } = strategy {
            // Betty's own path, the baseline being modelled. Connection
            // check: extract the micro-batch's dependency closure. Block
            // construction: re-derive every edge from the original graph.
            let micro = batch.restrict_to_seeds(group);
            phases.connection_check += t0.elapsed().as_secs_f64();
            // lint:allow(wallclock-taint): measured CPU seconds feed the simulated timeline report, not the blocks (suppresses chain: simulate_iteration → Instant::now)
            let t1 = Instant::now();
            let blocks = generate_blocks_checked(
                &micro.graph,
                &micro.global_ids,
                ctx.original,
                micro.num_seeds,
                depth,
            );
            phases.block_construction += t1.elapsed().as_secs_f64();
            blocks
        } else {
            // §IV-E as written: the blocks come straight off the sampled
            // batch's rows, so there is no connection check to time.
            let blocks = if let Strategy::Full = strategy {
                walker.whole_batch(&batch.graph, batch.num_seeds, depth)
            } else {
                walker.micro_batch(&batch.graph, batch.num_seeds, group, depth)
            };
            phases.block_construction += t0.elapsed().as_secs_f64();
            blocks
        };
        // Device-side phases are costed analytically.
        let mem = measure::training_memory(&blocks, ctx.shape);
        let alloc = device.alloc(mem.total())?;
        let load = cost.transfer_seconds(measure::transfer_bytes(&blocks, ctx.shape) as f64);
        let compute = cost.training_seconds(&blocks, ctx.shape);
        phases.data_loading += load;
        phases.gpu_compute += compute;
        device.free(alloc);
        report
            .per_micro_cpu
            .push(phases.connection_check + phases.block_construction - cpu_before);
        report.per_micro_device.push(load + compute);
        report.per_micro_mem.push(mem.total());
        report.num_micro_batches += 1;
        // The input layer's sources are the micro-batch's whole closure.
        report.total_nodes += blocks[0].num_src();
        report.total_edges += blocks.iter().map(|b| b.num_edges()).sum::<usize>();
    }
    report.phases = phases;
    report.peak_mem_bytes = device.peak();
    Ok(report)
}

fn check_k(k: usize, num_outputs: usize) -> Result<(), TrainError> {
    if k == 0 || k > num_outputs {
        Err(TrainError::InvalidMicroBatches {
            requested: k,
            num_outputs,
        })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use buffalo_graph::generators;
    use buffalo_memsim::{AggregatorKind, DeviceMemory};
    use buffalo_sampling::BatchSampler;

    struct Fixture {
        original: CsrGraph,
        batch: Batch,
        shape: GnnShape,
        clustering: f64,
    }

    fn fixture() -> Fixture {
        // Large enough that micro-batch closures do not saturate the
        // graph — the regime the paper's datasets are in.
        let original = generators::barabasi_albert(20_000, 8, 0.5, 2).unwrap();
        let clustering =
            buffalo_graph::stats::clustering_coefficient_sampled(&original, 2_000, 40, 1);
        let seeds: Vec<NodeId> = (0..600).collect();
        let batch = BatchSampler::new(vec![10, 25]).sample(&original, &seeds, 8);
        let shape = GnnShape::new(128, 128, 2, 16, AggregatorKind::Lstm);
        Fixture {
            original,
            batch,
            shape,
            clustering,
        }
    }

    fn ctx(f: &Fixture) -> SimContext<'_> {
        SimContext {
            shape: &f.shape,
            fanouts: &[10, 25],
            clustering: f.clustering,
            original: &f.original,
        }
    }

    #[test]
    fn full_strategy_ooms_when_buffalo_fits() {
        let f = fixture();
        let cost = CostModel::rtx6000();
        // Find the whole-batch footprint first.
        let big = DeviceMemory::with_gib(1024.0);
        let full = simulate_iteration(&f.batch, ctx(&f), Strategy::Full, &big, &cost).unwrap();
        let budget = DeviceMemory::new(full.peak_mem_bytes * 3 / 4);
        let err =
            simulate_iteration(&f.batch, ctx(&f), Strategy::Full, &budget, &cost).unwrap_err();
        assert!(matches!(err, TrainError::Oom(_)));
        let buf = simulate_iteration(&f.batch, ctx(&f), Strategy::Buffalo, &budget, &cost).unwrap();
        assert!(buf.num_micro_batches > 1);
        assert!(buf.peak_mem_bytes <= budget.budget());
    }

    #[test]
    fn all_strategies_cover_all_seeds() {
        let f = fixture();
        let cost = CostModel::rtx6000();
        let device = DeviceMemory::with_gib(1024.0);
        for strategy in [
            Strategy::Betty { k: 4 },
            Strategy::Metis { k: 4 },
            Strategy::Random { k: 4, seed: 3 },
            Strategy::Range { k: 4 },
        ] {
            let rep = simulate_iteration(&f.batch, ctx(&f), strategy, &device, &cost).unwrap();
            // METIS may leave some of the 4 parts without seeds (it
            // partitions the whole subgraph); the others split exactly.
            if matches!(strategy, Strategy::Metis { .. }) {
                assert!(
                    (1..=4).contains(&rep.num_micro_batches),
                    "{strategy:?}: {} micro-batches",
                    rep.num_micro_batches
                );
            } else {
                assert_eq!(rep.num_micro_batches, 4, "{strategy:?}");
            }
            // Redundancy means total nodes >= batch nodes.
            assert!(rep.total_nodes >= f.batch.num_seeds, "{strategy:?}");
            assert!(rep.phases.total() > 0.0);
        }
    }

    #[test]
    fn betty_records_partition_phases() {
        let f = fixture();
        let cost = CostModel::rtx6000();
        let device = DeviceMemory::with_gib(1024.0);
        let rep = simulate_iteration(&f.batch, ctx(&f), Strategy::Betty { k: 4 }, &device, &cost)
            .unwrap();
        assert!(rep.phases.reg_construction > 0.0);
        assert!(rep.phases.block_construction > 0.0);
        let buf = simulate_iteration(&f.batch, ctx(&f), Strategy::Buffalo, &device, &cost).unwrap();
        assert_eq!(buf.phases.reg_construction, 0.0);
        assert_eq!(buf.phases.metis_partition, 0.0);
    }

    #[test]
    fn buffalo_block_generation_is_faster_than_betty() {
        let f = fixture();
        let cost = CostModel::rtx6000();
        let device = DeviceMemory::with_gib(1024.0);
        let betty = simulate_iteration(&f.batch, ctx(&f), Strategy::Betty { k: 8 }, &device, &cost)
            .unwrap();
        let range = simulate_iteration(&f.batch, ctx(&f), Strategy::Range { k: 8 }, &device, &cost)
            .unwrap();
        // Same number of micro-batches, but checked generation does
        // repeated connection checks against the original graph.
        assert!(
            betty.phases.block_construction > range.phases.block_construction,
            "betty {} vs fast {}",
            betty.phases.block_construction,
            range.phases.block_construction
        );
    }

    #[test]
    fn invalid_k_is_rejected() {
        let f = fixture();
        let cost = CostModel::rtx6000();
        let device = DeviceMemory::with_gib(8.0);
        for k in [0usize, 601] {
            let err = simulate_iteration(&f.batch, ctx(&f), Strategy::Range { k }, &device, &cost)
                .unwrap_err();
            assert!(matches!(err, TrainError::InvalidMicroBatches { .. }));
        }
    }

    #[test]
    fn pipelined_total_overlaps_but_never_beats_bottleneck() {
        let f = fixture();
        let cost = CostModel::rtx6000();
        let device = DeviceMemory::with_gib(1024.0);
        let rep = simulate_iteration(&f.batch, ctx(&f), Strategy::Range { k: 6 }, &device, &cost)
            .unwrap();
        let serial = rep.phases.total();
        let pipelined = rep.pipelined_total();
        assert!(pipelined <= serial + 1e-9, "pipelining cannot be slower");
        // Lower bound: the device chain alone.
        let dev_chain: f64 = rep.per_micro_device.iter().sum();
        assert!(pipelined + 1e-9 >= dev_chain);
        // Per-micro vectors align with the micro-batch count.
        assert_eq!(rep.per_micro_cpu.len(), rep.num_micro_batches);
        assert_eq!(rep.per_micro_device.len(), rep.num_micro_batches);
    }

    #[test]
    fn computation_efficiency_is_positive() {
        let f = fixture();
        let cost = CostModel::rtx6000();
        let device = DeviceMemory::with_gib(1024.0);
        let rep = simulate_iteration(&f.batch, ctx(&f), Strategy::Buffalo, &device, &cost).unwrap();
        assert!(rep.computation_efficiency() > 0.0);
    }
}
