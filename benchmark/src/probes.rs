//! Kernel probes of the traced run: fixed-size calls into `tensor`, `simd`
//! and `par`, so a change in an end-to-end metric can be pinned to (or
//! cleared from) a kernel. They do not depend on the workload; every
//! traced run repeats them because every run reports every metric.

use crate::common::{Ctx, Outcome};
use crate::host::{hardware_threads, median};
use crate::spec::BACKENDS;
use buffalo_blocks::Block;
use buffalo_core::models::SageLayer;
use buffalo_graph::datasets::Dataset;
use buffalo_graph::NodeId;
use buffalo_memsim::AggregatorKind;
use buffalo_par::{ambient, Parallelism, SimdBackend};
use buffalo_tensor::Tensor;
use std::hint::black_box;
use std::time::Instant;

const MATMUL_N: usize = 256;
const VECTOR_LEN: usize = 1 << 16;
/// Calls per timed sample of a vector kernel, so a sample lasts ~1 ms.
const VECTOR_CALLS: usize = 64;
const GATHER_ROWS: usize = 8_192;

/// Median seconds of `f` over `reps` calls, after one untimed call.
fn time(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

pub fn run(ctx: &Ctx, ds: &Dataset, out: &mut Outcome) {
    let reps = if ctx.quick { 3 } else { 15 };
    let restore = ambient();
    let with = |threads: usize, simd: SimdBackend| Parallelism {
        threads,
        simd,
        ..Parallelism::auto()
    };
    let a = Tensor::xavier(MATMUL_N, MATMUL_N, 1);
    let b = Tensor::xavier(MATMUL_N, MATMUL_N, 2);
    let matmul_gflop = 2.0 * (MATMUL_N as f64).powi(3) / 1e9;
    let x: Vec<f32> = (0..VECTOR_LEN).map(|i| (i % 97) as f32 * 0.01).collect();
    let half: Vec<u16> = x.iter().map(|&v| buffalo_simd::f32_to_bf16(v)).collect();
    let mut y = vec![0.0f32; VECTOR_LEN];
    let calls = VECTOR_CALLS as f64;
    let len = VECTOR_LEN as f64;
    for backend in SimdBackend::available() {
        let name = backend.as_str();
        debug_assert!(BACKENDS.contains(&name));
        let par = with(ctx.threads, backend);
        let nn = time(reps, || drop(black_box(a.matmul_with(black_box(&b), &par))));
        let nt = time(reps, || {
            drop(black_box(a.matmul_nt_with(black_box(&b), &par)))
        });
        let tn = time(reps, || {
            drop(black_box(a.matmul_tn_with(black_box(&b), &par)))
        });
        out.push(
            &format!("tensor.matmul_nn_gflops.{name}"),
            matmul_gflop / nn,
        );
        out.push(
            &format!("tensor.matmul_nt_gflops.{name}"),
            matmul_gflop / nt,
        );
        out.push(
            &format!("tensor.matmul_tn_gflops.{name}"),
            matmul_gflop / tn,
        );
        // axpy reads dst and src and writes dst: 12 bytes per element.
        let axpy = time(reps, || {
            for _ in 0..VECTOR_CALLS {
                backend.axpy(black_box(&mut y), black_box(&x), 1e-3);
            }
        });
        out.push(
            &format!("simd.axpy_gbps.{name}"),
            12.0 * len * calls / axpy / 1e9,
        );
        let dot = time(reps, || {
            for _ in 0..VECTOR_CALLS {
                black_box(backend.dot(black_box(&x), black_box(&y)));
            }
        });
        out.push(
            &format!("simd.dot_gflops.{name}"),
            2.0 * len * calls / dot / 1e9,
        );
        // widen reads 2 bytes and writes 4 per element.
        let widen = time(reps, || {
            for _ in 0..VECTOR_CALLS {
                backend.widen_bf16(black_box(&mut y), black_box(&half));
            }
        });
        out.push(
            &format!("simd.widen_bf16_gbps.{name}"),
            6.0 * len * calls / widen / 1e9,
        );
    }

    // One thread against every hardware thread, same call — more threads
    // than the workloads use (they leave one free), because this is where
    // thread scaling has to stay visible. On a one-core host the two
    // configurations are the same and the ratio is 1.
    let one = with(1, SimdBackend::Scalar);
    let many = with(hardware_threads(), SimdBackend::Scalar);
    let serial = time(reps, || drop(black_box(a.matmul_with(black_box(&b), &one))));
    let pooled = time(reps, || {
        drop(black_box(a.matmul_with(black_box(&b), &many)))
    });
    out.push("par.matmul_speedup", serial / pooled);

    let (n_dst, n_src, dim, deg) = (2_048usize, 4_096usize, 64usize, 12usize);
    let block = Block::from_parts(
        (0..n_dst as u32).collect(),
        (0..n_src as u32).collect(),
        (0..=n_dst).map(|i| i * deg).collect(),
        (0..n_dst * deg)
            .map(|e| ((e * 2_654_435_761) % n_src) as u32)
            .collect(),
    );
    let h = Tensor::xavier(n_src, dim, 3);
    let layer = SageLayer::new(dim, dim, AggregatorKind::Mean, false, 5);
    one.install();
    let serial = time(reps, || {
        drop(black_box(layer.forward(&block, black_box(&h))))
    });
    many.install();
    let pooled = time(reps, || {
        drop(black_box(layer.forward(&block, black_box(&h))))
    });
    out.push("par.aggregate_speedup", serial / pooled);

    let nodes: Vec<NodeId> = (0..GATHER_ROWS)
        .map(|i| ((i * 2_654_435_761) % ds.graph.num_nodes()) as NodeId)
        .collect();
    let mut rows = vec![0.0f32; GATHER_ROWS * ds.spec.feat_dim];
    one.install();
    let serial = time(reps, || {
        ds.gather_features(black_box(&nodes), black_box(&mut rows))
    });
    many.install();
    let pooled = time(reps, || {
        ds.gather_features(black_box(&nodes), black_box(&mut rows))
    });
    out.push("par.gather_speedup", serial / pooled);
    restore.install();
}
