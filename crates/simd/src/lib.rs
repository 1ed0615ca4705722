//! Runtime-dispatched SIMD inner kernels for Buffalo's dense math.
//!
//! Every hot loop in the training stack reduces to one of three shapes:
//! `axpy` (`dst[i] += a * src[i]` — neighbor aggregation, gradient
//! scatter; `axpy_rows`, a run of axpys into each row of a block held in
//! registers — matmul inner tiles; `axpy_gather`, a run of axpys from
//! listed source rows — mean aggregation), `dot` (transposed matmul,
//! attention scores), and `widen_bf16` (bf16 feature rows → f32 at
//! gather time). This crate provides explicit `std::arch` AVX-512F and
//! AVX2(+FMA) bodies of those primitives behind a [`SimdBackend`] value
//! dispatch, with a scalar chain that is bitwise-identical to the
//! pre-SIMD kernels, and [`uniform_rows8`], the feature synthesiser's
//! eight-stream generator.
//!
//! # Determinism contract
//!
//! A backend names a rounding chain, not an instruction set. Each chain
//! is **run-to-run deterministic**: a fixed lane body, a fixed
//! ascending-lane reduction order for dots, and a fixed scalar tail mean
//! the same inputs always produce the same bits on any host that
//! supports the backend (IEEE-754 ops, including FMA, are exactly
//! specified). There are two backends, so two `axpy` chains, two `dot`
//! reductions and one exact widen, each with one wide body:
//!
//! * `axpy` — per element `d = d + a·s` in ascending term order, zero
//!   coefficients skipped where the primitive skips them.
//!   [`SimdBackend::Scalar`] rounds the multiply and the add separately
//!   — the historical kernels and the committed golden trails.
//!   [`SimdBackend::Avx2`] fuses them (`_mm256_fmadd_ps`) in its
//!   eight-lane body and keeps the separate multiply and add in its
//!   scalar tail. On a host with AVX2 and FMA, `axpy_rows` and
//!   `axpy_gather` run one set of wide bodies for both chains, the
//!   backend choosing only the lane update; elsewhere the portable code
//!   runs, and it is the reference the tests hold the wide bodies to. (A
//!   NaN's payload is the one thing IEEE-754 leaves to operand order,
//!   which the compiler may commute in the portable code too; the tests
//!   compare NaN as NaN.)
//! * A width is not a chain. `axpy_rows`' tiles and `uniform_rows8`'s
//!   streams run 16 lanes wide on a host with AVX-512F (and AVX2 and
//!   FMA), 8 with AVX2 and FMA, and every width gives the same bits: a
//!   lane sees the same operations in the same order at any width, and
//!   the `Avx2` chain's fused columns are the ones `axpy`'s eight-lane
//!   body covers, whatever the register. So no backend, policy, flag or
//!   variable names a width; it is detected per call ([`wide_lanes`]
//!   reports it), and the crate's tests run every width the host has.
//! * `dot` — scalar accumulates left to right; AVX2 keeps eight FMA lane
//!   accumulators, sums them in ascending lane order, then folds the
//!   scalar tail as a separate multiply and add. Two reductions, each
//!   gated by its own golden in `ci.sh`; the crate's tests hold the AVX2
//!   one bit for bit to a portable statement of that order.
//! * `widen_bf16` is exact (a left shift), so it is one function on
//!   every backend: the AVX2 body where detected, the portable one
//!   elsewhere. `uniform_rows8` is exact integer work plus exact
//!   conversions, so feature precision and SIMD selection compose
//!   without interacting.
//! * A host without AVX2 and FMA runs only [`SimdBackend::Scalar`]:
//!   `--simd auto` resolves to it there, SSE4.1 or not.
//!
//! # Safety conventions
//!
//! `#[target_feature]` kernels live in the private `x86` module and are
//! only reachable through a safe function that has checked the features
//! they are compiled with. The wide `axpy_rows` / `axpy_gather` bodies,
//! `widen_bf16` and [`uniform_rows8`] run `is_x86_feature_detected!`
//! themselves, once per call (`axpy_rows` and `uniform_rows8` through
//! the crate-private `Width`, whose wide values exist only after that
//! check). The `Avx2` arms of `axpy` and `dot` rely on the backend
//! value instead: `Avx2` values originate exclusively from
//! `SimdBackend::detect` / [`SimdPolicy::resolve`], which check
//! `is_x86_feature_detected!` before producing them. That invariant, or
//! the check beside the call, is the SAFETY argument each dispatch site
//! cites. The `axpy_rows` tiles are generic over a private lane-width
//! trait whose methods are `#[target_feature]` functions; the generic
//! bodies have no features of their own and are `#[inline(always)]`
//! into one entry per width, compiled with that width's features.
//!
//! [`prefetch`] holds the one `unsafe` block outside a `#[target_feature]`
//! body, its call of the `x86` module's SSE `prefetch_line`: SSE is part
//! of the x86-64 baseline, so there is nothing to detect, and a prefetch
//! is a hint that cannot fault, whatever the address, and moves no bit.

#![warn(missing_docs)]
#![forbid(unsafe_op_in_unsafe_fn)]

use std::ops::Range;

/// How the CLI / config layer asks for a backend. `Auto` degrades
/// gracefully; `Avx2` fails loudly when the host cannot honor it (a
/// silently substituted backend would change numerics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdPolicy {
    /// Pick the best backend the host supports: AVX2 with FMA, else
    /// scalar (a host with SSE4.1 but no AVX2 runs the scalar chain).
    Auto,
    /// Require AVX2 + FMA; error if undetected.
    Avx2,
    /// Force the scalar reference kernels (the default everywhere).
    Scalar,
}

impl SimdPolicy {
    /// Parses a CLI `--simd` value.
    pub fn parse(s: &str) -> Result<SimdPolicy, String> {
        match s {
            "auto" => Ok(SimdPolicy::Auto),
            "avx2" => Ok(SimdPolicy::Avx2),
            "scalar" => Ok(SimdPolicy::Scalar),
            other => Err(format!(
                "unknown --simd value '{other}' (expected auto|avx2|scalar)"
            )),
        }
    }

    /// Resolves the policy against the host CPU. `Auto` never fails;
    /// an explicitly requested backend the host lacks is an error.
    pub fn resolve(self) -> Result<SimdBackend, String> {
        match self {
            SimdPolicy::Auto => Ok(SimdBackend::detect()),
            SimdPolicy::Scalar => Ok(SimdBackend::Scalar),
            SimdPolicy::Avx2 => {
                if avx2_available() {
                    Ok(SimdBackend::Avx2)
                } else {
                    Err("--simd avx2 requested but the host CPU lacks AVX2+FMA".to_string())
                }
            }
        }
    }
}

/// A resolved kernel backend. The discriminants are stable and public:
/// they feed the checkpoint config fingerprint (the backend selects the
/// numerics, so a snapshot must not resume under a different one) and
/// the ambient-config atomic in `buffalo-par`. Code 1 belonged to a
/// removed SSE4.1 backend and stays unused, so existing snapshots keep
/// resuming.
///
/// Invariant: an `Avx2` value is only constructed after the
/// `is_x86_feature_detected!` checks for avx2 and fma succeed (in
/// `SimdBackend::detect` and [`SimdPolicy::resolve`]); the `unsafe`
/// dispatch of `axpy` and `dot` relies on that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum SimdBackend {
    /// Reference scalar chain — bitwise-identical to the pre-SIMD
    /// kernels and the committed goldens, on AVX2 or AVX-512 registers
    /// where the host has them.
    Scalar = 0,
    /// AVX2 + FMA, 8-wide. Fastest; `axpy` fuses its lane updates and
    /// `dot` reduces 8 FMA lanes, so it rounds differently from scalar.
    Avx2 = 2,
}

impl SimdBackend {
    /// The best backend this host supports.
    pub(crate) fn detect() -> SimdBackend {
        if avx2_available() {
            SimdBackend::Avx2
        } else {
            SimdBackend::Scalar
        }
    }

    /// Every backend usable on this host, scalar first. (Bench and test
    /// harnesses iterate this to cover each supported path.)
    pub fn available() -> Vec<SimdBackend> {
        let mut v = vec![SimdBackend::Scalar];
        if avx2_available() {
            v.push(SimdBackend::Avx2);
        }
        v
    }

    /// Inverse of `backend as usize`; `None` for any other code, the
    /// retired 1 included.
    pub fn from_index(i: usize) -> Option<SimdBackend> {
        match i {
            0 => Some(SimdBackend::Scalar),
            2 => Some(SimdBackend::Avx2),
            _ => None,
        }
    }

    /// Stable lowercase name (matches the CLI `--simd` vocabulary).
    pub fn as_str(self) -> &'static str {
        match self {
            SimdBackend::Scalar => "scalar",
            SimdBackend::Avx2 => "avx2",
        }
    }

    /// `dst[i] += a * src[i]`. Panics if the slices differ in length.
    ///
    /// Scalar runs the portable code (a separate multiply then add per
    /// element); AVX2 uses FMA in the 8-wide body and multiply then add
    /// in the tail.
    #[inline]
    pub fn axpy(self, dst: &mut [f32], src: &[f32], a: f32) {
        assert_eq!(dst.len(), src.len(), "axpy length mismatch");
        match self {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2` is only constructed after `detect`/`resolve`
            // verified `is_x86_feature_detected!` for avx2 and fma.
            SimdBackend::Avx2 => unsafe { x86::axpy_avx2(dst, src, a) },
            _ => axpy_scalar(dst, src, a),
        }
    }

    /// Dot product with a fixed reduction order per backend. Panics if
    /// the slices differ in length.
    ///
    /// Scalar accumulates left-to-right. AVX2 keeps eight FMA lane
    /// accumulators, sums them in ascending lane order, then adds the
    /// tail's products one by one, each multiply and add rounded
    /// separately — deterministic, but associated differently than
    /// scalar.
    #[inline]
    pub fn dot(self, a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dot length mismatch");
        match self {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2` is only constructed after `detect`/`resolve`
            // verified `is_x86_feature_detected!` for avx2 and fma.
            SimdBackend::Avx2 => unsafe { x86::dot_avx2(a, b) },
            _ => dot_scalar(a, b),
        }
    }

    /// Widens a bf16 row to f32 (`dst[i] = bf16_to_f32(src[i])`). Exact
    /// — widening is a left shift — so every backend runs the same code:
    /// the AVX2 body on a host with AVX2 and FMA, the portable loop
    /// elsewhere. Panics if the slices differ in length.
    #[inline]
    pub fn widen_bf16(self, dst: &mut [f32], src: &[u16]) {
        assert_eq!(dst.len(), src.len(), "widen_bf16 length mismatch");
        #[cfg(target_arch = "x86_64")]
        if avx2_available() {
            // SAFETY: `is_x86_feature_detected!` for avx2 and fma was just
            // checked; the assert above makes both slices one length.
            unsafe { x86::widen_bf16_avx2(dst, src) };
            return;
        }
        widen_bf16_scalar(dst, src)
    }

    /// A run of [`axpy`](Self::axpy) updates into every row of a block:
    /// row `r` of `dst` (`dst.len() / dst_stride` rows of `dst_stride`)
    /// gets, in its columns `cols`, the `coeffs.terms` updates
    /// `dst[r][j] += coeffs(r, t) * src[t * src_stride + j]`, ascending
    /// `t`, zero coefficients skipped. Bit for bit what those `axpy`
    /// calls on `dst[r][cols]` produce on every backend — each lane sees
    /// the same operations in the same order, and the lane body and
    /// scalar tail split where `axpy` splits them. On a host with AVX2
    /// and FMA, a 4-row block is held in registers across the terms, so
    /// each load of `src` feeds four rows: 4 × 16 tiles, or 4 × 32 on a
    /// host with AVX-512F too. The backend picks the lane update (FMA
    /// under `Avx2`, a separate multiply and add otherwise); the width
    /// never moves a bit.
    ///
    /// # Panics
    ///
    /// Panics if `dst_stride` is zero, `dst` is not whole rows, `cols`
    /// ends past `dst_stride`, or `src` or `coeffs` is too short.
    pub fn axpy_rows(
        self,
        dst: &mut [f32],
        dst_stride: usize,
        cols: Range<usize>,
        src: &[f32],
        src_stride: usize,
        coeffs: Coeffs<'_>,
    ) {
        self.axpy_rows_at(
            Width::host(),
            dst,
            dst_stride,
            cols,
            src,
            src_stride,
            coeffs,
        )
    }

    /// [`axpy_rows`](Self::axpy_rows) at a given width (tests run every
    /// width the host has). `Width::Portable` is the scalar chain only.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn axpy_rows_at(
        self,
        width: Width,
        dst: &mut [f32],
        dst_stride: usize,
        cols: Range<usize>,
        src: &[f32],
        src_stride: usize,
        coeffs: Coeffs<'_>,
    ) {
        assert!(
            dst_stride > 0 && dst.len().is_multiple_of(dst_stride),
            "axpy_rows destination is not whole rows"
        );
        assert!(
            cols.start <= cols.end && cols.end <= dst_stride,
            "axpy_rows columns out of range"
        );
        let rows = dst.len() / dst_stride;
        if rows == 0 || coeffs.terms == 0 || cols.is_empty() {
            return;
        }
        assert!(
            src.len() >= (coeffs.terms - 1) * src_stride + cols.end,
            "axpy_rows source too short"
        );
        assert!(
            coeffs.data.len()
                > (rows - 1) * coeffs.row_stride + (coeffs.terms - 1) * coeffs.term_stride,
            "axpy_rows coefficients too short"
        );
        let fma = self == SimdBackend::Avx2;
        match width {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: a `Width::Zmm` exists only after
            // `is_x86_feature_detected!` for avx512f, avx2 and fma; the
            // asserts above bound every row, column, term and coefficient
            // the kernel touches.
            Width::Zmm => unsafe {
                if fma {
                    x86::axpy_rows_zmm::<true>(dst, dst_stride, cols, src, src_stride, coeffs)
                } else {
                    x86::axpy_rows_zmm::<false>(dst, dst_stride, cols, src, src_stride, coeffs)
                }
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: a `Width::Ymm` exists only after
            // `is_x86_feature_detected!` for avx2 and fma; the asserts
            // above bound every row, column, term and coefficient.
            Width::Ymm => unsafe {
                if fma {
                    x86::axpy_rows_ymm::<true>(dst, dst_stride, cols, src, src_stride, coeffs)
                } else {
                    x86::axpy_rows_ymm::<false>(dst, dst_stride, cols, src, src_stride, coeffs)
                }
            },
            // Without AVX2 and FMA the backend is `Scalar` (an `Avx2`
            // value exists only after detection): the scalar chain.
            _ => {
                for (r, row) in dst.chunks_exact_mut(dst_stride).enumerate() {
                    let c = &coeffs.data[r * coeffs.row_stride..];
                    let (d, s) = (&mut row[cols.clone()], &src[cols.start..]);
                    axpy_panel_scalar(d, s, src_stride, c, coeffs.term_stride, coeffs.terms);
                }
            }
        }
    }

    /// One [`axpy`](Self::axpy) per listed source row, in list order:
    /// `dst[j] += a * src[i * dst.len() + j]` for each `i` in `rows` — a
    /// mean aggregation's inner loop. Bit for bit what those `axpy`
    /// calls produce on every backend. On a host with AVX2 and FMA, `dst`
    /// is held in registers across all the source rows (each lane the
    /// backend's `axpy` update, the tail a separate multiply and add) and
    /// each source row is prefetched two rows ahead.
    ///
    /// # Panics
    ///
    /// Panics if a listed row ends past `src`.
    pub fn axpy_gather(self, dst: &mut [f32], src: &[f32], rows: &[u32], a: f32) {
        let n = dst.len();
        if let Some(&last) = rows.iter().max() {
            assert!(
                (last as usize + 1) * n <= src.len(),
                "axpy_gather row out of range"
            );
        }
        #[cfg(target_arch = "x86_64")]
        if avx2_available() {
            // SAFETY: `is_x86_feature_detected!` for avx2 and fma was just
            // checked; the assert above bounds every listed source row.
            unsafe {
                if self == SimdBackend::Avx2 {
                    x86::axpy_gather_avx::<true>(dst, src, rows, a)
                } else {
                    x86::axpy_gather_avx::<false>(dst, src, rows, a)
                }
            };
            return;
        }
        // Without AVX2 and FMA the backend is `Scalar` (an `Avx2` value
        // exists only after detection): the scalar chain.
        for &i in rows {
            axpy_scalar(dst, &src[i as usize * n..][..n], a);
        }
    }
}

/// The coefficients of [`SimdBackend::axpy_rows`]: row `r`'s term `t`
/// is `data[r * row_stride + t * term_stride]`.
#[derive(Debug, Clone, Copy)]
pub struct Coeffs<'a> {
    /// Backing values, from row 0's term 0.
    pub data: &'a [f32],
    /// Step between rows.
    pub row_stride: usize,
    /// Step between terms.
    pub term_stride: usize,
    /// Terms per row.
    pub terms: usize,
}

/// Fills eight rows with uniform `f32` draws from eight xoshiro256++
/// streams: row `i` of `out` (`8 × dim`, row-major) is the first `dim`
/// values of `StdRng::seed_from_u64(seeds[i]).gen::<f32>()` — the
/// workspace's `rand` generator, SplitMix64-seeded, each draw
/// `(x >> 40) as f32 * 2⁻²⁴`, exact. With AVX2 and FMA the eight streams
/// advance in two registers per state word (one with AVX-512F), and
/// each step's eight draws are transposed into the rows eight columns at
/// a time. Returns `false`, writing nothing, on a host without AVX2 and
/// FMA: the caller keeps its own portable generator.
///
/// # Panics
///
/// Panics if `out.len()` is not a multiple of 8.
pub fn uniform_rows8(seeds: [u64; 8], out: &mut [f32]) -> bool {
    uniform_rows8_at(Width::host(), seeds, out)
}

/// [`uniform_rows8`] at a given width (tests run every width the host
/// has); `false` at `Width::Portable`.
pub(crate) fn uniform_rows8_at(width: Width, seeds: [u64; 8], out: &mut [f32]) -> bool {
    assert!(
        out.len().is_multiple_of(8),
        "uniform_rows8 needs eight whole rows"
    );
    let states = seeds.map(xoshiro_state);
    match width {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: a `Width::Zmm` exists only after
        // `is_x86_feature_detected!` for avx512f, avx2 and fma; the kernel
        // writes exactly `out`'s eight rows.
        Width::Zmm => unsafe { x86::uniform_rows8_zmm(&states, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: a `Width::Ymm` exists only after
        // `is_x86_feature_detected!` for avx2 and fma; the kernel writes
        // exactly `out`'s eight rows.
        Width::Ymm => unsafe { x86::uniform_rows8_ymm(&states, out) },
        _ => return false,
    }
    true
}

/// The register width the wide bodies run at. A width is not a rounding
/// chain — every width gives the same bits — so it is no option: the
/// public entry points take the host's widest, and the crate's tests run
/// each width the host has.
///
/// Invariant: `Ymm` and `Zmm` are only constructed after
/// `is_x86_feature_detected!` found their features (in `Width::host`);
/// the wide dispatch's `unsafe` relies on that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Width {
    /// No wide body: the portable code.
    Portable,
    /// Eight f32 lanes: AVX2 and FMA.
    Ymm,
    /// Sixteen f32 lanes: AVX-512F, AVX2 and FMA.
    Zmm,
}

impl Width {
    /// The widest the host supports.
    fn host() -> Width {
        if !avx2_available() {
            Width::Portable
        } else if avx512f_available() {
            Width::Zmm
        } else {
            Width::Ymm
        }
    }
}

/// f32 lanes of the wide `axpy_rows` tiles and `uniform_rows8` streams on
/// this host: 16 with AVX-512F, AVX2 and FMA; 8 with AVX2 and FMA; 1 (the
/// portable code) elsewhere. Every width gives the same bits.
pub fn wide_lanes() -> usize {
    match Width::host() {
        Width::Portable => 1,
        Width::Ymm => 8,
        Width::Zmm => 16,
    }
}

/// Bytes per cache line on every x86-64 part this crate targets.
const LINE: usize = 64;

/// Asks the CPU to start loading every cache line of `data` into L1, so
/// that a read of rows chosen before they are needed does not wait on
/// memory. A hint: it cannot fault and never moves a bit; off x86-64 it
/// does nothing.
#[inline]
pub fn prefetch<T>(data: &[T]) {
    for line in cache_lines(data) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `prefetch_line` needs only SSE, which every x86-64 host
        // has; a prefetch never faults, whatever the address, and changes
        // no memory.
        unsafe {
            x86::prefetch_line(line)
        };
        #[cfg(not(target_arch = "x86_64"))]
        let _ = line;
    }
}

/// The first byte of every cache line `data` touches, from the line that
/// holds its first byte to the one that holds its last; none if `data`
/// has no bytes.
fn cache_lines<T>(data: &[T]) -> impl Iterator<Item = *const u8> {
    let bytes = std::mem::size_of_val(data);
    let start = data.as_ptr().cast::<u8>();
    let lead = start.addr() % LINE;
    let lines = if bytes == 0 {
        0
    } else {
        (lead + bytes).div_ceil(LINE)
    };
    let first = start.wrapping_sub(lead);
    (0..lines).map(move |k| first.wrapping_add(k * LINE))
}

/// The xoshiro256++ state `StdRng::seed_from_u64(seed)` starts from:
/// four SplitMix64 outputs.
fn xoshiro_state(seed: u64) -> [u64; 4] {
    let mut x = seed;
    [(); 4].map(|()| {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    })
}

/// CPU features of the host, as `(name, detected)` pairs — a benchmark
/// records them beside its results (its `cpu_features`) as its host
/// identity, so a reader can tell which backends it could measure and
/// which width the wide bodies ran at (see [`wide_lanes`]). No backend
/// needs `sse4.1`; it stays listed so that identity reads the same.
pub fn detected_features() -> [(&'static str, bool); 4] {
    [
        ("sse4.1", sse41_available()),
        ("avx2", avx2_only_available()),
        ("fma", fma_available()),
        ("avx512f", avx512f_available()),
    ]
}

fn avx2_available() -> bool {
    avx2_only_available() && fma_available()
}

#[cfg(target_arch = "x86_64")]
fn avx2_only_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(target_arch = "x86_64")]
fn fma_available() -> bool {
    std::arch::is_x86_feature_detected!("fma")
}

#[cfg(target_arch = "x86_64")]
fn sse41_available() -> bool {
    std::arch::is_x86_feature_detected!("sse4.1")
}

#[cfg(target_arch = "x86_64")]
fn avx512f_available() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_only_available() -> bool {
    false
}

#[cfg(not(target_arch = "x86_64"))]
fn fma_available() -> bool {
    false
}

#[cfg(not(target_arch = "x86_64"))]
fn sse41_available() -> bool {
    false
}

#[cfg(not(target_arch = "x86_64"))]
fn avx512f_available() -> bool {
    false
}

/// Rounds an f32 to bf16 (round-to-nearest-even). The relative error of
/// `bf16_to_f32(f32_to_bf16(x))` is at most `2⁻⁸` (half a bf16 ulp) for
/// finite normal `x`; infinities map to infinities, NaN stays NaN (the
/// quiet bit is forced so a signaling payload cannot be truncated to
/// infinity).
pub fn f32_to_bf16(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        return ((bits >> 16) as u16) | 0x0040;
    }
    // Add 0x7FFF plus the round bit's current LSB: ties round to even.
    let round = ((bits >> 16) & 1) + 0x7FFF;
    ((bits + round) >> 16) as u16
}

/// Widens a bf16 value to f32. Exact: bf16 is the top 16 bits of f32.
pub(crate) fn bf16_to_f32(h: u16) -> f32 {
    f32::from_bits((h as u32) << 16)
}

fn axpy_scalar(dst: &mut [f32], src: &[f32], a: f32) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += a * s;
    }
}

/// Lanes [`axpy_panel_scalar`] carries across a panel at a time.
const PANEL_CHUNK: usize = 32;

/// A run of `terms` axpys into one `dst`, the portable scalar chain:
/// `dst[j] += coeffs[t * coeff_stride] * src[t * src_stride + j]`,
/// ascending `t`, zero coefficients skipped. `dst` is walked in
/// [`PANEL_CHUNK`]-wide pieces, each copied to a local array that stays
/// in registers over the terms, then the remainder one axpy per term.
fn axpy_panel_scalar(
    dst: &mut [f32],
    src: &[f32],
    src_stride: usize,
    coeffs: &[f32],
    coeff_stride: usize,
    terms: usize,
) {
    let mut pieces = dst.chunks_exact_mut(PANEL_CHUNK);
    let mut j0 = 0usize;
    for piece in &mut pieces {
        let mut acc = [0.0f32; PANEL_CHUNK];
        acc.copy_from_slice(piece);
        for t in 0..terms {
            let a = coeffs[t * coeff_stride];
            if a == 0.0 {
                continue;
            }
            let row = &src[t * src_stride + j0..][..PANEL_CHUNK];
            for (d, &s) in acc.iter_mut().zip(row) {
                *d += a * s;
            }
        }
        piece.copy_from_slice(&acc);
        j0 += PANEL_CHUNK;
    }
    let rest = pieces.into_remainder();
    if rest.is_empty() {
        return;
    }
    for t in 0..terms {
        let a = coeffs[t * coeff_stride];
        if a != 0.0 {
            axpy_scalar(rest, &src[t * src_stride + j0..][..rest.len()], a);
        }
    }
}

fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

fn widen_bf16_scalar(dst: &mut [f32], src: &[u16]) {
    for (d, &h) in dst.iter_mut().zip(src) {
        *d = bf16_to_f32(h);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The `#[target_feature]` kernels. Callers must have verified the
    //! features via `is_x86_feature_detected!`: either the safe function
    //! in front of the kernel checks them, or the kernel is a backend's
    //! arm and the backend value upholds it (see the enum docs).
    //! `prefetch_line` needs only SSE, which x86-64 always has.

    use core::arch::x86_64::*;

    // SAFETY: requires SSE, part of the x86-64 baseline this module is
    // compiled for, so no caller needs to detect it; a prefetch is a hint
    // that cannot fault.
    #[target_feature(enable = "sse")]
    #[inline]
    pub(crate) fn prefetch_line(line: *const u8) {
        _mm_prefetch::<_MM_HINT_T0>(line.cast());
    }

    // SAFETY: requires AVX2+FMA; callers reach this only through
    // `SimdBackend::Avx2` dispatch, and that value is only constructed
    // after `is_x86_feature_detected!("avx2")`/`("fma")` detection.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn axpy_avx2(dst: &mut [f32], src: &[f32], a: f32) {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        let va = _mm256_set1_ps(a);
        let mut i = 0usize;
        while i + 8 <= n {
            // SAFETY: i + 8 <= n bounds both 8-lane unaligned accesses.
            unsafe {
                let s = _mm256_loadu_ps(sp.add(i));
                let d = _mm256_loadu_ps(dp.add(i));
                _mm256_storeu_ps(dp.add(i), _mm256_fmadd_ps(va, s, d));
            }
            i += 8;
        }
        while i < n {
            // SAFETY: i < n bounds the scalar tail accesses.
            unsafe {
                *dp.add(i) += a * *sp.add(i);
            }
            i += 1;
        }
    }

    // SAFETY: requires AVX2+FMA; callers reach this only through
    // `SimdBackend::Avx2` dispatch, and that value is only constructed
    // after `is_x86_feature_detected!("avx2")`/`("fma")` detection.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut acc = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 8 <= n {
            // SAFETY: i + 8 <= n bounds both 8-lane unaligned loads.
            unsafe {
                acc = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc);
            }
            i += 8;
        }
        // Fixed reduction order: ascending lanes, then the scalar tail.
        let mut lanes = [0.0f32; 8];
        // SAFETY: `lanes` is 8 f32s; unaligned store is in bounds.
        unsafe {
            _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        }
        let mut s = 0.0f32;
        for &l in &lanes {
            s += l;
        }
        while i < n {
            // SAFETY: i < n bounds the scalar tail loads.
            unsafe {
                s += *ap.add(i) * *bp.add(i);
            }
            i += 1;
        }
        s
    }

    // SAFETY: requires AVX2 (the 256-bit u16→i32 widen); reached only
    // from `SimdBackend::widen_bf16` after its `is_x86_feature_detected!`
    // check for avx2 and fma.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn widen_bf16_avx2(dst: &mut [f32], src: &[u16]) {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        let mut i = 0usize;
        while i + 8 <= n {
            // SAFETY: i + 8 <= n bounds the 8×u16 load and 8×f32 store.
            unsafe {
                let h = _mm_loadu_si128(sp.add(i) as *const __m128i);
                let w = _mm256_slli_epi32::<16>(_mm256_cvtepu16_epi32(h));
                _mm256_storeu_ps(dp.add(i), _mm256_castsi256_ps(w));
            }
            i += 8;
        }
        while i < n {
            // SAFETY: i < n bounds the scalar tail accesses.
            unsafe {
                *dp.add(i) = crate::bf16_to_f32(*sp.add(i));
            }
            i += 1;
        }
    }

    /// One register width of the `axpy_rows` tiles: `N` f32 lanes to a
    /// register. [`Ymm`] is AVX2 + FMA, [`Zmm`] AVX-512F. The tiles are
    /// written once over it; each width's methods are compiled with its
    /// features and inline into that width's entry point
    /// (`axpy_rows_ymm`, `axpy_rows_zmm`), whose features they share.
    ///
    /// # Safety
    ///
    /// Every method needs its width's features, which the entry point's
    /// caller checked (`Width::host`); `load` and `store` also need `N`
    /// valid lanes at the pointer.
    pub(crate) trait Lanes {
        /// f32 lanes to a register.
        const N: usize;
        /// A register of `N` f32 lanes.
        type F: Copy;
        /// `a` in every lane.
        unsafe fn splat(a: f32) -> Self::F;
        /// `N` lanes from `p`.
        unsafe fn load(p: *const f32) -> Self::F;
        /// `v` to the `N` lanes at `p`.
        unsafe fn store(p: *mut f32, v: Self::F);
        /// `d + a · s` per lane: one FMA with `FMA`, multiply and add
        /// rounded separately without; with `SKIP`, `d` where `a` is ±0.0.
        unsafe fn update<const FMA: bool, const SKIP: bool>(
            d: Self::F,
            a: Self::F,
            s: Self::F,
        ) -> Self::F;
        /// Whether a lane of the tile is ±0.0 or NaN, checked row by row
        /// so the tile stays in registers.
        unsafe fn any_zero_or_nan<const R: usize, const V: usize>(acc: &[[Self::F; V]; R]) -> bool;
    }

    /// Eight lanes: AVX2 + FMA.
    pub(crate) struct Ymm;

    /// Sixteen lanes: AVX-512F (which implies AVX2 and FMA).
    pub(crate) struct Zmm;

    impl Lanes for Ymm {
        const N: usize = 8;
        type F = __m256;
        // SAFETY: requires AVX2+FMA, detected by `Width::host` before any
        // `Ymm` entry point runs.
        #[target_feature(enable = "avx2", enable = "fma")]
        #[inline]
        unsafe fn splat(a: f32) -> __m256 {
            _mm256_set1_ps(a)
        }

        // SAFETY: requires AVX2+FMA, detected by `Width::host` before any
        // `Ymm` entry point runs.
        #[target_feature(enable = "avx2", enable = "fma")]
        #[inline]
        unsafe fn load(p: *const f32) -> __m256 {
            // SAFETY: the caller bounds eight lanes at `p`.
            unsafe { _mm256_loadu_ps(p) }
        }

        // SAFETY: requires AVX2+FMA, detected by `Width::host` before any
        // `Ymm` entry point runs.
        #[target_feature(enable = "avx2", enable = "fma")]
        #[inline]
        unsafe fn store(p: *mut f32, v: __m256) {
            // SAFETY: the caller bounds eight lanes at `p`.
            unsafe { _mm256_storeu_ps(p, v) }
        }

        // SAFETY: requires AVX2+FMA, detected by `Width::host` before any
        // `Ymm` entry point runs.
        #[target_feature(enable = "avx2", enable = "fma")]
        #[inline]
        unsafe fn update<const FMA: bool, const SKIP: bool>(
            d: __m256,
            a: __m256,
            s: __m256,
        ) -> __m256 {
            let sum = if FMA {
                _mm256_fmadd_ps(a, s, d)
            } else {
                _mm256_add_ps(d, _mm256_mul_ps(a, s))
            };
            if SKIP {
                _mm256_blendv_ps(sum, d, _mm256_cmp_ps::<_CMP_EQ_OQ>(a, _mm256_setzero_ps()))
            } else {
                sum
            }
        }

        // SAFETY: requires AVX2+FMA, detected by `Width::host` before any
        // `Ymm` entry point runs.
        #[target_feature(enable = "avx2", enable = "fma")]
        #[inline]
        unsafe fn any_zero_or_nan<const R: usize, const V: usize>(acc: &[[__m256; V]; R]) -> bool {
            let zero = _mm256_setzero_ps();
            let mut zero_or_nan = zero;
            for row in acc {
                for &lane in row {
                    zero_or_nan =
                        _mm256_or_ps(zero_or_nan, _mm256_cmp_ps::<_CMP_EQ_UQ>(lane, zero));
                }
            }
            _mm256_movemask_ps(zero_or_nan) != 0
        }
    }

    impl Lanes for Zmm {
        const N: usize = 16;
        type F = __m512;

        // SAFETY: requires AVX-512F, detected by `Width::host` before any
        // `Zmm` entry point runs.
        #[target_feature(enable = "avx512f")]
        #[inline]
        unsafe fn splat(a: f32) -> __m512 {
            _mm512_set1_ps(a)
        }

        // SAFETY: requires AVX-512F, detected by `Width::host` before any
        // `Zmm` entry point runs.
        #[target_feature(enable = "avx512f")]
        #[inline]
        unsafe fn load(p: *const f32) -> __m512 {
            // SAFETY: the caller bounds sixteen lanes at `p`.
            unsafe { _mm512_loadu_ps(p) }
        }

        // SAFETY: requires AVX-512F, detected by `Width::host` before any
        // `Zmm` entry point runs.
        #[target_feature(enable = "avx512f")]
        #[inline]
        unsafe fn store(p: *mut f32, v: __m512) {
            // SAFETY: the caller bounds sixteen lanes at `p`.
            unsafe { _mm512_storeu_ps(p, v) }
        }

        /// The skip is a mask register: lanes update only where `a` is not
        /// ±0.0 (a NaN `a` updates, as the portable `a == 0.0` test has it).
        // SAFETY: requires AVX-512F, detected by `Width::host` before any
        // `Zmm` entry point runs.
        #[target_feature(enable = "avx512f")]
        #[inline]
        unsafe fn update<const FMA: bool, const SKIP: bool>(
            d: __m512,
            a: __m512,
            s: __m512,
        ) -> __m512 {
            let keep = if SKIP {
                _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(a, _mm512_setzero_ps())
            } else {
                !0
            };
            if FMA {
                _mm512_mask3_fmadd_ps(a, s, d, keep)
            } else {
                _mm512_mask_add_ps(d, keep, d, _mm512_mul_ps(a, s))
            }
        }

        // SAFETY: requires AVX-512F, detected by `Width::host` before any
        // `Zmm` entry point runs.
        #[target_feature(enable = "avx512f")]
        #[inline]
        unsafe fn any_zero_or_nan<const R: usize, const V: usize>(acc: &[[__m512; V]; R]) -> bool {
            let zero = _mm512_setzero_ps();
            let mut zero_or_nan: __mmask16 = 0;
            for row in acc {
                for &lane in row {
                    zero_or_nan |= _mm512_cmp_ps_mask::<_CMP_EQ_UQ>(lane, zero);
                }
            }
            zero_or_nan != 0
        }
    }

    /// The strides of one `axpy_rows` call, shared by its row blocks.
    #[derive(Clone, Copy)]
    struct Grid {
        dst: usize,
        src: usize,
        row: usize,
        term: usize,
        terms: usize,
    }

    // SAFETY: requires AVX2+FMA; reached only from `SimdBackend::axpy_rows_at`
    // with a `Width::Ymm` (constructed after `is_x86_feature_detected!`
    // for avx2 and fma) and after its bounds asserts.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn axpy_rows_ymm<const FMA: bool>(
        dst: &mut [f32],
        dst_stride: usize,
        cols: core::ops::Range<usize>,
        src: &[f32],
        src_stride: usize,
        coeffs: crate::Coeffs<'_>,
    ) {
        // SAFETY: AVX2 and FMA are enabled here; the caller's bounds are
        // `axpy_rows_wide`'s.
        unsafe { axpy_rows_wide::<Ymm, FMA>(dst, dst_stride, cols, src, src_stride, coeffs) }
    }

    // SAFETY: requires AVX-512F (and so AVX2+FMA); reached only from
    // `SimdBackend::axpy_rows_at` with a `Width::Zmm` (constructed after
    // `is_x86_feature_detected!` for avx512f, avx2 and fma) and after its
    // bounds asserts.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn axpy_rows_zmm<const FMA: bool>(
        dst: &mut [f32],
        dst_stride: usize,
        cols: core::ops::Range<usize>,
        src: &[f32],
        src_stride: usize,
        coeffs: crate::Coeffs<'_>,
    ) {
        // SAFETY: AVX-512F, AVX2 and FMA are enabled here; the caller's
        // bounds are `axpy_rows_wide`'s.
        unsafe { axpy_rows_wide::<Zmm, FMA>(dst, dst_stride, cols, src, src_stride, coeffs) }
    }

    /// `SimdBackend::axpy_rows`, `L::N` lanes wide: rows go four at a
    /// time (then one at a time), each row block in `2N`- then `N`-column
    /// register tiles, an eight-column tile where `N` is 16, and a scalar
    /// column tail. Every lane is `d = d + a * s` per non-zero term,
    /// ascending — one FMA with `FMA`, multiply and add rounded
    /// separately (the scalar chain) without. The tail always rounds them
    /// separately, as `axpy_avx2`'s does, and it starts where that
    /// function's eight-lane body ends, so the widths agree bit for bit.
    ///
    /// # Safety
    ///
    /// `L`'s features are enabled in the caller, and the dispatch's
    /// asserts bound every row, column, term and coefficient.
    #[inline(always)]
    unsafe fn axpy_rows_wide<L: Lanes, const FMA: bool>(
        dst: &mut [f32],
        dst_stride: usize,
        cols: core::ops::Range<usize>,
        src: &[f32],
        src_stride: usize,
        coeffs: crate::Coeffs<'_>,
    ) {
        let rows = dst.len() / dst_stride;
        let width = cols.end - cols.start;
        let g = Grid {
            dst: dst_stride,
            src: src_stride,
            row: coeffs.row_stride,
            term: coeffs.term_stride,
            terms: coeffs.terms,
        };
        let dp = dst.as_mut_ptr().wrapping_add(cols.start);
        let sp = src.as_ptr().wrapping_add(cols.start);
        let cp = coeffs.data.as_ptr();
        let mut r = 0usize;
        while r < rows {
            let (d, c) = (dp.wrapping_add(r * g.dst), cp.wrapping_add(r * g.row));
            // SAFETY: `L`'s features are enabled in the caller; the block
            // covers rows `r..r + R` with `R <= rows - r`, which the
            // dispatch asserts keep inside `dst` and `coeffs`.
            r += unsafe {
                if rows - r >= 4 {
                    row_block::<L, 4, FMA>(d, sp, c, width, g);
                    4
                } else {
                    row_block::<L, 1, FMA>(d, sp, c, width, g);
                    1
                }
            };
        }
    }

    /// `R` rows of `axpy_rows_wide`: `2N`- then `N`-column register tiles,
    /// an eight-column tile where `N` is 16, then a scalar column tail.
    ///
    /// # Safety
    ///
    /// `L`'s features (and so AVX2 and FMA) are enabled in the caller,
    /// which guarantees `R` rows of `width` columns at `dp`, the matching
    /// coefficients at `cp` and `g.terms` source rows at `sp`.
    #[inline(always)]
    unsafe fn row_block<L: Lanes, const R: usize, const FMA: bool>(
        dp: *mut f32,
        sp: *const f32,
        cp: *const f32,
        width: usize,
        g: Grid,
    ) {
        let mut j = 0usize;
        while j + L::N <= width {
            let (d, s) = (dp.wrapping_add(j), sp.wrapping_add(j));
            // SAFETY: `L`'s features are enabled in the caller; the tile
            // spans at most `width - j` columns.
            j += unsafe {
                if width - j >= 2 * L::N {
                    tile::<L, R, 2, FMA>(d, s, cp, g)
                } else {
                    tile::<L, R, 1, FMA>(d, s, cp, g)
                }
            };
        }
        if L::N > 8 && j + 8 <= width {
            // SAFETY: AVX2 and FMA are enabled in the caller; the tile
            // spans eight of the `width - j` columns left.
            j += unsafe { tile::<Ymm, R, 1, FMA>(dp.wrapping_add(j), sp.wrapping_add(j), cp, g) };
        }
        for r in 0..R {
            for jj in j..width {
                // SAFETY: `jj < width` and `r < R` bound the element, and
                // the caller bounds every term's coefficient and source row.
                unsafe {
                    let d = dp.add(r * g.dst + jj);
                    let mut acc = *d;
                    for t in 0..g.terms {
                        let a = *cp.add(r * g.row + t * g.term);
                        if a != 0.0 {
                            acc += a * *sp.add(t * g.src + jj);
                        }
                    }
                    *d = acc;
                }
            }
        }
    }

    /// One `R × V·N` register tile over all of `g.terms`; returns the
    /// columns it covered. The tile first runs branch-free, adding every
    /// zero coefficient's product too. That product changes a lane only
    /// to a zero (`-0 + 0` is `+0`) or a NaN (`0 · inf`, or a signalling
    /// NaN quieted). From there the lane stays a zero or a NaN until the
    /// two chains agree again: NaN absorbs, and a zero lane's next
    /// update gives both chains the same value unless it is a zero too.
    /// This holds for the separate and the fused update alike. So a tile
    /// whose lanes end neither zero nor NaN is exactly the portable
    /// chain. Any other tile reruns from its loaded lanes, keeping every
    /// lane where its coefficient is ±0.0 (the portable `continue`).
    ///
    /// # Safety
    ///
    /// `L`'s features are enabled in the caller, which guarantees `R`
    /// rows of `V·N` columns at `dp` (not written before the store
    /// below), those columns of every source row at `sp` and `R` rows of
    /// coefficients at `cp`.
    #[inline(always)]
    unsafe fn tile<L: Lanes, const R: usize, const V: usize, const FMA: bool>(
        dp: *mut f32,
        sp: *const f32,
        cp: *const f32,
        g: Grid,
    ) -> usize {
        // SAFETY: `L`'s features are enabled in the caller, whose bounds
        // are `terms`' and cover the tile's stores.
        unsafe {
            let mut acc = terms::<L, R, V, false, FMA>(dp, sp, cp, g);
            if L::any_zero_or_nan(&acc) {
                acc = terms::<L, R, V, true, FMA>(dp, sp, cp, g);
            }
            for (r, row) in acc.iter().enumerate() {
                for (v, lane) in row.iter().enumerate() {
                    L::store(dp.add(r * g.dst + L::N * v), *lane);
                }
            }
        }
        L::N * V
    }

    /// A tile's accumulators, loaded from `R` rows of `V·N` columns at
    /// `dp`, with every term folded in by `L::update::<FMA, SKIP>`.
    ///
    /// # Safety
    ///
    /// `L`'s features are enabled in the caller, which guarantees those
    /// rows, `V·N` columns of every source row at `sp` and `R` rows of
    /// coefficients at `cp`.
    #[inline(always)]
    unsafe fn terms<L: Lanes, const R: usize, const V: usize, const SKIP: bool, const FMA: bool>(
        dp: *const f32,
        sp: *const f32,
        cp: *const f32,
        g: Grid,
    ) -> [[L::F; V]; R] {
        // SAFETY: `L`'s features are enabled in the caller, which bounds
        // every row, column and coefficient read here.
        unsafe {
            let zero = L::splat(0.0);
            let mut acc = [[zero; V]; R];
            for (r, row) in acc.iter_mut().enumerate() {
                for (v, lane) in row.iter_mut().enumerate() {
                    *lane = L::load(dp.add(r * g.dst + L::N * v));
                }
            }
            for t in 0..g.terms {
                let mut b = [zero; V];
                for (v, lane) in b.iter_mut().enumerate() {
                    *lane = L::load(sp.add(t * g.src + L::N * v));
                }
                for (r, row) in acc.iter_mut().enumerate() {
                    let a = L::splat(*cp.add(r * g.row + t * g.term));
                    for (lane, &s) in row.iter_mut().zip(&b) {
                        *lane = L::update::<FMA, SKIP>(*lane, a, s);
                    }
                }
            }
            acc
        }
    }

    /// `SimdBackend::axpy_gather`, eight lanes wide: `dst` in 64-, 32-,
    /// 16- and 8-lane register blocks, each carried across every listed
    /// source row (one FMA per lane with `FMA`, a separate multiply and
    /// add without), then a scalar tail of separate multiplies and adds.
    // SAFETY: requires AVX2+FMA; reached only from `SimdBackend::axpy_gather`
    // after its `is_x86_feature_detected!` check and row assert.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn axpy_gather_avx<const FMA: bool>(
        dst: &mut [f32],
        src: &[f32],
        rows: &[u32],
        a: f32,
    ) {
        let n = dst.len();
        let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
        let mut j = 0usize;
        while j + 8 <= n {
            let (d, s) = (dp.wrapping_add(j), sp.wrapping_add(j));
            // SAFETY: AVX2 and FMA are enabled here, after the dispatch's
            // `is_x86_feature_detected!`; the block picked spans at most
            // `n - j` lanes of `dst` and of every listed source row
            // (dispatch asserts the rows).
            j += unsafe {
                match (n - j) / 8 {
                    8.. => gather_block_avx::<8, FMA>(d, s, n, rows, a),
                    4.. => gather_block_avx::<4, FMA>(d, s, n, rows, a),
                    2.. => gather_block_avx::<2, FMA>(d, s, n, rows, a),
                    _ => gather_block_avx::<1, FMA>(d, s, n, rows, a),
                }
            };
        }
        for (jj, d) in dst.iter_mut().enumerate().skip(j) {
            let mut acc = *d;
            for &i in rows {
                acc += a * src[i as usize * n + jj];
            }
            *d = acc;
        }
    }

    /// One `8 * V`-lane block of `axpy_gather_avx`; returns its width.
    /// The caller guarantees `dp[..8 * V]` and, for every listed `i`,
    /// `sp[i * stride..][..8 * V]` are in bounds.
    // SAFETY: requires AVX2+FMA; reached only from `axpy_gather_avx`,
    // itself behind the `is_x86_feature_detected!`-gated dispatch.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn gather_block_avx<const V: usize, const FMA: bool>(
        dp: *mut f32,
        sp: *const f32,
        stride: usize,
        rows: &[u32],
        a: f32,
    ) -> usize {
        let va = _mm256_set1_ps(a);
        let mut acc = [_mm256_setzero_ps(); V];
        for (v, lane) in acc.iter_mut().enumerate() {
            // SAFETY: the caller bounds `8 * V` lanes of `dp`.
            *lane = unsafe { _mm256_loadu_ps(dp.add(8 * v)) };
        }
        for (k, &i) in rows.iter().enumerate() {
            if let Some(&ahead) = rows.get(k + 2) {
                let pa = sp.wrapping_add(ahead as usize * stride);
                for v in (0..V).step_by(2) {
                    // A prefetch is a hint: it never faults.
                    _mm_prefetch::<_MM_HINT_T0>(pa.wrapping_add(8 * v) as *const i8);
                }
            }
            let row = sp.wrapping_add(i as usize * stride);
            for (v, lane) in acc.iter_mut().enumerate() {
                // SAFETY: the caller bounds `8 * V` lanes of source row `i`.
                let s = unsafe { _mm256_loadu_ps(row.add(8 * v)) };
                *lane = if FMA {
                    _mm256_fmadd_ps(va, s, *lane)
                } else {
                    _mm256_add_ps(*lane, _mm256_mul_ps(va, s))
                };
            }
        }
        for (v, lane) in acc.iter().enumerate() {
            // SAFETY: the caller bounds `8 * V` lanes of `dp`.
            unsafe { _mm256_storeu_ps(dp.add(8 * v), *lane) };
        }
        8 * V
    }

    /// `2⁻²⁴`: a 24-bit draw's scale to `[0, 1)`, exact.
    const DRAW_SCALE: f32 = 1.0 / (1u32 << 24) as f32;

    /// `x` rotated left by `K` in each 64-bit lane (`L` = `64 - K`).
    // SAFETY: requires AVX2; reached only from `xoshiro_step_ymm`, inside a
    // `Ymm` entry point whose caller detected avx2 and fma.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn rotl_ymm<const K: i32, const L: i32>(x: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi64::<K>(x), _mm256_srli_epi64::<L>(x))
    }

    /// One xoshiro256++ step of four streams (one per 64-bit lane):
    /// returns the outputs and advances `s` as `StdRng::next_u64` does.
    // SAFETY: requires AVX2; reached only from `uniform_rows8_ymm`, whose
    // caller detected avx2 and fma.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn xoshiro_step_ymm(s: &mut [__m256i; 4]) -> __m256i {
        let sum = _mm256_add_epi64(s[0], s[3]);
        let result = _mm256_add_epi64(rotl_ymm::<23, 41>(sum), s[0]);
        let t = _mm256_slli_epi64::<17>(s[1]);
        s[2] = _mm256_xor_si256(s[2], s[0]);
        s[3] = _mm256_xor_si256(s[3], s[1]);
        s[1] = _mm256_xor_si256(s[1], s[2]);
        s[0] = _mm256_xor_si256(s[0], s[3]);
        s[2] = _mm256_xor_si256(s[2], t);
        s[3] = rotl_ymm::<45, 19>(s[3]);
        result
    }

    /// `xoshiro_step_ymm` for eight streams, each rotate one `vprolq`.
    /// (The step is written per width: the AVX2 and AVX-512 shifts take
    /// their counts as const generics of different types, `i32` and
    /// `u32`, which stable Rust cannot convert in a shared body.)
    // SAFETY: requires AVX-512F; reached only from `uniform_rows8_zmm`,
    // whose caller detected avx512f, avx2 and fma.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn xoshiro_step_zmm(s: &mut [__m512i; 4]) -> __m512i {
        let result = _mm512_add_epi64(_mm512_rol_epi64::<23>(_mm512_add_epi64(s[0], s[3])), s[0]);
        let t = _mm512_slli_epi64::<17>(s[1]);
        s[2] = _mm512_xor_si512(s[2], s[0]);
        s[3] = _mm512_xor_si512(s[3], s[1]);
        s[1] = _mm512_xor_si512(s[1], s[2]);
        s[0] = _mm512_xor_si512(s[0], s[3]);
        s[2] = _mm512_xor_si512(s[2], t);
        s[3] = _mm512_rol_epi64::<45>(s[3]);
        result
    }

    /// Transposes an 8 × 8 block held as eight rows of eight lanes.
    // SAFETY: requires AVX; reached only from `rows8`, inside an entry
    // point whose caller detected avx2 and fma.
    #[target_feature(enable = "avx")]
    #[inline]
    fn transpose8_avx(m: [__m256; 8]) -> [__m256; 8] {
        let t0 = _mm256_unpacklo_ps(m[0], m[1]);
        let t1 = _mm256_unpackhi_ps(m[0], m[1]);
        let t2 = _mm256_unpacklo_ps(m[2], m[3]);
        let t3 = _mm256_unpackhi_ps(m[2], m[3]);
        let t4 = _mm256_unpacklo_ps(m[4], m[5]);
        let t5 = _mm256_unpackhi_ps(m[4], m[5]);
        let t6 = _mm256_unpacklo_ps(m[6], m[7]);
        let t7 = _mm256_unpackhi_ps(m[6], m[7]);
        let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        [
            _mm256_permute2f128_ps::<0x20>(u0, u4),
            _mm256_permute2f128_ps::<0x20>(u1, u5),
            _mm256_permute2f128_ps::<0x20>(u2, u6),
            _mm256_permute2f128_ps::<0x20>(u3, u7),
            _mm256_permute2f128_ps::<0x31>(u0, u4),
            _mm256_permute2f128_ps::<0x31>(u1, u5),
            _mm256_permute2f128_ps::<0x31>(u2, u6),
            _mm256_permute2f128_ps::<0x31>(u3, u7),
        ]
    }

    // SAFETY: requires AVX2+FMA; reached only from `uniform_rows8_at` with
    // a `Width::Ymm` (constructed after `is_x86_feature_detected!` for
    // avx2 and fma); `out` is eight whole rows.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn uniform_rows8_ymm(states: &[[u64; 4]; 8], out: &mut [f32]) {
        // Streams 0, 2, 4, 6 in `lo` and 1, 3, 5, 7 in `hi`, one per
        // 64-bit lane, so `lo >> 40 | (hi >> 40) << 32` lays a step's
        // draws out as streams 0..8 in 32-bit lanes.
        let half = |first: usize| {
            [0, 1, 2, 3].map(|w| {
                let [a, b, c, d] = [0, 2, 4, 6].map(|i| states[first + i][w] as i64);
                _mm256_set_epi64x(d, c, b, a)
            })
        };
        let (mut lo, mut hi) = (half(0), half(1));
        let scale = _mm256_set1_ps(DRAW_SCALE);
        let step = || {
            let l = _mm256_srli_epi64::<40>(xoshiro_step_ymm(&mut lo));
            let h = _mm256_slli_epi64::<32>(_mm256_srli_epi64::<40>(xoshiro_step_ymm(&mut hi)));
            _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_or_si256(l, h)), scale)
        };
        // SAFETY: AVX2 is enabled here; the caller passes eight rows.
        unsafe { rows8(out, step) }
    }

    // SAFETY: requires AVX-512F (and so AVX2+FMA); reached only from
    // `uniform_rows8_at` with a `Width::Zmm` (constructed after
    // `is_x86_feature_detected!` for avx512f, avx2 and fma); `out` is
    // eight whole rows.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn uniform_rows8_zmm(states: &[[u64; 4]; 8], out: &mut [f32]) {
        // One stream per 64-bit lane, in stream order; a step's 24-bit
        // draws narrow to 32-bit lanes exactly.
        let mut s = [0, 1, 2, 3].map(|w| {
            let [a, b, c, d, e, f, g, h] = states.map(|s| s[w] as i64);
            _mm512_set_epi64(h, g, f, e, d, c, b, a)
        });
        let scale = _mm256_set1_ps(DRAW_SCALE);
        let step = || {
            let x = _mm512_cvtepi64_epi32(_mm512_srli_epi64::<40>(xoshiro_step_zmm(&mut s)));
            _mm256_mul_ps(_mm256_cvtepi32_ps(x), scale)
        };
        // SAFETY: AVX-512F, and so AVX2, is enabled here; the caller
        // passes eight rows.
        unsafe { rows8(out, step) }
    }

    /// `uniform_rows8`'s row layout: `step` advances the eight streams
    /// and returns their draws, streams 0..8 in the eight lanes. Eight
    /// steps are transposed into eight columns of the eight rows; the
    /// last `dim % 8` steps go through a stack strip.
    ///
    /// # Safety
    ///
    /// AVX2 is enabled in the caller; `out` is eight whole rows.
    #[inline(always)]
    unsafe fn rows8(out: &mut [f32], mut step: impl FnMut() -> __m256) {
        let dim = out.len() / 8;
        let dp = out.as_mut_ptr();
        let mut strip = [[0.0f32; 8]; 8];
        let mut t = 0usize;
        // SAFETY: AVX2 is enabled in the caller; each store is bounded
        // where it is made.
        unsafe {
            while t + 8 <= dim {
                let mut steps = [Ymm::splat(0.0); 8];
                for s in &mut steps {
                    *s = step();
                }
                for (r, col) in transpose8_avx(steps).iter().enumerate() {
                    // `t + 8 <= dim` bounds eight columns of row `r < 8`.
                    Ymm::store(dp.add(r * dim + t), *col);
                }
                t += 8;
            }
            for draws in strip.iter_mut().take(dim - t) {
                // `draws` is eight f32s.
                Ymm::store(draws.as_mut_ptr(), step());
            }
        }
        for (r, row) in out.chunks_exact_mut(dim.max(1)).enumerate() {
            for (x, draws) in row[t..].iter_mut().zip(&strip) {
                *x = draws[r];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize, seed: u32) -> Vec<f32> {
        // Small deterministic LCG — values in [-2, 2) with varied exponents.
        let mut state = seed.wrapping_mul(2_654_435_761).wrapping_add(12345);
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 8) as f32 / (1u32 << 22) as f32 - 2.0
            })
            .collect()
    }

    fn close(x: f32, y: f32, tol: f32) -> bool {
        let m = x.abs().max(y.abs());
        (x - y).abs() <= tol * (1.0 + m)
    }

    #[test]
    fn policy_parse_and_resolve() {
        assert_eq!(SimdPolicy::parse("auto"), Ok(SimdPolicy::Auto));
        assert_eq!(SimdPolicy::parse("scalar"), Ok(SimdPolicy::Scalar));
        assert_eq!(SimdPolicy::parse("avx2"), Ok(SimdPolicy::Avx2));
        for gone in ["sse", "avx512"] {
            let err = SimdPolicy::parse(gone).unwrap_err();
            assert!(err.contains("auto|avx2|scalar"), "{gone}: {err}");
        }
        assert_eq!(SimdPolicy::Scalar.resolve(), Ok(SimdBackend::Scalar));
        // Auto always resolves, to the best available backend.
        let auto = SimdPolicy::Auto.resolve().unwrap();
        assert_eq!(auto, SimdBackend::detect());
        assert!(SimdBackend::available().contains(&auto));
    }

    /// A prefetch covers the lines from a slice's first byte to its last,
    /// wherever the slice starts, and no line of a slice without bytes;
    /// it leaves the data as it was.
    #[test]
    fn prefetch_covers_exactly_the_lines_a_slice_touches() {
        let empty: &[u32] = &[];
        prefetch(empty);
        assert_eq!(cache_lines(empty).count(), 0);
        let units = [(); 1000];
        prefetch(&units);
        assert_eq!(cache_lines(&units).count(), 0);
        let buf: Vec<u8> = (0..=255).collect();
        // The first whole line of `buf`, then every sub-slice around it.
        let base = buf.as_ptr().addr().next_multiple_of(LINE) - buf.as_ptr().addr();
        for lead in 0..LINE {
            for len in [1, LINE - lead, LINE - lead + 1, 2 * LINE + 1] {
                let part = &buf[base + lead..][..len];
                prefetch(part);
                let lines: Vec<usize> = cache_lines(part).map(|p| p.addr()).collect();
                let (first, last) = (part.as_ptr().addr(), part.as_ptr().addr() + len - 1);
                assert_eq!(lines[0], first - first % LINE, "lead {lead}, len {len}");
                assert_eq!(lines[lines.len() - 1], last - last % LINE);
                assert!(lines.windows(2).all(|w| w[1] - w[0] == LINE));
            }
        }
        assert!(buf.iter().enumerate().all(|(i, &b)| b as usize == i));
    }

    /// The codes feed the checkpoint fingerprint and `buffalo-par`'s
    /// ambient atomic: renumbering one would stop old snapshots resuming.
    #[test]
    fn backend_index_roundtrip() {
        assert_eq!(SimdBackend::Scalar as usize, 0);
        assert_eq!(SimdBackend::Avx2 as usize, 2);
        for b in [SimdBackend::Scalar, SimdBackend::Avx2] {
            assert_eq!(SimdBackend::from_index(b as usize), Some(b));
        }
        assert_eq!(SimdBackend::from_index(1), None);
        assert_eq!(SimdBackend::from_index(3), None);
    }

    #[test]
    fn axpy_matches_scalar_on_all_tail_lengths() {
        for backend in SimdBackend::available() {
            for n in 0..=33 {
                let src = data(n, 7);
                let mut dst = data(n, 11);
                let mut reference = dst.clone();
                axpy_scalar(&mut reference, &src, 0.37);
                backend.axpy(&mut dst, &src, 0.37);
                for (i, (&got, &want)) in dst.iter().zip(&reference).enumerate() {
                    // axpy has no reduction: scalar is bitwise equal;
                    // AVX2 differs only by FMA's single rounding.
                    assert!(
                        close(got, want, 1e-6),
                        "{backend:?} axpy n={n} lane {i}: {got} vs {want}"
                    );
                    if backend != SimdBackend::Avx2 {
                        assert_eq!(got.to_bits(), want.to_bits());
                    }
                }
            }
        }
    }

    /// `dst[r][cols]` after one backend's `axpy` per non-zero term of row
    /// `r`, ascending — what `axpy_rows` must reproduce bit for bit.
    fn consecutive_axpys(
        backend: SimdBackend,
        dst: &mut [f32],
        dst_stride: usize,
        cols: Range<usize>,
        src: &[f32],
        src_stride: usize,
        c: Coeffs<'_>,
    ) {
        for (r, row) in dst.chunks_exact_mut(dst_stride).enumerate() {
            for t in 0..c.terms {
                let a = c.data[r * c.row_stride + t * c.term_stride];
                if a != 0.0 {
                    let s = &src[t * src_stride + cols.start..][..cols.len()];
                    backend.axpy(&mut row[cols.clone()], s, a);
                }
            }
        }
    }

    /// Every width the host supports, narrowest first.
    fn widths() -> Vec<Width> {
        let host = Width::host();
        [Width::Portable, Width::Ymm, Width::Zmm]
            .into_iter()
            .filter(|&w| w <= host)
            .collect()
    }

    /// Every backend at every width the host runs its `axpy_rows` at: the
    /// portable panel under the scalar chain, and each wide body. (`Avx2`
    /// exists only where its wide bodies do.)
    fn backends_and_widths() -> Vec<(SimdBackend, Width)> {
        let mut v = Vec::new();
        for backend in SimdBackend::available() {
            for width in widths() {
                if backend != SimdBackend::Avx2 || width != Width::Portable {
                    v.push((backend, width));
                }
            }
        }
        v
    }

    /// One row of `axpy_rows` is the same arithmetic as consecutive
    /// axpys, so every backend must reproduce them bit for bit at every
    /// width — each tile size, body/tail split, with strided rows and
    /// coefficients, and with zero coefficients skipped.
    #[test]
    fn axpy_rows_is_consecutive_axpys_bitwise() {
        for (backend, width) in backends_and_widths() {
            for n in (0..=70).chain([100, 128, 131]) {
                for (terms, src_stride, coeff_stride) in
                    [(0, n, 1), (1, n, 1), (7, n + 3, 1), (64, n, 5)]
                {
                    let src = data(terms * src_stride + n, 7 + n as u32);
                    let mut coeffs = data(terms * coeff_stride + 1, 13);
                    if terms > 2 {
                        coeffs[2 * coeff_stride] = 0.0;
                        coeffs[coeff_stride] = -0.0;
                    }
                    let c = Coeffs {
                        data: &coeffs,
                        row_stride: 0,
                        term_stride: coeff_stride,
                        terms,
                    };
                    let stride = n.max(1);
                    let mut want = data(n, 11);
                    let mut got = want.clone();
                    consecutive_axpys(backend, &mut want, stride, 0..n, &src, src_stride, c);
                    backend.axpy_rows_at(width, &mut got, stride, 0..n, &src, src_stride, c);
                    let what = format!("{backend:?} at {width:?}, n={n} terms={terms}");
                    assert_eq!(bits(&got), bits(&want), "{what}");
                }
            }
        }
    }

    /// A fused update can round a tiny negative exact result to `-0.0`,
    /// which a later zero term must leave alone: `-0 + 0` is `+0`. The
    /// tiles' branch-free zero skip may not run on such inputs.
    #[test]
    fn a_fused_underflow_keeps_its_negative_zero_past_a_zero_term() {
        let tiny = 2f32.powi(-80);
        let src: Vec<f32> = [tiny; 32].into_iter().chain([1.0; 32]).collect();
        let coeffs = [-tiny, 0.0];
        for (backend, width) in backends_and_widths() {
            let c = Coeffs {
                data: &coeffs,
                row_stride: 0,
                term_stride: 1,
                terms: 2,
            };
            let mut want = vec![0.0f32; 4 * 32];
            let mut got = want.clone();
            consecutive_axpys(backend, &mut want, 32, 0..32, &src, 32, c);
            backend.axpy_rows_at(width, &mut got, 32, 0..32, &src, 32, c);
            assert_eq!(bits(&got), bits(&want), "{backend:?} at {width:?}");
        }
    }

    #[test]
    fn dot_matches_scalar_on_all_tail_lengths() {
        for backend in SimdBackend::available() {
            for n in 0..=33 {
                let a = data(n, 3);
                let b = data(n, 5);
                let want = dot_scalar(&a, &b);
                let got = backend.dot(&a, &b);
                assert!(
                    close(got, want, 1e-5),
                    "{backend:?} dot n={n}: {got} vs {want}"
                );
            }
        }
    }

    /// The `Avx2` reduction order, stated portably: eight lane
    /// accumulators, each step one fused multiply-add, the lanes summed in
    /// ascending order from `+0.0`, then each tail product multiplied and
    /// added separately.
    fn dot_eight_lanes(a: &[f32], b: &[f32]) -> f32 {
        let body = a.len() - a.len() % 8;
        let mut lanes = [0.0f32; 8];
        for (x, y) in a[..body].chunks_exact(8).zip(b[..body].chunks_exact(8)) {
            for (l, lane) in lanes.iter_mut().enumerate() {
                *lane = x[l].mul_add(y[l], *lane);
            }
        }
        let mut s = 0.0f32;
        for lane in lanes {
            s += lane;
        }
        for (x, y) in a[body..].iter().zip(&b[body..]) {
            s += x * y;
        }
        s
    }

    /// `Avx2`'s `dot` is `dot_eight_lanes` bit for bit (NaN compared as
    /// NaN), at every tail length around the eight-lane body and at a few
    /// long ones, on plain values, on a quarter ±0.0, on products in the
    /// subnormal range, and with NaN, ±inf and subnormal operands.
    #[test]
    fn avx2_dot_is_the_eight_lane_reference_bitwise() {
        if !SimdBackend::available().contains(&SimdBackend::Avx2) {
            return;
        }
        let tiny = |v: Vec<f32>, e: i32| v.into_iter().map(|x| x * 2f32.powi(e)).collect();
        for n in (0..=33).chain([64, 257, 1003, 4096]) {
            let seed = 17 + n as u32;
            let cases: [(&str, Vec<f32>, Vec<f32>); 4] = [
                ("plain", data(n, 3), data(n, 5)),
                (
                    "zeros",
                    with_specials(n, seed, 4, 0),
                    with_specials(n, seed + 1, 4, 0),
                ),
                ("subnormal", tiny(data(n, 3), -112), tiny(data(n, 5), -16)),
                (
                    "rare",
                    with_specials(n, seed, 1, 24),
                    with_specials(n, seed + 1, 1, 24),
                ),
            ];
            for (what, a, b) in &cases {
                let got = SimdBackend::Avx2.dot(a, b);
                let want = dot_eight_lanes(a, b);
                assert!(same(&[got], &[want]), "{what} n={n}: {got:e} vs {want:e}");
            }
        }
    }

    #[test]
    fn each_backend_is_run_to_run_deterministic() {
        for backend in SimdBackend::available() {
            let a = data(1003, 1);
            let b = data(1003, 2);
            let d1 = backend.dot(&a, &b);
            let d2 = backend.dot(&a, &b);
            assert_eq!(d1.to_bits(), d2.to_bits(), "{backend:?} dot");
            let mut x1 = data(1003, 4);
            let mut x2 = x1.clone();
            backend.axpy(&mut x1, &a, 0.5);
            backend.axpy(&mut x2, &a, 0.5);
            assert_eq!(
                x1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                x2.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{backend:?} axpy"
            );
        }
    }

    /// Widening is a shift: every backend gives the portable bits at every
    /// length around the 8-lane body, NaNs (quiet, signalling, with a
    /// payload), ±inf, ±0.0 and subnormal halves included.
    #[test]
    fn widen_is_exact_on_every_backend() {
        const SPECIAL: [u16; 8] = [
            0x7FC0, 0xFFC1, 0x7F81, 0x7F80, 0xFF80, 0x8000, 0x0000, 0x0001,
        ];
        for n in 0..=33 {
            let mut halves: Vec<u16> = data(n, 9 + n as u32)
                .iter()
                .map(|&v| f32_to_bf16(v))
                .collect();
            for (i, h) in halves.iter_mut().enumerate().step_by(3) {
                *h = SPECIAL[(i / 3 + n) % SPECIAL.len()];
            }
            let mut reference = vec![0.0f32; n];
            widen_bf16_scalar(&mut reference, &halves);
            for backend in SimdBackend::available() {
                let mut out = vec![0.0f32; n];
                backend.widen_bf16(&mut out, &halves);
                assert_eq!(bits(&out), bits(&reference), "{backend:?} widen n={n}");
            }
        }
    }

    /// Values in [-2, 2) from `data`, of which `zeros` in 16 are ±0.0 and
    /// `rare` in 1024 are NaN, ±inf or a subnormal — the values the zero
    /// skip and the lane/tail split must treat exactly as the scalar chain.
    fn with_specials(n: usize, seed: u32, zeros: usize, rare: usize) -> Vec<f32> {
        const RARE: [f32; 4] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e-40];
        let picks = data(n, seed ^ 0x5bd1);
        let mut v = data(n, seed);
        for (x, p) in v.iter_mut().zip(picks) {
            match ((p + 2.0) * 256.0) as usize {
                u if u < rare => *x = RARE[u % RARE.len()],
                u if u < rare + 64 * zeros => *x = [0.0, -0.0][u % 2],
                _ => {}
            }
        }
        v
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Equal bits, or NaN on both sides: IEEE-754 fixes every result of
    /// the chain but a NaN's payload, which follows operand order, and a
    /// compiler may commute an add (the portable code included).
    fn same(got: &[f32], want: &[f32]) -> bool {
        got.len() == want.len()
            && got
                .iter()
                .zip(want)
                .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        /// Every backend's `axpy_rows`, at every width the host has (the
        /// portable panel, the 8- and 16-lane register tiles), is that
        /// backend's consecutive `axpy` calls with zero coefficients
        /// skipped, bit for bit: row counts off a multiple of 4, widths
        /// `16q`, `16q + 8` and other, any term count, strided
        /// coefficients in either layout, ±0.0 / NaN / ±inf / subnormal
        /// coefficients and sources.
        #[test]
        fn axpy_rows_is_the_backends_axpys(
            (rows, q, tail, terms) in (0usize..11, 0usize..5, 0usize..32, 0usize..140),
            (col0, transposed, zeros, seed) in (0usize..3, 0u8..2, 0usize..12, 0u32..1000),
            combo in 0..backends_and_widths().len(),
        ) {
            let (backend, lanes) = backends_and_widths()[combo];
            let width = 16 * q + tail;
            let stride = col0 + width + 1;
            let src_stride = stride + 2;
            let (row_stride, term_stride) = if transposed == 1 { (1, rows + 1) } else { (terms + 3, 1) };
            let coeffs = with_specials(rows * row_stride + terms * term_stride + 1, seed, zeros, 4);
            let src = with_specials(terms * src_stride + stride, seed + 1, zeros / 4, 4);
            let c = Coeffs { data: &coeffs, row_stride, term_stride, terms };
            let cols = col0..col0 + width;
            let mut want = with_specials(rows * stride, seed + 2, 2, 4);
            let mut got = want.clone();
            backend.axpy_rows_at(lanes, &mut got, stride, cols.clone(), &src, src_stride, c);
            consecutive_axpys(backend, &mut want, stride, cols.clone(), &src, src_stride, c);
            let what = format!("{backend:?} at {lanes:?}: {rows} rows, width {width}, {terms} terms");
            proptest::prop_assert!(same(&got, &want), "{what}");
        }

        /// Every backend's `axpy_gather` (a register-held row on a host
        /// with AVX2) is that backend's `axpy` per listed row, in list
        /// order, at every width around the 64/32/16/8-lane blocks.
        #[test]
        fn axpy_gather_is_the_backends_axpys(
            (n, listed, seed) in (0usize..150, 0usize..24, 0u32..1000),
            backend in 0..SimdBackend::available().len(),
        ) {
            let backend = SimdBackend::available()[backend];
            let src_rows = 9;
            let src = with_specials(src_rows * n, seed, 1, 4);
            let rows: Vec<u32> = data(listed, seed + 1)
                .iter()
                .map(|&x| ((x + 2.0) * 2.25) as u32 % src_rows as u32)
                .collect();
            let a = 1.0 / (listed.max(1) as f32);
            let mut want = with_specials(n, seed + 2, 2, 4);
            let mut got = want.clone();
            backend.axpy_gather(&mut got, &src, &rows, a);
            for &i in &rows {
                backend.axpy(&mut want, &src[i as usize * n..][..n], a);
            }
            proptest::prop_assert!(same(&got, &want), "{backend:?}: n {n}, {listed} rows");
        }
    }

    /// `uniform_rows8` is eight `StdRng` streams' `gen::<f32>()` draws,
    /// bit for bit, at every width the host has and at dims around the
    /// eight-column transpose; the portable width writes nothing.
    #[test]
    fn uniform_rows8_is_eight_std_rng_streams() {
        use rand::{Rng, SeedableRng};
        for width in widths() {
            for dim in [0, 1, 7, 8, 9, 15, 16, 128, 1433] {
                let seeds: [u64; 8] = core::array::from_fn(|i| {
                    (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ dim as u64
                });
                let mut out = vec![f32::NAN; 8 * dim];
                if !uniform_rows8_at(width, seeds, &mut out) {
                    assert_eq!(width, Width::Portable);
                    assert!(out.iter().all(|x| x.is_nan()), "nothing written");
                    continue;
                }
                for (row, &seed) in out.chunks_exact(dim.max(1)).zip(&seeds) {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                    for (j, &x) in row.iter().enumerate() {
                        let want: f32 = rng.gen();
                        assert_eq!(
                            x.to_bits(),
                            want.to_bits(),
                            "{width:?}: dim {dim} seed {seed:#x} column {j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bf16_roundtrip_error_is_bounded() {
        // Documented bound: relative error ≤ 2⁻⁸ (half a bf16 ulp).
        for seed in 0..32 {
            for &x in &data(64, seed) {
                let rt = bf16_to_f32(f32_to_bf16(x));
                assert!(
                    (rt - x).abs() <= x.abs() / 256.0,
                    "bf16 roundtrip {x} -> {rt}"
                );
            }
        }
    }

    #[test]
    fn bf16_handles_specials() {
        assert_eq!(f32_to_bf16(0.0), 0x0000);
        assert_eq!(f32_to_bf16(-0.0), 0x8000);
        assert_eq!(bf16_to_f32(f32_to_bf16(f32::INFINITY)), f32::INFINITY);
        assert_eq!(
            bf16_to_f32(f32_to_bf16(f32::NEG_INFINITY)),
            f32::NEG_INFINITY
        );
        assert!(bf16_to_f32(f32_to_bf16(f32::NAN)).is_nan());
        // f32::MAX overflows bf16's mantissa and rounds to +inf — the
        // standard RNE behavior.
        assert_eq!(bf16_to_f32(f32_to_bf16(f32::MAX)), f32::INFINITY);
        // Exactly representable values round-trip bitwise.
        for v in [1.0f32, -2.5, 0.15625, 384.0] {
            assert_eq!(bf16_to_f32(f32_to_bf16(v)).to_bits(), v.to_bits());
        }
        // Ties round to even: 1.0 + 2⁻⁸ sits exactly between bf16
        // neighbors 1.0 and 1.0078125; RNE picks the even mantissa (1.0).
        let tie = f32::from_bits(0x3F80_8000);
        assert_eq!(bf16_to_f32(f32_to_bf16(tie)), 1.0);
    }
}
