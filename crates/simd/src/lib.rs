//! Runtime-dispatched SIMD inner kernels for Buffalo's dense math.
//!
//! Every hot loop in the training stack reduces to one of three shapes:
//! `axpy` (`dst[i] += a * src[i]` — neighbor aggregation, gradient
//! scatter; `axpy_panel`, a run of axpys into one `dst` held in
//! registers; `axpy_rows`, a panel per row of a block — matmul inner
//! tiles; `axpy_gather`, a run of axpys from listed source rows — mean
//! aggregation), `dot` (transposed matmul, attention scores), and
//! `widen_bf16` (bf16 feature rows → f32 at gather time). This crate
//! provides explicit `std::arch` AVX2(+FMA) and SSE4.1 implementations
//! of those primitives behind a [`SimdBackend`] value dispatch, with a
//! scalar chain that is bitwise-identical to the pre-SIMD kernels, and
//! [`uniform_rows8`], the feature synthesiser's eight-stream generator.
//!
//! # Determinism contract
//!
//! Each backend is **run-to-run deterministic**: a fixed vector body, a
//! fixed ascending-lane reduction order for dots, and a fixed scalar
//! tail mean the same inputs always produce the same bits on any host
//! that supports the backend (IEEE-754 ops, including FMA, are exactly
//! specified). Backends are *not* bitwise-identical to each other:
//!
//! * [`SimdBackend::Scalar`] — the reference chain; bitwise-identical
//!   to the historical kernels and the committed golden trails. It names
//!   a rounding chain, not an instruction set: per element `d = d + a·s`
//!   in ascending term order, multiply and add rounded separately, zero
//!   coefficients skipped where the primitive skips them. On a host with
//!   AVX, `axpy_rows` and `axpy_gather` compute that chain eight lanes
//!   wide (`_mm256_mul_ps` then `_mm256_add_ps`, never FMA) — the same
//!   bits, chosen by `is_x86_feature_detected!` once per call. The
//!   portable code is the path on every other host and the reference
//!   the tests hold the wide bodies to. (A NaN's payload is the one
//!   thing IEEE-754 leaves to operand order, which the compiler may
//!   commute in the portable code too; the tests compare NaN as NaN.)
//! * [`SimdBackend::Sse`] — `axpy` uses separate 4-wide mul + add, which
//!   rounds exactly like the scalar chain (`axpy` stays bitwise-equal);
//!   `dot` reduces 4 lanes and differs from scalar by reassociation.
//! * [`SimdBackend::Avx2`] — 8-wide with FMA; both `axpy` and `dot`
//!   round differently from scalar (FMA skips the intermediate
//!   rounding). Deterministic, gated by its own golden in `ci.sh`.
//!
//! `widen_bf16` is exact (a left shift) on every backend, and
//! `uniform_rows8` is exact integer work plus exact conversions, so
//! feature precision and SIMD selection compose without interacting.
//!
//! # Safety conventions
//!
//! `#[target_feature]` kernels live in the private `x86` module and are
//! only reachable through [`SimdBackend`] dispatch or a safe function
//! that runs `is_x86_feature_detected!` itself first (the scalar chain's
//! AVX bodies, [`uniform_rows8`]). Non-scalar backend values originate
//! exclusively from `SimdBackend::detect` / [`SimdPolicy::resolve`],
//! which check `is_x86_feature_detected!` before producing them — that
//! invariant, or the check beside the call, is the SAFETY argument each
//! dispatch site cites.

#![warn(missing_docs)]
#![forbid(unsafe_op_in_unsafe_fn)]

use std::ops::Range;

/// How the CLI / config layer asks for a backend. `Auto` degrades
/// gracefully; the explicit variants fail loudly when the host cannot
/// honor them (a silently substituted backend would change numerics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdPolicy {
    /// Pick the best backend the host supports (AVX2 ≻ SSE ≻ scalar).
    Auto,
    /// Require AVX2 + FMA; error if undetected.
    Avx2,
    /// Require SSE4.1; error if undetected.
    Sse,
    /// Force the scalar reference kernels (the default everywhere).
    Scalar,
}

impl SimdPolicy {
    /// Parses a CLI `--simd` value.
    pub fn parse(s: &str) -> Result<SimdPolicy, String> {
        match s {
            "auto" => Ok(SimdPolicy::Auto),
            "avx2" => Ok(SimdPolicy::Avx2),
            "sse" => Ok(SimdPolicy::Sse),
            "scalar" => Ok(SimdPolicy::Scalar),
            other => Err(format!(
                "unknown --simd value '{other}' (expected auto|avx2|sse|scalar)"
            )),
        }
    }

    /// Resolves the policy against the host CPU. `Auto` never fails;
    /// an explicitly requested backend the host lacks is an error.
    pub fn resolve(self) -> Result<SimdBackend, String> {
        match self {
            SimdPolicy::Auto => Ok(SimdBackend::detect()),
            SimdPolicy::Scalar => Ok(SimdBackend::Scalar),
            SimdPolicy::Sse => {
                if sse41_available() {
                    Ok(SimdBackend::Sse)
                } else {
                    Err("--simd sse requested but the host CPU lacks SSE4.1".to_string())
                }
            }
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
/// the ambient-config atomic in `buffalo-par`.
///
/// Invariant: the `Sse` / `Avx2` values are only constructed after the
/// corresponding `is_x86_feature_detected!` checks succeed (in
/// `SimdBackend::detect` and [`SimdPolicy::resolve`]); every `unsafe`
/// dispatch below relies on that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum SimdBackend {
    /// Reference scalar chain — bitwise-identical to the pre-SIMD
    /// kernels and the committed goldens, on AVX registers where the
    /// host has them.
    Scalar = 0,
    /// SSE4.1, 4-wide. `axpy` is bitwise-equal to scalar; `dot` is not.
    Sse = 1,
    /// AVX2 + FMA, 8-wide. Fastest; rounds differently from scalar.
    Avx2 = 2,
}

impl SimdBackend {
    /// The best backend this host supports.
    pub(crate) fn detect() -> SimdBackend {
        if avx2_available() {
            SimdBackend::Avx2
        } else if sse41_available() {
            SimdBackend::Sse
        } else {
            SimdBackend::Scalar
        }
    }

    /// Every backend usable on this host, scalar first. (Bench and test
    /// harnesses iterate this to cover each supported path.)
    pub fn available() -> Vec<SimdBackend> {
        let mut v = vec![SimdBackend::Scalar];
        if sse41_available() {
            v.push(SimdBackend::Sse);
        }
        if avx2_available() {
            v.push(SimdBackend::Avx2);
        }
        v
    }

    /// Inverse of `backend as usize`; `None` for out-of-range codes.
    pub fn from_index(i: usize) -> Option<SimdBackend> {
        match i {
            0 => Some(SimdBackend::Scalar),
            1 => Some(SimdBackend::Sse),
            2 => Some(SimdBackend::Avx2),
            _ => None,
        }
    }

    /// Stable lowercase name (matches the CLI `--simd` vocabulary).
    pub fn as_str(self) -> &'static str {
        match self {
            SimdBackend::Scalar => "scalar",
            SimdBackend::Sse => "sse",
            SimdBackend::Avx2 => "avx2",
        }
    }

    /// `dst[i] += a * src[i]`. Panics if the slices differ in length.
    ///
    /// Scalar and SSE round identically (separate mul then add per
    /// element); AVX2 uses FMA in the 8-wide body and mul+add in the
    /// tail.
    #[inline]
    pub fn axpy(self, dst: &mut [f32], src: &[f32], a: f32) {
        assert_eq!(dst.len(), src.len(), "axpy length mismatch");
        match self {
            SimdBackend::Scalar => axpy_scalar(dst, src, a),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Sse` is only constructed after `detect`/`resolve`
            // verified `is_x86_feature_detected!("sse4.1")`.
            SimdBackend::Sse => unsafe { x86::axpy_sse(dst, src, a) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2` is only constructed after `detect`/`resolve`
            // verified `is_x86_feature_detected!` for avx2 and fma.
            SimdBackend::Avx2 => unsafe { x86::axpy_avx2(dst, src, a) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => axpy_scalar(dst, src, a),
        }
    }

    /// Applies `terms` [`axpy`](Self::axpy) updates to one `dst`:
    /// `dst[j] += coeffs[t * coeff_stride] * src[t * src_stride + j]` for
    /// `t = 0, 1, …` in ascending order, skipping every term whose
    /// coefficient is zero. Bit for bit what that many consecutive `axpy`
    /// calls produce — each element sees the same operations in the same
    /// order, and the lane body and scalar tail split where `axpy` splits
    /// them — but `dst` is loaded once, carried in registers across the
    /// panel and stored once (three of a lone axpy's four memory
    /// operations per lane go to `dst`).
    ///
    /// # Panics
    ///
    /// Panics if `src` or `coeffs` is too short for `terms` strided reads.
    #[inline]
    pub fn axpy_panel(
        self,
        dst: &mut [f32],
        src: &[f32],
        src_stride: usize,
        coeffs: &[f32],
        coeff_stride: usize,
        terms: usize,
    ) {
        if terms == 0 {
            return;
        }
        assert!(
            src.len() >= (terms - 1) * src_stride + dst.len(),
            "axpy_panel source too short"
        );
        assert!(
            coeffs.len() > (terms - 1) * coeff_stride,
            "axpy_panel coefficients too short"
        );
        match self {
            SimdBackend::Scalar => {
                axpy_panel_scalar(dst, src, src_stride, coeffs, coeff_stride, terms)
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Sse` is only constructed after `detect`/`resolve`
            // verified `is_x86_feature_detected!("sse4.1")`; the asserts
            // above bound every strided read the kernel makes.
            SimdBackend::Sse => unsafe {
                x86::axpy_panel_sse(dst, src, src_stride, coeffs, coeff_stride, terms)
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2` is only constructed after `detect`/`resolve`
            // verified `is_x86_feature_detected!` for avx2 and fma; the
            // asserts above bound every strided read the kernel makes.
            SimdBackend::Avx2 => unsafe {
                x86::axpy_panel_avx2(dst, src, src_stride, coeffs, coeff_stride, terms)
            },
            #[cfg(not(target_arch = "x86_64"))]
            _ => axpy_panel_scalar(dst, src, src_stride, coeffs, coeff_stride, terms),
        }
    }

    /// Dot product with a fixed reduction order per backend. Panics if
    /// the slices differ in length.
    ///
    /// Scalar accumulates left-to-right; SIMD backends keep a 4/8-lane
    /// accumulator, reduce it in ascending lane order, then fold the
    /// scalar tail — deterministic, but associated differently than
    /// scalar.
    #[inline]
    pub fn dot(self, a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dot length mismatch");
        match self {
            SimdBackend::Scalar => dot_scalar(a, b),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Sse` is only constructed after `detect`/`resolve`
            // verified `is_x86_feature_detected!("sse4.1")`.
            SimdBackend::Sse => unsafe { x86::dot_sse(a, b) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2` is only constructed after `detect`/`resolve`
            // verified `is_x86_feature_detected!` for avx2 and fma.
            SimdBackend::Avx2 => unsafe { x86::dot_avx2(a, b) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => dot_scalar(a, b),
        }
    }

    /// Widens a bf16 row to f32 (`dst[i] = bf16_to_f32(src[i])`). Exact
    /// on every backend — widening is a left shift, so the result is
    /// independent of the backend. Panics if the slices differ in
    /// length.
    #[inline]
    pub fn widen_bf16(self, dst: &mut [f32], src: &[u16]) {
        assert_eq!(dst.len(), src.len(), "widen_bf16 length mismatch");
        match self {
            SimdBackend::Scalar => widen_bf16_scalar(dst, src),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Sse` is only constructed after `detect`/`resolve`
            // verified `is_x86_feature_detected!("sse4.1")` (the widen
            // kernel needs sse4.1 for `_mm_cvtepu16_epi32`).
            SimdBackend::Sse => unsafe { x86::widen_bf16_sse(dst, src) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2` is only constructed after `detect`/`resolve`
            // verified `is_x86_feature_detected!` for avx2 and fma.
            SimdBackend::Avx2 => unsafe { x86::widen_bf16_avx2(dst, src) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => widen_bf16_scalar(dst, src),
        }
    }

    /// [`axpy_panel`](Self::axpy_panel) on every row of a block: row `r`
    /// of `dst` (`dst.len() / dst_stride` rows of `dst_stride`) gets, in
    /// its columns `cols`, the `coeffs.terms` updates
    /// `dst[r][j] += coeffs(r, t) * src[t * src_stride + j]`, ascending
    /// `t`, zero coefficients skipped. Bit for bit what one `axpy_panel`
    /// per row produces on every backend. Under `Scalar` on a host with
    /// AVX, a 4-row × 16-column block is held in registers across the
    /// terms, so each load of `src` feeds four rows; each lane still
    /// computes the scalar chain (a separate multiply and add, no FMA).
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
        #[cfg(target_arch = "x86_64")]
        if self == SimdBackend::Scalar && avx_available() {
            // SAFETY: `is_x86_feature_detected!("avx")` was just checked;
            // the asserts above bound every row, column, term and
            // coefficient the kernel touches.
            unsafe { x86::axpy_rows_avx(dst, dst_stride, cols, src, src_stride, coeffs) };
            return;
        }
        for (r, row) in dst.chunks_exact_mut(dst_stride).enumerate() {
            let c = &coeffs.data[r * coeffs.row_stride..];
            let s = &src[cols.start..];
            let d = &mut row[cols.clone()];
            self.axpy_panel(d, s, src_stride, c, coeffs.term_stride, coeffs.terms);
        }
    }

    /// One [`axpy`](Self::axpy) per listed source row, in list order:
    /// `dst[j] += a * src[i * dst.len() + j]` for each `i` in `rows` — a
    /// mean aggregation's inner loop. Bit for bit what those `axpy`
    /// calls produce on every backend. Under `Scalar` on a host with
    /// AVX, `dst` is held in registers across all the source rows (each
    /// lane the scalar chain, separate multiply and add) and each source
    /// row is prefetched two rows ahead.
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
        if self == SimdBackend::Scalar && avx_available() {
            // SAFETY: `is_x86_feature_detected!("avx")` was just checked;
            // the assert above bounds every listed source row.
            unsafe { x86::axpy_gather_avx(dst, src, rows, a) };
            return;
        }
        for &i in rows {
            self.axpy(dst, &src[i as usize * n..][..n], a);
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
/// `(x >> 40) as f32 * 2⁻²⁴`, exact. With AVX2 the eight streams advance
/// in two registers and each step's eight draws are transposed into
/// the rows eight columns at a time. Returns `false`, writing nothing,
/// on a host without AVX2: the caller keeps its own portable generator.
///
/// # Panics
///
/// Panics if `out.len()` is not a multiple of 8.
pub fn uniform_rows8(seeds: [u64; 8], out: &mut [f32]) -> bool {
    assert!(
        out.len().is_multiple_of(8),
        "uniform_rows8 needs eight whole rows"
    );
    #[cfg(target_arch = "x86_64")]
    if avx2_only_available() {
        let states = seeds.map(xoshiro_state);
        // SAFETY: `is_x86_feature_detected!("avx2")` was just checked;
        // the kernel writes exactly `out`'s eight rows.
        unsafe { x86::uniform_rows8_avx2(&states, out) };
        return true;
    }
    false
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

/// CPU features relevant to the kernel layer, as `(name, detected)`
/// pairs — recorded into `BENCH_kernels.json` so a reader can tell which
/// SIMD rows were measurable on the bench host.
pub fn detected_features() -> [(&'static str, bool); 3] {
    [
        ("sse4.1", sse41_available()),
        ("avx2", avx2_only_available()),
        ("fma", fma_available()),
    ]
}

fn avx2_available() -> bool {
    avx2_only_available() && fma_available()
}

#[cfg(target_arch = "x86_64")]
fn avx_available() -> bool {
    std::arch::is_x86_feature_detected!("avx")
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

/// The scalar panel: `dst` is walked in [`PANEL_CHUNK`]-wide pieces, each
/// copied to a local array that stays in registers over the `terms`
/// updates; every element is still the chain `d += a * s`, ascending `t`.
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
    panel_tail(
        pieces.into_remainder(),
        &src[j0..],
        src_stride,
        coeffs,
        coeff_stride,
        terms,
    );
}

/// The elements of a panel past the last full vector (or chunk): plain
/// `d += a * s` per term, which is what every backend's `axpy` tail does.
fn panel_tail(
    dst: &mut [f32],
    src: &[f32],
    src_stride: usize,
    coeffs: &[f32],
    coeff_stride: usize,
    terms: usize,
) {
    if dst.is_empty() {
        return;
    }
    for t in 0..terms {
        let a = coeffs[t * coeff_stride];
        if a == 0.0 {
            continue;
        }
        axpy_scalar(dst, &src[t * src_stride..][..dst.len()], a);
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
    //! feature via `is_x86_feature_detected!` — the only path here is
    //! `SimdBackend` dispatch, which upholds that (see the enum docs).

    use core::arch::x86_64::*;

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

    /// One `8 * R`-lane block of an AVX2 panel: `R` accumulators loaded
    /// from `dp`, every non-zero term folded in with the FMA `axpy_avx2`
    /// uses in its body, then stored back. The caller guarantees that
    /// `dp[..8 * R]`, `cp[t * coeff_stride]` and
    /// `sp[t * src_stride..][..8 * R]` are in bounds for every `t < terms`.
    // SAFETY: requires AVX2+FMA; reached only from `axpy_panel_avx2`,
    // itself behind the `is_x86_feature_detected!`-gated dispatch.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn panel_block_avx2<const R: usize>(
        dp: *mut f32,
        sp: *const f32,
        src_stride: usize,
        cp: *const f32,
        coeff_stride: usize,
        terms: usize,
    ) {
        let mut acc = [_mm256_setzero_ps(); R];
        for (r, lane) in acc.iter_mut().enumerate() {
            // SAFETY: 8 * r + 8 <= 8 * R lanes of `dp` are in bounds.
            *lane = unsafe { _mm256_loadu_ps(dp.add(8 * r)) };
        }
        for t in 0..terms {
            // SAFETY: the caller bounds `cp[t * coeff_stride]`.
            let a = unsafe { *cp.add(t * coeff_stride) };
            if a == 0.0 {
                continue;
            }
            let va = _mm256_set1_ps(a);
            for (r, lane) in acc.iter_mut().enumerate() {
                // SAFETY: the caller bounds 8 * R lanes of source row `t`.
                let s = unsafe { _mm256_loadu_ps(sp.add(t * src_stride + 8 * r)) };
                *lane = _mm256_fmadd_ps(va, s, *lane);
            }
        }
        for (r, lane) in acc.iter().enumerate() {
            // SAFETY: 8 * r + 8 <= 8 * R lanes of `dp` are in bounds.
            unsafe { _mm256_storeu_ps(dp.add(8 * r), *lane) };
        }
    }

    // SAFETY: requires AVX2+FMA; callers reach this only through
    // `SimdBackend::Avx2` dispatch (constructed after
    // `is_x86_feature_detected!`), which has bounds-checked the panel.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn axpy_panel_avx2(
        dst: &mut [f32],
        src: &[f32],
        src_stride: usize,
        coeffs: &[f32],
        coeff_stride: usize,
        terms: usize,
    ) {
        let n = dst.len();
        let (dp, sp, cp) = (dst.as_mut_ptr(), src.as_ptr(), coeffs.as_ptr());
        // The 8-lane body of `axpy_avx2`, taken 8, 4, 2 or 1 vectors at a
        // time; which block a lane falls in does not change its arithmetic.
        let mut j = 0usize;
        while j + 8 <= n {
            let (d, s) = (dp.wrapping_add(j), sp.wrapping_add(j));
            // SAFETY: the block picked spans at most `n - j` lanes, so it
            // stays inside `dst` and (dispatch asserts) every source row.
            j += unsafe {
                match (n - j) / 8 {
                    8.. => {
                        panel_block_avx2::<8>(d, s, src_stride, cp, coeff_stride, terms);
                        64
                    }
                    4.. => {
                        panel_block_avx2::<4>(d, s, src_stride, cp, coeff_stride, terms);
                        32
                    }
                    2.. => {
                        panel_block_avx2::<2>(d, s, src_stride, cp, coeff_stride, terms);
                        16
                    }
                    _ => {
                        panel_block_avx2::<1>(d, s, src_stride, cp, coeff_stride, terms);
                        8
                    }
                }
            };
        }
        let (dst, src) = (&mut dst[j..], &src[j..]);
        crate::panel_tail(dst, src, src_stride, coeffs, coeff_stride, terms);
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

    // SAFETY: requires AVX2 (the 256-bit u16→i32 widen); callers reach
    // this only through `SimdBackend::Avx2` dispatch, constructed only
    // after `is_x86_feature_detected!` detection.
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

    // SAFETY: requires SSE4.1 (baseline SSE ops only, but gated at 4.1
    // to match the widen kernel); callers reach this only through
    // `SimdBackend::Sse` dispatch, constructed only after
    // `is_x86_feature_detected!("sse4.1")` detection.
    #[target_feature(enable = "sse4.1")]
    pub(crate) unsafe fn axpy_sse(dst: &mut [f32], src: &[f32], a: f32) {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        let va = _mm_set1_ps(a);
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: i + 4 <= n bounds both 4-lane unaligned accesses.
            unsafe {
                let s = _mm_loadu_ps(sp.add(i));
                let d = _mm_loadu_ps(dp.add(i));
                // Separate mul + add: rounds exactly like the scalar
                // chain, keeping SSE axpy bitwise-equal to scalar.
                _mm_storeu_ps(dp.add(i), _mm_add_ps(d, _mm_mul_ps(va, s)));
            }
            i += 4;
        }
        while i < n {
            // SAFETY: i < n bounds the scalar tail accesses.
            unsafe {
                *dp.add(i) += a * *sp.add(i);
            }
            i += 1;
        }
    }

    /// One `4 * R`-lane block of an SSE panel; separate mul and add, as in
    /// `axpy_sse`, so it rounds like the scalar chain. The caller
    /// guarantees that `dp[..4 * R]`, `cp[t * coeff_stride]` and
    /// `sp[t * src_stride..][..4 * R]` are in bounds for every `t < terms`.
    // SAFETY: requires SSE4.1; reached only from `axpy_panel_sse`,
    // itself behind the `is_x86_feature_detected!`-gated dispatch.
    #[target_feature(enable = "sse4.1")]
    #[inline]
    unsafe fn panel_block_sse<const R: usize>(
        dp: *mut f32,
        sp: *const f32,
        src_stride: usize,
        cp: *const f32,
        coeff_stride: usize,
        terms: usize,
    ) {
        let mut acc = [_mm_setzero_ps(); R];
        for (r, lane) in acc.iter_mut().enumerate() {
            // SAFETY: 4 * r + 4 <= 4 * R lanes of `dp` are in bounds.
            *lane = unsafe { _mm_loadu_ps(dp.add(4 * r)) };
        }
        for t in 0..terms {
            // SAFETY: the caller bounds `cp[t * coeff_stride]`.
            let a = unsafe { *cp.add(t * coeff_stride) };
            if a == 0.0 {
                continue;
            }
            let va = _mm_set1_ps(a);
            for (r, lane) in acc.iter_mut().enumerate() {
                // SAFETY: the caller bounds 4 * R lanes of source row `t`.
                let s = unsafe { _mm_loadu_ps(sp.add(t * src_stride + 4 * r)) };
                *lane = _mm_add_ps(*lane, _mm_mul_ps(va, s));
            }
        }
        for (r, lane) in acc.iter().enumerate() {
            // SAFETY: 4 * r + 4 <= 4 * R lanes of `dp` are in bounds.
            unsafe { _mm_storeu_ps(dp.add(4 * r), *lane) };
        }
    }

    // SAFETY: requires SSE4.1; callers reach this only through
    // `SimdBackend::Sse` dispatch (constructed after
    // `is_x86_feature_detected!`), which has bounds-checked the panel.
    #[target_feature(enable = "sse4.1")]
    pub(crate) unsafe fn axpy_panel_sse(
        dst: &mut [f32],
        src: &[f32],
        src_stride: usize,
        coeffs: &[f32],
        coeff_stride: usize,
        terms: usize,
    ) {
        let n = dst.len();
        let (dp, sp, cp) = (dst.as_mut_ptr(), src.as_ptr(), coeffs.as_ptr());
        let mut j = 0usize;
        while j + 4 <= n {
            let (d, s) = (dp.wrapping_add(j), sp.wrapping_add(j));
            // SAFETY: the block picked spans at most `n - j` lanes, so it
            // stays inside `dst` and (dispatch asserts) every source row.
            j += unsafe {
                match (n - j) / 4 {
                    8.. => {
                        panel_block_sse::<8>(d, s, src_stride, cp, coeff_stride, terms);
                        32
                    }
                    4.. => {
                        panel_block_sse::<4>(d, s, src_stride, cp, coeff_stride, terms);
                        16
                    }
                    2.. => {
                        panel_block_sse::<2>(d, s, src_stride, cp, coeff_stride, terms);
                        8
                    }
                    _ => {
                        panel_block_sse::<1>(d, s, src_stride, cp, coeff_stride, terms);
                        4
                    }
                }
            };
        }
        let (dst, src) = (&mut dst[j..], &src[j..]);
        crate::panel_tail(dst, src, src_stride, coeffs, coeff_stride, terms);
    }

    // SAFETY: requires SSE4.1; callers reach this only through
    // `SimdBackend::Sse` dispatch, constructed only after
    // `is_x86_feature_detected!("sse4.1")` detection.
    #[target_feature(enable = "sse4.1")]
    pub(crate) unsafe fn dot_sse(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut acc = _mm_setzero_ps();
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: i + 4 <= n bounds both 4-lane unaligned loads.
            unsafe {
                acc = _mm_add_ps(
                    acc,
                    _mm_mul_ps(_mm_loadu_ps(ap.add(i)), _mm_loadu_ps(bp.add(i))),
                );
            }
            i += 4;
        }
        // Fixed reduction order: ascending lanes, then the scalar tail.
        let mut lanes = [0.0f32; 4];
        // SAFETY: `lanes` is 4 f32s; unaligned store is in bounds.
        unsafe {
            _mm_storeu_ps(lanes.as_mut_ptr(), acc);
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

    // SAFETY: requires SSE4.1 (`_mm_cvtepu16_epi32`); callers reach this
    // only through `SimdBackend::Sse` dispatch, constructed only after
    // `is_x86_feature_detected!("sse4.1")` detection.
    #[target_feature(enable = "sse4.1")]
    pub(crate) unsafe fn widen_bf16_sse(dst: &mut [f32], src: &[u16]) {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: i + 4 <= n bounds the 4×u16 load and 4×f32 store.
            unsafe {
                let h = _mm_loadl_epi64(sp.add(i) as *const __m128i);
                let w = _mm_slli_epi32::<16>(_mm_cvtepu16_epi32(h));
                _mm_storeu_ps(dp.add(i), _mm_castsi128_ps(w));
            }
            i += 4;
        }
        while i < n {
            // SAFETY: i < n bounds the scalar tail accesses.
            unsafe {
                *dp.add(i) = crate::bf16_to_f32(*sp.add(i));
            }
            i += 1;
        }
    }

    /// The strides of one `axpy_rows` call, shared by its row blocks, and
    /// whether every source value it reads is finite.
    #[derive(Clone, Copy)]
    struct Grid {
        dst: usize,
        src: usize,
        row: usize,
        term: usize,
        terms: usize,
        src_finite: bool,
    }

    /// The scalar chain of `SimdBackend::axpy_rows`, eight lanes wide:
    /// rows go four at a time (then one at a time), each row block in
    /// 16- then 8-column register tiles and a scalar column tail. Every
    /// lane is `d = d + a * s` per non-zero term, ascending, multiply
    /// and add rounded separately — the portable chain's bits.
    // SAFETY: requires AVX; reached only from `SimdBackend::axpy_rows`
    // after its `is_x86_feature_detected!("avx")` check and bounds asserts.
    #[target_feature(enable = "avx")]
    pub(crate) unsafe fn axpy_rows_avx(
        dst: &mut [f32],
        dst_stride: usize,
        cols: core::ops::Range<usize>,
        src: &[f32],
        src_stride: usize,
        coeffs: crate::Coeffs<'_>,
    ) {
        let rows = dst.len() / dst_stride;
        let width = cols.end - cols.start;
        let src_finite = (0..coeffs.terms).all(|t| {
            let row = &src[t * src_stride..];
            row[cols.clone()].iter().all(|x| x.is_finite())
        });
        let g = Grid {
            dst: dst_stride,
            src: src_stride,
            row: coeffs.row_stride,
            term: coeffs.term_stride,
            terms: coeffs.terms,
            src_finite,
        };
        let dp = dst.as_mut_ptr().wrapping_add(cols.start);
        let sp = src.as_ptr().wrapping_add(cols.start);
        let cp = coeffs.data.as_ptr();
        let mut r = 0usize;
        while r < rows {
            let (d, c) = (dp.wrapping_add(r * g.dst), cp.wrapping_add(r * g.row));
            // SAFETY: AVX is enabled here, after the dispatch's
            // `is_x86_feature_detected!("avx")`; the block covers rows
            // `r..r + R` with `R <= rows - r`, which the dispatch asserts
            // keep inside `dst` and `coeffs`.
            r += unsafe {
                if rows - r >= 4 {
                    row_block_avx::<4>(d, sp, c, width, g);
                    4
                } else {
                    row_block_avx::<1>(d, sp, c, width, g);
                    1
                }
            };
        }
    }

    /// `R` rows of `axpy_rows_avx`: 16- then 8-column register tiles,
    /// then a scalar column tail. The caller guarantees `R` rows of
    /// `width` columns at `dp`, the matching coefficients at `cp` and
    /// `g.terms` source rows at `sp`.
    // SAFETY: requires AVX; reached only from `axpy_rows_avx`, itself
    // behind the `is_x86_feature_detected!("avx")`-gated dispatch.
    #[target_feature(enable = "avx")]
    #[inline]
    unsafe fn row_block_avx<const R: usize>(
        dp: *mut f32,
        sp: *const f32,
        cp: *const f32,
        width: usize,
        g: Grid,
    ) {
        let mut j = 0usize;
        while j + 8 <= width {
            let (d, s) = (dp.wrapping_add(j), sp.wrapping_add(j));
            // SAFETY: AVX is enabled here, after the dispatch's
            // `is_x86_feature_detected!("avx")`; the tile spans at most
            // `width - j` columns.
            j += unsafe {
                if width - j >= 16 {
                    tile_avx::<R, 2>(d, s, cp, g)
                } else {
                    tile_avx::<R, 1>(d, s, cp, g)
                }
            };
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

    /// One `R × 8V` register tile over all of `g.terms`; returns the
    /// columns it covered. Skipping a zero coefficient's update matters
    /// only where adding its product `±0.0` would change a lane: a source
    /// value that is not finite (`0 · inf` is NaN), or a lane holding
    /// `-0.0` (`-0 + 0` is `+0`) or NaN (a signalling payload would be
    /// quieted). Under round-to-nearest no sum of other values is `-0.0`,
    /// and a sum's NaN is already quiet, so a tile whose sources are
    /// finite and whose loaded lanes hold neither runs branch-free,
    /// adding zero products; any other tile blends every update back
    /// where its coefficient is ±0.0, exactly the portable `continue`.
    // SAFETY: requires AVX; reached only from `row_block_avx`, itself
    // behind the `is_x86_feature_detected!("avx")`-gated dispatch.
    #[target_feature(enable = "avx")]
    #[inline]
    unsafe fn tile_avx<const R: usize, const V: usize>(
        dp: *mut f32,
        sp: *const f32,
        cp: *const f32,
        g: Grid,
    ) -> usize {
        let zero = _mm256_setzero_ps();
        let mut acc = [[zero; V]; R];
        let mut special = zero;
        for (r, row) in acc.iter_mut().enumerate() {
            for (v, lane) in row.iter_mut().enumerate() {
                // SAFETY: the caller bounds `R` rows of `8 * V` columns.
                *lane = unsafe { _mm256_loadu_ps(dp.add(r * g.dst + 8 * v)) };
                let neg_zero = _mm256_and_ps(_mm256_cmp_ps::<_CMP_EQ_OQ>(*lane, zero), *lane);
                let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(*lane, *lane);
                special = _mm256_or_ps(special, _mm256_or_ps(neg_zero, nan));
            }
        }
        // SAFETY: AVX is enabled here, after the dispatch's
        // `is_x86_feature_detected!("avx")`; the caller's bounds are
        // `terms_avx`'s.
        unsafe {
            if g.src_finite && _mm256_movemask_ps(special) == 0 {
                terms_avx::<R, V, false>(&mut acc, sp, cp, g);
            } else {
                terms_avx::<R, V, true>(&mut acc, sp, cp, g);
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (v, lane) in row.iter().enumerate() {
                // SAFETY: the caller bounds `R` rows of `8 * V` columns.
                unsafe { _mm256_storeu_ps(dp.add(r * g.dst + 8 * v), *lane) };
            }
        }
        8 * V
    }

    /// Folds every term into a tile's accumulators: `acc = acc + a · s`,
    /// multiply and add rounded separately; with `SKIP`, blended back
    /// where `a` is ±0.0. The caller guarantees `8 * V` columns of every
    /// source row at `sp` and `R` rows of coefficients at `cp`.
    // SAFETY: requires AVX; reached only from `tile_avx`, itself behind
    // the `is_x86_feature_detected!("avx")`-gated dispatch.
    #[target_feature(enable = "avx")]
    #[inline]
    unsafe fn terms_avx<const R: usize, const V: usize, const SKIP: bool>(
        acc: &mut [[__m256; V]; R],
        sp: *const f32,
        cp: *const f32,
        g: Grid,
    ) {
        let zero = _mm256_setzero_ps();
        for t in 0..g.terms {
            let mut b = [zero; V];
            for (v, lane) in b.iter_mut().enumerate() {
                // SAFETY: the caller bounds `8 * V` columns of source row `t`.
                *lane = unsafe { _mm256_loadu_ps(sp.add(t * g.src + 8 * v)) };
            }
            for (r, row) in acc.iter_mut().enumerate() {
                // SAFETY: the caller bounds row `r`'s term `t`.
                let va = _mm256_broadcast_ss(unsafe { &*cp.add(r * g.row + t * g.term) });
                let skip = _mm256_cmp_ps::<_CMP_EQ_OQ>(va, zero);
                for (lane, &s) in row.iter_mut().zip(&b) {
                    let sum = _mm256_add_ps(*lane, _mm256_mul_ps(va, s));
                    *lane = if SKIP {
                        _mm256_blendv_ps(sum, *lane, skip)
                    } else {
                        sum
                    };
                }
            }
        }
    }

    /// The scalar chain of `SimdBackend::axpy_gather`, eight lanes wide:
    /// `dst` in 64-, 32-, 16- and 8-lane register blocks, each carried
    /// across every listed source row, then a scalar tail.
    // SAFETY: requires AVX; reached only from `SimdBackend::axpy_gather`
    // after its `is_x86_feature_detected!("avx")` check and row assert.
    #[target_feature(enable = "avx")]
    pub(crate) unsafe fn axpy_gather_avx(dst: &mut [f32], src: &[f32], rows: &[u32], a: f32) {
        let n = dst.len();
        let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
        let mut j = 0usize;
        while j + 8 <= n {
            let (d, s) = (dp.wrapping_add(j), sp.wrapping_add(j));
            // SAFETY: AVX is enabled here, after the dispatch's
            // `is_x86_feature_detected!("avx")`; the block picked spans at
            // most `n - j` lanes of `dst` and of every listed source row
            // (dispatch asserts the rows).
            j += unsafe {
                match (n - j) / 8 {
                    8.. => gather_block_avx::<8>(d, s, n, rows, a),
                    4.. => gather_block_avx::<4>(d, s, n, rows, a),
                    2.. => gather_block_avx::<2>(d, s, n, rows, a),
                    _ => gather_block_avx::<1>(d, s, n, rows, a),
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
    // SAFETY: requires AVX; reached only from `axpy_gather_avx`, itself
    // behind the `is_x86_feature_detected!("avx")`-gated dispatch.
    #[target_feature(enable = "avx")]
    #[inline]
    unsafe fn gather_block_avx<const V: usize>(
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
                *lane = _mm256_add_ps(*lane, _mm256_mul_ps(va, s));
            }
        }
        for (v, lane) in acc.iter().enumerate() {
            // SAFETY: the caller bounds `8 * V` lanes of `dp`.
            unsafe { _mm256_storeu_ps(dp.add(8 * v), *lane) };
        }
        8 * V
    }

    /// `x` rotated left by `K` in each 64-bit lane (`L` = `64 - K`).
    // SAFETY: requires AVX2; reached only from the xoshiro kernel below,
    // itself behind `uniform_rows8`'s `is_x86_feature_detected!` check.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn rotl_avx2<const K: i32, const L: i32>(x: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi64::<K>(x), _mm256_srli_epi64::<L>(x))
    }

    /// One xoshiro256++ step of four streams (one per 64-bit lane):
    /// returns the outputs and advances `s` as `StdRng::next_u64` does.
    // SAFETY: requires AVX2; reached only from `uniform_rows8_avx2`,
    // itself behind `uniform_rows8`'s `is_x86_feature_detected!` check.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn xoshiro_step_avx2(s: &mut [__m256i; 4]) -> __m256i {
        let sum = _mm256_add_epi64(s[0], s[3]);
        let result = _mm256_add_epi64(rotl_avx2::<23, 41>(sum), s[0]);
        let t = _mm256_slli_epi64::<17>(s[1]);
        s[2] = _mm256_xor_si256(s[2], s[0]);
        s[3] = _mm256_xor_si256(s[3], s[1]);
        s[1] = _mm256_xor_si256(s[1], s[2]);
        s[0] = _mm256_xor_si256(s[0], s[3]);
        s[2] = _mm256_xor_si256(s[2], t);
        s[3] = rotl_avx2::<45, 19>(s[3]);
        result
    }

    /// Transposes an 8 × 8 block held as eight rows of eight lanes.
    // SAFETY: requires AVX; reached only from `uniform_rows8_avx2`,
    // itself behind `uniform_rows8`'s `is_x86_feature_detected!` check.
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

    /// Eight xoshiro256++ streams side by side: `lo` holds streams 0, 2,
    /// 4, 6 and `hi` streams 1, 3, 5, 7, so `lo >> 40 | (hi >> 40) << 32`
    /// lays one step's eight 24-bit draws out as streams 0..8 in 32-bit
    /// lanes; those convert to f32 exactly and scale by 2⁻²⁴ exactly.
    /// Eight steps are transposed into eight columns of the eight rows;
    /// the last `dim % 8` steps go through a stack strip.
    // SAFETY: requires AVX2; reached only from `uniform_rows8` after its
    // `is_x86_feature_detected!("avx2")` check (`out` is eight rows).
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn uniform_rows8_avx2(states: &[[u64; 4]; 8], out: &mut [f32]) {
        let dim = out.len() / 8;
        let lanes = |w: usize, first: usize| -> [i64; 4] {
            [0, 2, 4, 6].map(|i| states[first + i][w] as i64)
        };
        let mut lo = [0, 1, 2, 3].map(|w| {
            let [a, b, c, d] = lanes(w, 0);
            _mm256_set_epi64x(d, c, b, a)
        });
        let mut hi = [0, 1, 2, 3].map(|w| {
            let [a, b, c, d] = lanes(w, 1);
            _mm256_set_epi64x(d, c, b, a)
        });
        let scale = _mm256_set1_ps(1.0 / (1u32 << 24) as f32);
        let mut step = || {
            let l = _mm256_srli_epi64::<40>(xoshiro_step_avx2(&mut lo));
            let h = _mm256_slli_epi64::<32>(_mm256_srli_epi64::<40>(xoshiro_step_avx2(&mut hi)));
            _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_or_si256(l, h)), scale)
        };
        let dp = out.as_mut_ptr();
        let mut t = 0usize;
        while t + 8 <= dim {
            let cols = transpose8_avx([(); 8].map(|()| step()));
            for (r, col) in cols.iter().enumerate() {
                // SAFETY: `t + 8 <= dim` bounds eight columns of row `r < 8`.
                unsafe { _mm256_storeu_ps(dp.add(r * dim + t), *col) };
            }
            t += 8;
        }
        let mut strip = [[0.0f32; 8]; 8];
        for draws in strip.iter_mut().take(dim - t) {
            // SAFETY: `draws` is eight f32s; the unaligned store fits.
            unsafe { _mm256_storeu_ps(draws.as_mut_ptr(), step()) };
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
        assert_eq!(SimdPolicy::parse("sse"), Ok(SimdPolicy::Sse));
        assert_eq!(SimdPolicy::parse("avx2"), Ok(SimdPolicy::Avx2));
        assert!(SimdPolicy::parse("avx512").is_err());
        assert_eq!(SimdPolicy::Scalar.resolve(), Ok(SimdBackend::Scalar));
        // Auto always resolves, to the best available backend.
        let auto = SimdPolicy::Auto.resolve().unwrap();
        assert_eq!(auto, SimdBackend::detect());
        assert!(SimdBackend::available().contains(&auto));
    }

    #[test]
    fn backend_index_roundtrip() {
        for b in [SimdBackend::Scalar, SimdBackend::Sse, SimdBackend::Avx2] {
            assert_eq!(SimdBackend::from_index(b as usize), Some(b));
        }
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
                    // axpy has no reduction: scalar and SSE are bitwise
                    // equal; AVX2 differs only by FMA's single rounding.
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

    /// The panel is the same arithmetic as consecutive axpys, so every
    /// backend must reproduce them bit for bit — at every width (each
    /// block size, body/tail split), with strided rows and coefficients,
    /// and with zero coefficients skipped.
    #[test]
    fn axpy_panel_is_consecutive_axpys_bitwise() {
        for backend in SimdBackend::available() {
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
                    let mut want = data(n, 11);
                    let mut got = want.clone();
                    for t in 0..terms {
                        let a = coeffs[t * coeff_stride];
                        if a != 0.0 {
                            backend.axpy(&mut want, &src[t * src_stride..][..n], a);
                        }
                    }
                    backend.axpy_panel(&mut got, &src, src_stride, &coeffs, coeff_stride, terms);
                    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(
                            g.to_bits(),
                            w.to_bits(),
                            "{backend:?} n={n} terms={terms} lane {i}"
                        );
                    }
                }
            }
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

    #[test]
    fn widen_is_exact_on_every_backend() {
        let values = data(37, 9);
        let halves: Vec<u16> = values.iter().map(|&v| f32_to_bf16(v)).collect();
        let mut reference = vec![0.0f32; halves.len()];
        widen_bf16_scalar(&mut reference, &halves);
        for backend in SimdBackend::available() {
            let mut out = vec![0.0f32; halves.len()];
            backend.widen_bf16(&mut out, &halves);
            assert_eq!(
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{backend:?} widen must be exact"
            );
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

        /// `Scalar.axpy_rows` (the AVX register tiles on a host that has
        /// AVX) is one portable `axpy_panel_scalar` per row, bit for bit:
        /// row counts off a multiple of 4, widths `16q`, `16q + 8` and
        /// other, any term count, strided coefficients in either layout,
        /// ±0.0 / NaN / ±inf coefficients and sources.
        #[test]
        fn scalar_axpy_rows_is_the_portable_panel(
            (rows, q, tail, terms) in (0usize..11, 0usize..5, 0usize..16, 0usize..140),
            (col0, transposed, zeros, seed) in (0usize..3, 0u8..2, 0usize..12, 0u32..1000),
        ) {
            let width = 16 * q + tail;
            let stride = col0 + width + 1;
            let src_stride = stride + 2;
            let (row_stride, term_stride) = if transposed == 1 { (1, rows + 1) } else { (terms + 3, 1) };
            let coeffs = with_specials(rows * row_stride + terms * term_stride + 1, seed, zeros, 4);
            let src = with_specials(terms * src_stride + stride, seed + 1, zeros / 4, 4);
            let c = Coeffs { data: &coeffs, row_stride, term_stride, terms };
            let mut want = with_specials(rows * stride, seed + 2, 2, 4);
            let mut got = want.clone();
            SimdBackend::Scalar.axpy_rows(&mut got, stride, col0..col0 + width, &src, src_stride, c);
            if terms > 0 {
                for (r, row) in want.chunks_exact_mut(stride).enumerate() {
                    let d = &mut row[col0..col0 + width];
                    axpy_panel_scalar(d, &src[col0..], src_stride, &coeffs[r * row_stride..], term_stride, terms);
                }
            }
            proptest::prop_assert!(same(&got, &want), "{rows} rows, width {width}, {terms} terms");
        }

        /// `Scalar.axpy_gather` (a register-held row on a host with AVX)
        /// is one portable `axpy_scalar` per listed row, in list order,
        /// at every width around the 64/32/16/8-lane blocks.
        #[test]
        fn scalar_axpy_gather_is_the_portable_axpys(
            (n, listed, seed) in (0usize..150, 0usize..24, 0u32..1000),
        ) {
            let src_rows = 9;
            let src = with_specials(src_rows * n, seed, 1, 4);
            let rows: Vec<u32> = data(listed, seed + 1)
                .iter()
                .map(|&x| ((x + 2.0) * 2.25) as u32 % src_rows as u32)
                .collect();
            let a = 1.0 / (listed.max(1) as f32);
            let mut want = with_specials(n, seed + 2, 2, 4);
            let mut got = want.clone();
            SimdBackend::Scalar.axpy_gather(&mut got, &src, &rows, a);
            for &i in &rows {
                axpy_scalar(&mut want, &src[i as usize * n..][..n], a);
            }
            proptest::prop_assert!(same(&got, &want), "n {n}, {listed} rows");
        }
    }

    /// Every vector backend's `axpy_rows` and `axpy_gather` are its own
    /// `axpy_panel` and `axpy` calls, bit for bit (those backends keep
    /// their per-row kernels).
    #[test]
    fn vector_backends_keep_their_per_row_kernels() {
        for backend in SimdBackend::available() {
            let (rows, stride, terms) = (5, 37, 70);
            let src = data(terms * stride, 3);
            let coeffs = with_specials(rows * terms, 4, 3, 4);
            let c = Coeffs {
                data: &coeffs,
                row_stride: terms,
                term_stride: 1,
                terms,
            };
            let mut want = data(rows * stride, 5);
            let mut got = want.clone();
            backend.axpy_rows(&mut got, stride, 2..35, &src, stride, c);
            for (r, row) in want.chunks_exact_mut(stride).enumerate() {
                backend.axpy_panel(
                    &mut row[2..35],
                    &src[2..],
                    stride,
                    &coeffs[r * terms..],
                    1,
                    terms,
                );
            }
            assert!(same(&got, &want), "{backend:?} axpy_rows");
            let (rows, n) = ([3u32, 0, 3, 7, 1], 37);
            let mut want = data(n, 6);
            let mut got = want.clone();
            backend.axpy_gather(&mut got, &src, &rows, 0.2);
            for &i in &rows {
                backend.axpy(&mut want, &src[i as usize * n..][..n], 0.2);
            }
            assert!(same(&got, &want), "{backend:?} axpy_gather");
        }
    }

    /// `uniform_rows8` is eight `StdRng` streams' `gen::<f32>()` draws,
    /// bit for bit, at dims around the eight-column transpose.
    #[test]
    fn uniform_rows8_is_eight_std_rng_streams() {
        use rand::{Rng, SeedableRng};
        for dim in [0, 1, 7, 8, 9, 15, 16, 128, 1433] {
            let seeds: [u64; 8] = core::array::from_fn(|i| {
                (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ dim as u64
            });
            let mut out = vec![f32::NAN; 8 * dim];
            if !uniform_rows8(seeds, &mut out) {
                assert!(
                    out.iter().all(|x| x.is_nan()),
                    "nothing written without AVX2"
                );
                continue;
            }
            for (row, &seed) in out.chunks_exact(dim.max(1)).zip(&seeds) {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                for (j, &x) in row.iter().enumerate() {
                    let want: f32 = rng.gen();
                    assert_eq!(
                        x.to_bits(),
                        want.to_bits(),
                        "dim {dim} seed {seed:#x} column {j}"
                    );
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
