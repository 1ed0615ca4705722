//! Runtime-dispatched SIMD inner kernels for Buffalo's dense math.
//!
//! Every hot loop in the training stack reduces to one of three shapes:
//! `axpy` (`dst[i] += a * src[i]` — neighbor aggregation, gradient
//! scatter; and `axpy_panel`, a run of axpys into one `dst` held in
//! registers — matmul inner tiles), `dot` (transposed matmul, attention
//! scores), and `widen_bf16` (bf16 feature rows → f32 at gather time).
//! This crate provides explicit `std::arch` AVX2(+FMA) and SSE4.1
//! implementations of those primitives behind a [`SimdBackend`]
//! value dispatch, with a scalar fallback that is bitwise-identical to
//! the pre-SIMD kernels.
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
//!   to the historical kernels and the committed golden trails.
//! * [`SimdBackend::Sse`] — `axpy` uses separate 4-wide mul + add, which
//!   rounds exactly like the scalar chain (`axpy` stays bitwise-equal);
//!   `dot` reduces 4 lanes and differs from scalar by reassociation.
//! * [`SimdBackend::Avx2`] — 8-wide with FMA; both `axpy` and `dot`
//!   round differently from scalar (FMA skips the intermediate
//!   rounding). Deterministic, gated by its own golden in `ci.sh`.
//!
//! `widen_bf16` is exact (a left shift) on every backend, so feature
//! precision and SIMD selection compose without interacting.
//!
//! # Safety conventions
//!
//! `#[target_feature]` kernels live in the private `x86` module and are
//! only reachable through [`SimdBackend`] dispatch. Non-scalar backend
//! values originate exclusively from [`SimdBackend::detect`] /
//! [`SimdPolicy::resolve`], which check `is_x86_feature_detected!`
//! before producing them — that invariant is the SAFETY argument each
//! dispatch site cites.

#![warn(missing_docs)]
#![forbid(unsafe_op_in_unsafe_fn)]

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
/// [`SimdBackend::detect`] and [`SimdPolicy::resolve`]); every `unsafe`
/// dispatch below relies on that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum SimdBackend {
    /// Reference scalar chain — bitwise-identical to the pre-SIMD
    /// kernels and the committed goldens.
    Scalar = 0,
    /// SSE4.1, 4-wide. `axpy` is bitwise-equal to scalar; `dot` is not.
    Sse = 1,
    /// AVX2 + FMA, 8-wide. Fastest; rounds differently from scalar.
    Avx2 = 2,
}

impl SimdBackend {
    /// The best backend this host supports.
    pub fn detect() -> SimdBackend {
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
pub fn bf16_to_f32(h: u16) -> f32 {
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
    pub unsafe fn axpy_avx2(dst: &mut [f32], src: &[f32], a: f32) {
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
    pub unsafe fn axpy_panel_avx2(
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
    pub unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
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
    pub unsafe fn widen_bf16_avx2(dst: &mut [f32], src: &[u16]) {
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
    pub unsafe fn axpy_sse(dst: &mut [f32], src: &[f32], a: f32) {
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
    pub unsafe fn axpy_panel_sse(
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
    pub unsafe fn dot_sse(a: &[f32], b: &[f32]) -> f32 {
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
    pub unsafe fn widen_bf16_sse(dst: &mut [f32], src: &[u16]) {
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
