//! Runtime-dispatched SIMD micro-kernels with a bit-exact scalar fallback.
//!
//! Every hot inner loop of the compute backend (the 4×8 packed-panel
//! matmul microkernel, the fused-transpose dot kernels, the batch-folded
//! convolution weight-gradient tile, the convolution bias add and the
//! bulk codebook ranking used by `qce-quant`) funnels through
//! this module. Each kernel exists in two forms: a **scalar reference**
//! (the exact code the workspace shipped before SIMD existed, or for
//! later kernels the exact arithmetic of the code they replaced) and an
//! **AVX2** variant selected once at startup
//! via [`std::is_x86_feature_detected!`] and the `QCE_SIMD` environment
//! variable (`off` | `auto` | `avx2`).
//!
//! # Determinism contract
//!
//! The repo-wide guarantee — bit-for-bit identical results at any
//! `QCE_THREADS` — extends across SIMD widths: **every vector kernel
//! performs the same IEEE-754 operations on the same values in the same
//! per-element order as its scalar reference.** Concretely:
//!
//! * No FMA. The scalar kernels round after the multiply and again after
//!   the add, so the vector kernels pair `_mm256_mul_ps` with
//!   `_mm256_add_ps` instead of fusing — a fused `vfmadd` would round
//!   once and change low bits.
//! * Fixed lane-reduction trees. [`dot`] keeps the historical contract
//!   of four stride-4 partial accumulators combined as
//!   `(acc0 + acc1) + (acc2 + acc3)` plus a sequential tail; the AVX2
//!   path accumulates into one 4-lane register (lane *j* holds partial
//!   *j*) and extracts lanes for the exact same scalar combine.
//!   [`fold_dots`] evaluates many such dots side by side: it keeps the
//!   same four partials *per output lane* and combines each lane exactly
//!   as `dot` does, so lane *l* of its result is `dot`'s bits.
//! * Lane-parallel kernels ([`matmul_block`], [`axpy`], [`add_scalar`],
//!   [`rank_count`]) never reduce across lanes at all:
//!   each output element is produced by one lane running the scalar
//!   recurrence, so vectorization is invisible in the bits.
//!
//! The conformance goldens therefore pass unchanged with `QCE_SIMD=off`
//! and `QCE_SIMD=auto`, at any thread count, and the property tests in
//! `tests/simd_props.rs` hold the two paths bitwise equal over
//! non-lane-aligned tails.
//!
//! # Safety boundary
//!
//! This is the only module in the crate allowed to use `unsafe` (the
//! crate is `#![deny(unsafe_code)]`; intrinsics require it). Every
//! `unsafe` block is a `#[target_feature(enable = "avx2")]` call guarded
//! by the one-time CPUID check in [`detect`] — the dispatcher never
//! calls an AVX2 function on a CPU that did not report the feature.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Microkernel row tile: each matmul work unit covers multiples of `MR`
/// output rows (four broadcast registers in the AVX2 microkernel).
pub const MR: usize = 4;
/// Microkernel column tile: B panels are `NR` floats wide — exactly one
/// 256-bit lane, so the register tile is 4×8 = one YMM accumulator per
/// row.
pub const NR: usize = 8;

/// An instruction-set level the dispatcher can select.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Portable scalar reference path (always available).
    Scalar,
    /// 256-bit AVX2 path (x86-64 with the `avx2` CPUID flag).
    Avx2,
}

impl Level {
    /// Stable lowercase name, as accepted by `QCE_SIMD` and reported in
    /// `BENCH_kernels.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Level::Scalar => "scalar",
            Level::Avx2 => "avx2",
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            Level::Scalar => 0,
            Level::Avx2 => 1,
        }
    }

    fn from_u8(v: u8) -> Level {
        if v == 1 {
            Level::Avx2
        } else {
            Level::Scalar
        }
    }
}

/// Best level the running CPU supports, probed once via CPUID.
#[must_use]
pub fn detect() -> Level {
    static DETECTED: OnceLock<Level> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::is_x86_feature_detected!("avx2") {
                return Level::Avx2;
            }
        }
        Level::Scalar
    })
}

/// Resolves a `QCE_SIMD` setting against the detected hardware.
///
/// `off` forces [`Level::Scalar`]; `auto` (and the empty string) picks
/// the best detected level; an explicit level name (`avx2`, `scalar`)
/// requests it, clamped to what the CPU supports. Unrecognised values
/// fall back to `auto` rather than erroring — an env typo must never
/// change results, only speed, and every level is bit-identical anyway.
fn resolve(setting: &str, detected: Level) -> Level {
    match setting.trim().to_ascii_lowercase().as_str() {
        "off" | "scalar" | "0" | "false" => Level::Scalar,
        "avx2" => {
            if detected == Level::Avx2 {
                Level::Avx2
            } else {
                Level::Scalar
            }
        }
        _ => detected,
    }
}

/// Process-wide active level; `u8::MAX` = not yet initialised.
static ACTIVE: AtomicU8 = AtomicU8::new(u8::MAX);

/// The level kernels currently dispatch to.
///
/// Initialised on first use from `QCE_SIMD` and [`detect`], then stable
/// for the life of the process unless a bench/test calls [`set_active`].
#[must_use]
pub fn active() -> Level {
    let v = ACTIVE.load(Ordering::Relaxed);
    if v != u8::MAX {
        return Level::from_u8(v);
    }
    let level = resolve(&std::env::var("QCE_SIMD").unwrap_or_default(), detect());
    // Racing initialisers resolve the same value, so the store order is
    // irrelevant.
    ACTIVE.store(level.to_u8(), Ordering::Relaxed);
    level
}

/// Forces the dispatch level, returning the previous one.
///
/// Intended for the bench harness and the scalar-vs-SIMD property tests,
/// which need both paths in one process. Requests above the detected
/// capability clamp to [`detect`] — the dispatcher can never be talked
/// into executing unsupported instructions. Because every level is
/// bit-identical, flipping this concurrently with running kernels
/// changes which code path they take, never what they compute.
pub fn set_active(level: Level) -> Level {
    let clamped = if level == Level::Avx2 && detect() != Level::Avx2 {
        Level::Scalar
    } else {
        level
    };
    let prev = ACTIVE.swap(clamped.to_u8(), Ordering::Relaxed);
    if prev == u8::MAX {
        active_or_env_default()
    } else {
        Level::from_u8(prev)
    }
}

/// Previous value for [`set_active`] when dispatch was never initialised:
/// what `active()` would have returned.
fn active_or_env_default() -> Level {
    resolve(&std::env::var("QCE_SIMD").unwrap_or_default(), detect())
}

// ---------------------------------------------------------------------------
// Scalar reference kernels. These are byte-for-byte the pre-SIMD
// implementations; the vector paths below replicate their operation
// order exactly.
// ---------------------------------------------------------------------------

/// Scalar [`dot`]: four stride-4 partial accumulators, combined as
/// `(a0 + a1) + (a2 + a3)` plus an in-order tail.
fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 4];
    let mut ita = a.chunks_exact(4);
    let mut itb = b.chunks_exact(4);
    for (ca, cb) in (&mut ita).zip(&mut itb) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    let mut tail = 0.0f32;
    for (&x, &y) in ita.remainder().iter().zip(itb.remainder()) {
        tail += x * y;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Scalar [`matmul_block`]: the register-tiled 4×8 microkernel.
fn matmul_block_scalar(a: &[f32], packed: &[f32], out: &mut [f32], k: usize, n: usize) {
    let rows = out.len() / n;
    for (pi, panel) in packed.chunks_exact(k * NR).enumerate() {
        let j0 = pi * NR;
        let w = NR.min(n - j0);
        let mut r = 0;
        while r + MR <= rows {
            let a0 = &a[r * k..(r + 1) * k];
            let a1 = &a[(r + 1) * k..(r + 2) * k];
            let a2 = &a[(r + 2) * k..(r + 3) * k];
            let a3 = &a[(r + 3) * k..(r + 4) * k];
            let mut acc = [[0.0f32; NR]; MR];
            for (p, bp) in panel.chunks_exact(NR).enumerate() {
                let (x0, x1, x2, x3) = (a0[p], a1[p], a2[p], a3[p]);
                for l in 0..NR {
                    let b = bp[l];
                    acc[0][l] += x0 * b;
                    acc[1][l] += x1 * b;
                    acc[2][l] += x2 * b;
                    acc[3][l] += x3 * b;
                }
            }
            for (rr, acc_row) in acc.iter().enumerate() {
                let o0 = (r + rr) * n + j0;
                out[o0..o0 + w].copy_from_slice(&acc_row[..w]);
            }
            r += MR;
        }
        while r < rows {
            let arow = &a[r * k..(r + 1) * k];
            let mut acc = [0.0f32; NR];
            for (p, bp) in panel.chunks_exact(NR).enumerate() {
                let x = arow[p];
                for l in 0..NR {
                    acc[l] += x * bp[l];
                }
            }
            let o0 = r * n + j0;
            out[o0..o0 + w].copy_from_slice(&acc[..w]);
            r += 1;
        }
    }
}

/// Scalar [`fold_dots`]: for each sample, row and lane, [`dot_scalar`]'s
/// four stride-4 partials and in-order tail, combined the same way and
/// added to the running total in ascending sample order.
fn fold_dots_scalar(
    a: &[f32],
    a_stride: usize,
    b: &[f32],
    b_stride: usize,
    k: usize,
    samples: usize,
    acc: &mut [[f32; NR]],
) {
    let body = k - k % 4;
    for s in 0..samples {
        let bs = &b[s * b_stride..s * b_stride + k * NR];
        for (i, tot) in acc.iter_mut().enumerate() {
            let ar = &a[s * a_stride + i * k..s * a_stride + (i + 1) * k];
            let mut part = [[0.0f32; NR]; 4];
            for (t, &x) in ar[..body].iter().enumerate() {
                let bt = &bs[t * NR..(t + 1) * NR];
                for (p, &y) in part[t % 4].iter_mut().zip(bt) {
                    *p += x * y;
                }
            }
            let mut tail = [0.0f32; NR];
            for (t, &x) in ar.iter().enumerate().skip(body) {
                let bt = &bs[t * NR..(t + 1) * NR];
                for (p, &y) in tail.iter_mut().zip(bt) {
                    *p += x * y;
                }
            }
            for l in 0..NR {
                tot[l] += (part[0][l] + part[1][l]) + (part[2][l] + part[3][l]) + tail[l];
            }
        }
    }
}

/// Scalar [`axpy`].
fn axpy_scalar(x: f32, src: &[f32], dst: &mut [f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += x * s;
    }
}

/// Scalar [`add_scalar`].
fn add_scalar_scalar(dst: &mut [f32], c: f32) {
    for d in dst.iter_mut() {
        *d += c;
    }
}

/// Scalar [`rank_count`]: per element, the number of thresholds `<=` it.
fn rank_count_scalar(thresholds: &[f32], src: &[f32], dst: &mut [u32]) {
    for (&w, d) in src.iter().zip(dst.iter_mut()) {
        let mut idx = 0u32;
        for &t in thresholds {
            idx += u32::from(t <= w);
        }
        *d = idx;
    }
}

// ---------------------------------------------------------------------------
// AVX2 kernels. Each function is `#[target_feature(enable = "avx2")]`
// and only reachable through the dispatcher after `detect()` reported
// AVX2, which makes the intrinsics safe to execute.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{MR, NR};
    use std::arch::x86_64::{
        __m128, __m256, _mm256_add_epi32, _mm256_add_ps, _mm256_broadcast_ss,
        _mm256_castps256_ps128, _mm256_castps_si256, _mm256_cmp_ps, _mm256_extractf128_ps,
        _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_setzero_si256,
        _mm256_srli_epi32, _mm256_storeu_ps, _mm256_storeu_si256, _mm_add_ps, _mm_cvtss_f32,
        _mm_loadu_ps, _mm_mul_ps, _mm_setzero_ps, _mm_shuffle_ps, _CMP_LE_OQ,
    };

    /// Lane `l` of a 4-lane register, extracted without reordering the
    /// scalar combine that follows.
    ///
    /// Safety: caller must have verified AVX2 support (all callers are
    /// themselves `avx2` target-feature functions).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn lane(v: __m128, l: usize) -> f32 {
        match l {
            0 => _mm_cvtss_f32(v),
            1 => _mm_cvtss_f32(_mm_shuffle_ps(v, v, 0b01)),
            2 => _mm_cvtss_f32(_mm_shuffle_ps(v, v, 0b10)),
            _ => _mm_cvtss_f32(_mm_shuffle_ps(v, v, 0b11)),
        }
    }

    /// AVX2 [`super::dot`]: one 4-lane accumulator (lane *j* = scalar
    /// partial *j*), fed low-half-then-high-half so consecutive 4-chunks
    /// land in the same order as the scalar loop, then the exact scalar
    /// combine `(a0 + a1) + (a2 + a3) + tail`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let mut acc = _mm_setzero_ps();
        let mut i = 0usize;
        while i + 8 <= n {
            let prod = _mm256_mul_ps(
                _mm256_loadu_ps(a.as_ptr().add(i)),
                _mm256_loadu_ps(b.as_ptr().add(i)),
            );
            acc = _mm_add_ps(acc, _mm256_castps256_ps128(prod));
            acc = _mm_add_ps(acc, _mm256_extractf128_ps(prod, 1));
            i += 8;
        }
        if i + 4 <= n {
            acc = _mm_add_ps(
                acc,
                _mm_mul_ps(
                    _mm_loadu_ps(a.as_ptr().add(i)),
                    _mm_loadu_ps(b.as_ptr().add(i)),
                ),
            );
            i += 4;
        }
        let mut tail = 0.0f32;
        for j in i..n {
            tail += a[j] * b[j];
        }
        (lane(acc, 0) + lane(acc, 1)) + (lane(acc, 2) + lane(acc, 3)) + tail
    }

    /// AVX2 [`super::matmul_block`]: one YMM accumulator per microkernel
    /// row, `mul` + `add` (never FMA), ascending-`p` accumulation — the
    /// scalar kernel with each 8-wide `l` loop collapsed into one lane
    /// operation.
    #[target_feature(enable = "avx2")]
    pub unsafe fn matmul_block(a: &[f32], packed: &[f32], out: &mut [f32], k: usize, n: usize) {
        let rows = out.len() / n;
        for (pi, panel) in packed.chunks_exact(k * NR).enumerate() {
            let j0 = pi * NR;
            let w = NR.min(n - j0);
            let pp = panel.as_ptr();
            let mut r = 0;
            while r + MR <= rows {
                let a0 = a.as_ptr().add(r * k);
                let a1 = a.as_ptr().add((r + 1) * k);
                let a2 = a.as_ptr().add((r + 2) * k);
                let a3 = a.as_ptr().add((r + 3) * k);
                let mut acc0 = _mm256_setzero_ps();
                let mut acc1 = _mm256_setzero_ps();
                let mut acc2 = _mm256_setzero_ps();
                let mut acc3 = _mm256_setzero_ps();
                for p in 0..k {
                    let bp = _mm256_loadu_ps(pp.add(p * NR));
                    acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(_mm256_broadcast_ss(&*a0.add(p)), bp));
                    acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(_mm256_broadcast_ss(&*a1.add(p)), bp));
                    acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(_mm256_broadcast_ss(&*a2.add(p)), bp));
                    acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(_mm256_broadcast_ss(&*a3.add(p)), bp));
                }
                store_row(acc0, &mut out[r * n + j0..], w);
                store_row(acc1, &mut out[(r + 1) * n + j0..], w);
                store_row(acc2, &mut out[(r + 2) * n + j0..], w);
                store_row(acc3, &mut out[(r + 3) * n + j0..], w);
                r += MR;
            }
            while r < rows {
                let ar = a.as_ptr().add(r * k);
                let mut acc = _mm256_setzero_ps();
                for p in 0..k {
                    let bp = _mm256_loadu_ps(pp.add(p * NR));
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_broadcast_ss(&*ar.add(p)), bp));
                }
                store_row(acc, &mut out[r * n + j0..], w);
                r += 1;
            }
        }
    }

    /// AVX2 [`super::fold_dots`] over `R` rows: per row, four YMM partial
    /// registers (lane *l* of register *j* = the scalar partial *j* of
    /// output lane *l*) and one tail register, combined as
    /// `((p0 + p1) + (p2 + p3)) + tail` and added to the running total —
    /// the scalar kernel with each 8-wide lane loop collapsed into one
    /// lane operation.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, `acc.len()` must be `R`, and the
    /// operands must pass [`super::check_fold`] for `samples` and `R`
    /// rows: every A and B offset read is then in bounds.
    #[target_feature(enable = "avx2")]
    pub unsafe fn fold_dots<const R: usize>(
        a: &[f32],
        a_stride: usize,
        b: &[f32],
        b_stride: usize,
        k: usize,
        samples: usize,
        acc: &mut [[f32; NR]],
    ) {
        debug_assert_eq!(acc.len(), R);
        let mut tot = [_mm256_setzero_ps(); R];
        for (t, row) in tot.iter_mut().zip(acc.iter()) {
            *t = _mm256_loadu_ps(row.as_ptr());
        }
        let body = k - k % 4;
        for s in 0..samples {
            let ap = a.as_ptr().add(s * a_stride);
            let bp = b.as_ptr().add(s * b_stride);
            let mut part = [[_mm256_setzero_ps(); 4]; R];
            let mut t = 0usize;
            while t < body {
                for j in 0..4 {
                    let bv = _mm256_loadu_ps(bp.add((t + j) * NR));
                    for (i, p) in part.iter_mut().enumerate() {
                        let x = _mm256_broadcast_ss(&*ap.add(i * k + t + j));
                        p[j] = _mm256_add_ps(p[j], _mm256_mul_ps(x, bv));
                    }
                }
                t += 4;
            }
            let mut tail = [_mm256_setzero_ps(); R];
            while t < k {
                let bv = _mm256_loadu_ps(bp.add(t * NR));
                for (i, tl) in tail.iter_mut().enumerate() {
                    let x = _mm256_broadcast_ss(&*ap.add(i * k + t));
                    *tl = _mm256_add_ps(*tl, _mm256_mul_ps(x, bv));
                }
                t += 1;
            }
            for i in 0..R {
                let [p0, p1, p2, p3] = part[i];
                let d = _mm256_add_ps(
                    _mm256_add_ps(_mm256_add_ps(p0, p1), _mm256_add_ps(p2, p3)),
                    tail[i],
                );
                tot[i] = _mm256_add_ps(tot[i], d);
            }
        }
        for (t, row) in tot.iter().zip(acc.iter_mut()) {
            _mm256_storeu_ps(row.as_mut_ptr(), *t);
        }
    }

    /// Stores the first `w` lanes of `acc` to `out` (full 8-lane store
    /// when the panel is not column-clipped).
    ///
    /// Safety: caller must have verified AVX2 support.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store_row(acc: __m256, out: &mut [f32], w: usize) {
        if w == NR {
            _mm256_storeu_ps(out.as_mut_ptr(), acc);
        } else {
            let mut tmp = [0.0f32; NR];
            _mm256_storeu_ps(tmp.as_mut_ptr(), acc);
            out[..w].copy_from_slice(&tmp[..w]);
        }
    }

    /// AVX2 [`super::axpy`]: `dst[i] += x * src[i]`, 8 independent lanes
    /// per step, scalar tail — per-element arithmetic identical.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy(x: f32, src: &[f32], dst: &mut [f32]) {
        let n = dst.len().min(src.len());
        let xv = _mm256_set1_ps(x);
        let mut i = 0usize;
        while i + 8 <= n {
            let d = _mm256_loadu_ps(dst.as_ptr().add(i));
            let s = _mm256_loadu_ps(src.as_ptr().add(i));
            _mm256_storeu_ps(
                dst.as_mut_ptr().add(i),
                _mm256_add_ps(d, _mm256_mul_ps(xv, s)),
            );
            i += 8;
        }
        for j in i..n {
            dst[j] += x * src[j];
        }
    }

    /// AVX2 [`super::add_scalar`].
    #[target_feature(enable = "avx2")]
    pub unsafe fn add_scalar(dst: &mut [f32], c: f32) {
        let cv = _mm256_set1_ps(c);
        let n = dst.len();
        let mut i = 0usize;
        while i + 8 <= n {
            let d = _mm256_loadu_ps(dst.as_ptr().add(i));
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_add_ps(d, cv));
            i += 8;
        }
        for d in dst[i..n].iter_mut() {
            *d += c;
        }
    }

    /// AVX2 [`super::rank_count`]: 8 elements per step; each threshold is
    /// broadcast and compared `<=` (ordered, quiet — NaN elements rank 0
    /// exactly like the scalar `t <= w`), and the all-ones masks are
    /// accumulated as integer counts. Integer arithmetic, so lane order
    /// is trivially irrelevant.
    #[target_feature(enable = "avx2")]
    pub unsafe fn rank_count(thresholds: &[f32], src: &[f32], dst: &mut [u32]) {
        let n = src.len().min(dst.len());
        let mut i = 0usize;
        while i + 8 <= n {
            let w = _mm256_loadu_ps(src.as_ptr().add(i));
            let mut counts = _mm256_setzero_si256();
            for &t in thresholds {
                let mask = _mm256_cmp_ps::<_CMP_LE_OQ>(_mm256_set1_ps(t), w);
                // True lanes are all-ones; shift to 1 and add.
                let bit = _mm256_srli_epi32::<31>(_mm256_castps_si256(mask));
                counts = _mm256_add_epi32(counts, bit);
            }
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), counts);
            i += 8;
        }
        for j in i..n {
            let mut idx = 0u32;
            for &t in thresholds {
                idx += u32::from(t <= src[j]);
            }
            dst[j] = idx;
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatchers.
// ---------------------------------------------------------------------------

/// Dot product of two equal-length slices with the fixed four-accumulator
/// reduction tree (see the module docs); bit-identical at every level.
#[must_use]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if active() == Level::Avx2 {
        // SAFETY: Level::Avx2 is only ever active when `detect()` saw the
        // `avx2` CPUID flag (set_active clamps), so the target-feature
        // function is safe to call.
        return unsafe { x86::dot(a, b) };
    }
    dot_scalar(a, b)
}

/// Register-tiled microkernel over one block of packed-panel matmul
/// output rows.
///
/// `a` points at the block's first A row (row-major, stride `k`);
/// `packed` holds zero-padded `NR`-wide B column panels
/// (`packed[(panel * k + p) * NR + lane] = B[p, panel*NR + lane]`); `out`
/// is the block's `out.len() / n` output rows. Accumulators are stored
/// (not added), so `out` need not be zeroed. Accumulation is ascending
/// `p` per output element at every level.
pub fn matmul_block(a: &[f32], packed: &[f32], out: &mut [f32], k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if active() == Level::Avx2 {
        // SAFETY: AVX2 presence established by detect(); slice bounds are
        // the same ones the scalar kernel indexes.
        unsafe { x86::matmul_block(a, packed, out, k, n) };
        return;
    }
    matmul_block_scalar(a, packed, out, k, n);
}

/// Rows one [`fold_dots`] call covers at most: with four partial
/// registers plus a tail per row, two rows keep the AVX2 tile in the
/// sixteen YMM registers.
pub const FOLD_ROWS: usize = 2;

/// Checks that every A and B offset [`fold_dots`] reads is in bounds.
fn check_fold(
    a: &[f32],
    a_stride: usize,
    b: &[f32],
    b_stride: usize,
    k: usize,
    samples: usize,
    rows: usize,
) {
    assert!(
        (1..=FOLD_ROWS).contains(&rows),
        "fold_dots: {rows} rows (1..={FOLD_ROWS})"
    );
    let Some(last) = samples.checked_sub(1) else {
        return;
    };
    // Checked arithmetic: an overflowing offset must fail the check, not
    // wrap past it.
    let end = |stride: usize, extent: Option<usize>| {
        last.checked_mul(stride)
            .zip(extent)
            .and_then(|(start, extent)| start.checked_add(extent))
    };
    assert!(
        end(a_stride, rows.checked_mul(k)).is_some_and(|e| e <= a.len())
            && end(b_stride, k.checked_mul(NR)).is_some_and(|e| e <= b.len()),
        "fold_dots: operands too short for {samples} samples"
    );
}

/// Batch-folded dot products over one `NR`-wide panel.
///
/// For every sample `s`, row `i < acc.len()` (at most [`FOLD_ROWS`]) and
/// lane `l`, adds `dot(a_s[i], b_s[.., l])` to `acc[i][l]`, samples in
/// ascending order (`s < samples`), where
/// `a_s[i] = a[s·a_stride + i·k ..][..k]` and
/// `b_s[t, l] = b[s·b_stride + t·NR + l]`. Each dot `d_s` is [`dot`]'s
/// exact arithmetic — four stride-4 partials combined as
/// `(p0 + p1) + (p2 + p3)`, plus the in-order tail — so
/// `acc[i][l] = ((acc[i][l] + d_0) + d_1) + …` bit for bit at every
/// level.
///
/// # Panics
///
/// Panics if `acc` has no rows or more than [`FOLD_ROWS`], or if `a` or
/// `b` is too short for `samples` samples.
pub fn fold_dots(
    a: &[f32],
    a_stride: usize,
    b: &[f32],
    b_stride: usize,
    k: usize,
    samples: usize,
    acc: &mut [[f32; NR]],
) {
    check_fold(a, a_stride, b, b_stride, k, samples, acc.len());
    #[cfg(target_arch = "x86_64")]
    if active() == Level::Avx2 {
        // SAFETY: AVX2 presence established by detect(); `check_fold`
        // bounded every A and B offset the kernel reads.
        unsafe {
            if acc.len() == FOLD_ROWS {
                x86::fold_dots::<FOLD_ROWS>(a, a_stride, b, b_stride, k, samples, acc);
            } else {
                x86::fold_dots::<1>(a, a_stride, b, b_stride, k, samples, acc);
            }
        }
        return;
    }
    fold_dots_scalar(a, a_stride, b, b_stride, k, samples, acc);
}

/// `dst[i] += x * src[i]` over `min(len)` elements (separate multiply and
/// add roundings, per element — never fused).
pub fn axpy(x: f32, src: &[f32], dst: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if active() == Level::Avx2 {
        // SAFETY: see `dot`.
        unsafe { x86::axpy(x, src, dst) };
        return;
    }
    axpy_scalar(x, src, dst);
}

/// `dst[i] += c` over every element.
pub fn add_scalar(dst: &mut [f32], c: f32) {
    #[cfg(target_arch = "x86_64")]
    if active() == Level::Avx2 {
        // SAFETY: see `dot`.
        unsafe { x86::add_scalar(dst, c) };
        return;
    }
    add_scalar_scalar(dst, c);
}

/// For each `src[i]`, counts thresholds `t` with `t <= src[i]` into
/// `dst[i]` (over `min(len)` elements).
///
/// This is the branchless bulk codebook-assignment primitive: with
/// `thresholds = &boundaries[1..]` of a sorted codebook, the count *is*
/// the cluster index (clamping below the first boundary to 0). NaN
/// elements count 0 thresholds at every level. Pure integer
/// accumulation, so SIMD width cannot affect the result.
pub fn rank_count(thresholds: &[f32], src: &[f32], dst: &mut [u32]) {
    #[cfg(target_arch = "x86_64")]
    if active() == Level::Avx2 {
        // SAFETY: see `dot`.
        unsafe { x86::rank_count(thresholds, src, dst) };
        return;
    }
    rank_count_scalar(thresholds, src, dst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serialises tests that flip the process-wide dispatch level.
    static LEVEL_LOCK: Mutex<()> = Mutex::new(());

    /// Runs `f` twice — once per level — and hands it the level each time.
    fn with_each_level(mut f: impl FnMut(Level)) {
        let _guard = LEVEL_LOCK.lock().unwrap();
        let prev = set_active(Level::Scalar);
        f(Level::Scalar);
        if detect() == Level::Avx2 {
            set_active(Level::Avx2);
            f(Level::Avx2);
        }
        set_active(prev);
    }

    fn seeded(n: usize, seed: u64) -> Vec<f32> {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.random_range(-2.0..2.0)).collect()
    }

    #[test]
    fn resolve_env_values() {
        assert_eq!(resolve("off", Level::Avx2), Level::Scalar);
        assert_eq!(resolve("OFF", Level::Avx2), Level::Scalar);
        assert_eq!(resolve("scalar", Level::Avx2), Level::Scalar);
        assert_eq!(resolve("auto", Level::Avx2), Level::Avx2);
        assert_eq!(resolve("", Level::Avx2), Level::Avx2);
        assert_eq!(resolve("avx2", Level::Avx2), Level::Avx2);
        // Requesting AVX2 on a scalar-only host clamps down.
        assert_eq!(resolve("avx2", Level::Scalar), Level::Scalar);
        // Typos degrade to auto, never to UB or an error.
        assert_eq!(resolve("wat", Level::Avx2), Level::Avx2);
    }

    #[test]
    fn set_active_clamps_to_detected() {
        let _guard = LEVEL_LOCK.lock().unwrap();
        let prev = set_active(Level::Avx2);
        assert_eq!(active(), detect());
        set_active(prev);
    }

    #[test]
    fn dot_levels_agree_bitwise_on_all_tails() {
        // 1..=2*NR covers every remainder class of both the 8-wide body
        // and the 4-wide half-step.
        for len in 1..=2 * NR + 1 {
            let a = seeded(len, len as u64);
            let b = seeded(len, len as u64 ^ 0xabcd);
            let mut got = Vec::new();
            with_each_level(|_| got.push(dot(&a, &b).to_bits()));
            assert!(got.windows(2).all(|w| w[0] == w[1]), "len={len}: {got:?}");
        }
    }

    #[test]
    fn matmul_block_levels_agree_bitwise() {
        for (rows, k, n) in [
            (1usize, 3usize, 5usize),
            (4, 7, 8),
            (5, 16, 13),
            (9, 5, 17),
            (4, 1, 1),
        ] {
            let a = seeded(rows * k, (rows * k) as u64);
            let panels = n.div_ceil(NR);
            let mut packed = vec![0.0f32; panels * k * NR];
            let bv = seeded(k * n, (k * n) as u64 ^ 0x55);
            for pi in 0..panels {
                let j0 = pi * NR;
                let w = NR.min(n - j0);
                for p in 0..k {
                    let dst = (pi * k + p) * NR;
                    packed[dst..dst + w].copy_from_slice(&bv[p * n + j0..p * n + j0 + w]);
                }
            }
            let mut outs: Vec<Vec<u32>> = Vec::new();
            with_each_level(|_| {
                let mut out = vec![f32::NAN; rows * n];
                matmul_block(&a, &packed, &mut out, k, n);
                outs.push(out.iter().map(|v| v.to_bits()).collect());
            });
            assert!(
                outs.windows(2).all(|w| w[0] == w[1]),
                "rows={rows} k={k} n={n}"
            );
        }
    }

    #[test]
    fn fold_dots_is_a_left_fold_of_dots_at_every_level() {
        // k covers every dot remainder class and the 8-wide body; the
        // strides leave gaps so stray reads would pick up wrong values.
        for k in 1..=2 * NR + 1 {
            for rows in 1..=FOLD_ROWS {
                let samples = 3;
                let (a_stride, b_stride) = (rows * k + 5, k * NR + 3);
                let a = seeded(samples * a_stride, k as u64);
                let b = seeded(samples * b_stride, k as u64 ^ 0x3c);
                let start = seeded(rows * NR, k as u64 ^ 0x5a);
                let mut want = vec![[0.0f32; NR]; rows];
                for (i, w) in want.iter_mut().enumerate() {
                    for (l, w) in w.iter_mut().enumerate() {
                        *w = start[i * NR + l];
                        for s in 0..samples {
                            let ar = &a[s * a_stride + i * k..s * a_stride + (i + 1) * k];
                            let col: Vec<f32> =
                                (0..k).map(|t| b[s * b_stride + t * NR + l]).collect();
                            *w += dot_scalar(ar, &col);
                        }
                    }
                }
                with_each_level(|level| {
                    let mut acc = vec![[0.0f32; NR]; rows];
                    for (i, row) in acc.iter_mut().enumerate() {
                        row.copy_from_slice(&start[i * NR..(i + 1) * NR]);
                    }
                    fold_dots(&a, a_stride, &b, b_stride, k, samples, &mut acc);
                    let got: Vec<u32> = acc.iter().flatten().map(|v| v.to_bits()).collect();
                    let exp: Vec<u32> = want.iter().flatten().map(|v| v.to_bits()).collect();
                    assert_eq!(got, exp, "k={k} rows={rows} level={}", level.name());
                });
            }
        }
    }

    #[test]
    #[should_panic(expected = "operands too short")]
    fn fold_dots_rejects_short_operands() {
        let a = vec![0.0f32; 7];
        let b = vec![0.0f32; 4 * NR];
        let mut acc = [[0.0f32; NR]; 2];
        fold_dots(&a, 4, &b, 0, 4, 1, &mut acc);
    }

    #[test]
    fn elementwise_kernels_agree_bitwise() {
        for len in [1, 7, 8, 9, 15, 16, 17, 100] {
            let src = seeded(len, len as u64 ^ 0x11);
            let base = seeded(len, len as u64 ^ 0x22);
            let mut axpys: Vec<Vec<u32>> = Vec::new();
            let mut scalars: Vec<Vec<u32>> = Vec::new();
            with_each_level(|_| {
                let mut d = base.clone();
                axpy(0.37, &src, &mut d);
                axpys.push(d.iter().map(|v| v.to_bits()).collect());
                let mut d = base.clone();
                add_scalar(&mut d, -1.25);
                scalars.push(d.iter().map(|v| v.to_bits()).collect());
            });
            for series in [&axpys, &scalars] {
                assert!(series.windows(2).all(|w| w[0] == w[1]), "len={len}");
            }
        }
    }

    #[test]
    fn rank_count_matches_scalar_including_nan() {
        let thresholds: Vec<f32> = (0..15).map(|i| i as f32 * 0.4 - 3.0).collect();
        for len in [1, 5, 8, 13, 16, 33] {
            let mut src = seeded(len, len as u64 ^ 0x77);
            src[0] = f32::NAN;
            if len > 4 {
                src[4] = -3.0; // exactly the first threshold
            }
            let mut expect = vec![0u32; len];
            rank_count_scalar(&thresholds, &src, &mut expect);
            with_each_level(|_| {
                let mut got = vec![u32::MAX; len];
                rank_count(&thresholds, &src, &mut got);
                assert_eq!(got, expect, "len={len}");
            });
        }
    }
}
