//! 2-D convolution and pooling kernels with full backward passes.
//!
//! Layout convention is `NCHW` for activations and `OIHW` for convolution
//! weights, matching the layer definitions in `qce-nn`. The forward pass
//! is an explicit im2col lowering followed by the blocked
//! [`matmul`](crate::linalg::matmul) kernel; the input gradient reverses
//! the lowering with a col2im scatter-add — the textbook formulation, easy
//! to verify against finite differences (see the crate's property tests).
//!
//! Forward and the input gradient are **batch-parallel**: samples are
//! distributed over the [`crate::par::Pool`] (falling back to an
//! in-sample parallel matmul when the batch is smaller than the pool) and
//! each worker reuses its scratch buffers across its samples. The weight
//! and bias gradients are **folded over the batch**: every sample's
//! im2col matrix is gathered in `NR`-row panels, and [`simd::fold_dots`]
//! sums every weight-gradient element over the samples in ascending
//! order, with each sample's term computed exactly as the per-sample
//! `g_s · colᵀ` dot product would. The pool splits that fold by panel
//! (a disjoint set of weight-gradient columns per item), so no
//! floating-point sum ever crosses a thread and gradients are
//! bit-for-bit identical for every thread count and SIMD level.

use crate::par::{self, Pool};
use crate::simd::{FOLD_ROWS, NR};
use crate::{linalg, simd, Result, Tensor, TensorError};

/// Floats of gathered im2col columns one [`conv2d_backward_with`] work
/// item holds at a time (128 KiB): a batch whose panel would need more is
/// folded in chunks of whole samples.
const PANEL_BUDGET: usize = 1 << 15;

/// Stride/padding geometry of a convolution or pooling window.
///
/// # Examples
///
/// ```
/// use qce_tensor::conv::ConvGeometry;
///
/// let g = ConvGeometry::new(1, 1);
/// assert_eq!(g.output_extent(32, 3).unwrap(), 32); // "same" conv for 3x3
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvGeometry {
    /// Window step, identical in both spatial dimensions.
    pub stride: usize,
    /// Zero padding added to every spatial border.
    pub padding: usize,
}

impl ConvGeometry {
    /// Creates a geometry from stride and padding.
    pub fn new(stride: usize, padding: usize) -> Self {
        ConvGeometry { stride, padding }
    }

    /// Unit-stride, zero-padding geometry.
    pub fn unit() -> Self {
        ConvGeometry {
            stride: 1,
            padding: 0,
        }
    }

    /// Output extent along one spatial dimension for input extent `n` and
    /// kernel extent `k`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if the stride is zero or
    /// the kernel does not fit in the padded input.
    pub fn output_extent(&self, n: usize, k: usize) -> Result<usize> {
        if self.stride == 0 {
            return Err(TensorError::InvalidGeometry {
                reason: "stride must be non-zero".to_string(),
            });
        }
        let padded = n + 2 * self.padding;
        if k == 0 || k > padded {
            return Err(TensorError::InvalidGeometry {
                reason: format!("kernel extent {k} does not fit padded input {padded}"),
            });
        }
        Ok((padded - k) / self.stride + 1)
    }
}

impl Default for ConvGeometry {
    fn default() -> Self {
        ConvGeometry::unit()
    }
}

fn check_rank4(op: &'static str, t: &Tensor) -> Result<()> {
    if t.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 4,
            actual: t.shape().rank(),
        });
    }
    Ok(())
}

/// The im2col lowering of one convolution: a `[C, H, W]` image, a
/// `kh × kw` kernel and a `ho × wo` output grid.
///
/// Row `r = (ch·kh + ky)·kw + kx` of the `[C·kh·kw, ho·wo]` column matrix
/// holds, for every output position, the input pixel kernel tap
/// `(ch, ky, kx)` reads there (zero in the padding).
#[derive(Debug, Clone, Copy)]
struct Lowering {
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    geom: ConvGeometry,
    ho: usize,
    wo: usize,
}

impl Lowering {
    /// Lowers `img` into the row-major column matrix `col`.
    fn im2col(&self, img: &[f32], col: &mut [f32]) {
        let Lowering {
            h,
            w,
            kh,
            kw,
            geom,
            ho,
            wo,
            ..
        } = *self;
        let pad = geom.padding as isize;
        for (r, dst) in col.chunks_exact_mut(ho * wo).enumerate() {
            let (ch, ky, kx) = (r / (kh * kw), r / kw % kh, r % kw);
            let img_ch = &img[ch * h * w..(ch + 1) * h * w];
            if geom.stride == 1 {
                // Unit stride makes every output row a shifted window of
                // one input row: zero-fill the out-of-image borders and
                // bulk-copy the valid span instead of testing bounds per
                // element. Pure data movement — the values are those of
                // the general path.
                let shift = kx as isize - pad; // ix = ox + shift
                let lo = (-shift).clamp(0, wo as isize) as usize;
                let hi = (w as isize - shift).clamp(lo as isize, wo as isize) as usize;
                for (oy, d) in dst.chunks_exact_mut(wo).enumerate() {
                    let iy = oy as isize + ky as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        d.fill(0.0);
                        continue;
                    }
                    d[..lo].fill(0.0);
                    if lo < hi {
                        let src0 = iy as usize * w + (lo as isize + shift) as usize;
                        d[lo..hi].copy_from_slice(&img_ch[src0..src0 + (hi - lo)]);
                    }
                    d[hi..].fill(0.0);
                }
                continue;
            }
            for (oy, d) in dst.chunks_exact_mut(wo).enumerate() {
                let iy = (oy * geom.stride) as isize + ky as isize - pad;
                for (ox, v) in d.iter_mut().enumerate() {
                    let ix = (ox * geom.stride) as isize + kx as isize - pad;
                    *v = if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                        img_ch[iy as usize * w + ix as usize]
                    } else {
                        0.0
                    };
                }
            }
        }
    }

    /// The column matrix in the packed panel layout of
    /// [`simd::fold_dots`], as gather indices into the image:
    /// `taps[(r / NR · ho·wo + t) · NR + r % NR]` is the flat index entry
    /// `(r, t)` reads. Padding taps, and the lanes past the last row,
    /// read index `c·h·w` — one past the image.
    fn panel_taps(&self) -> Vec<u32> {
        let Lowering {
            c,
            h,
            w,
            kh,
            kw,
            geom,
            ho,
            wo,
        } = *self;
        let index = |i: usize| u32::try_from(i).expect("image index fits in u32");
        let pad = geom.padding as isize;
        let mut taps = vec![index(c * h * w); (c * kh * kw).div_ceil(NR) * ho * wo * NR];
        for r in 0..c * kh * kw {
            let (ch, ky, kx) = (r / (kh * kw), r / kw % kh, r % kw);
            let mut lane = taps[r / NR * ho * wo * NR + r % NR..]
                .iter_mut()
                .step_by(NR);
            for oy in 0..ho {
                let iy = (oy * geom.stride + ky) as isize - pad;
                for (ox, tap) in lane.by_ref().take(wo).enumerate() {
                    let ix = (ox * geom.stride + kx) as isize - pad;
                    if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                        *tap = index((ch * h + iy as usize) * w + ix as usize);
                    }
                }
            }
        }
        taps
    }

    /// Reverses [`Lowering::im2col`]: scatter-adds the column matrix `col`
    /// into the image buffer `img`.
    fn col2im(&self, col: &[f32], img: &mut [f32]) {
        let Lowering {
            h,
            w,
            kh,
            kw,
            geom,
            ho,
            wo,
            ..
        } = *self;
        let pad = geom.padding as isize;
        for (r, src) in col.chunks_exact(ho * wo).enumerate() {
            let (ch, ky, kx) = (r / (kh * kw), r / kw % kh, r % kw);
            let img_ch = &mut img[ch * h * w..(ch + 1) * h * w];
            if geom.stride == 1 {
                // Mirror of the unit-stride lowering: each (row, oy) pair
                // touches a contiguous image span exactly once, so the
                // scatter-add becomes one segment add per output row — a
                // plain loop, since at the 4×4 stage a segment is 3–4
                // floats and a dispatched SIMD call costs more than the
                // adds. The accumulation order onto each image element is
                // that of the general path.
                let shift = kx as isize - pad; // ix = ox + shift
                let lo = (-shift).clamp(0, wo as isize) as usize;
                let hi = (w as isize - shift).clamp(lo as isize, wo as isize) as usize;
                if lo == hi {
                    continue;
                }
                for (oy, s) in src.chunks_exact(wo).enumerate() {
                    let iy = oy as isize + ky as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let dst0 = iy as usize * w + (lo as isize + shift) as usize;
                    for (d, &v) in img_ch[dst0..dst0 + (hi - lo)].iter_mut().zip(&s[lo..hi]) {
                        *d += v;
                    }
                }
                continue;
            }
            for (oy, s) in src.chunks_exact(wo).enumerate() {
                let iy = (oy * geom.stride) as isize + ky as isize - pad;
                if iy < 0 || iy >= h as isize {
                    continue;
                }
                for (ox, &v) in s.iter().enumerate() {
                    let ix = (ox * geom.stride) as isize + kx as isize - pad;
                    if ix >= 0 && ix < w as isize {
                        img_ch[iy as usize * w + ix as usize] += v;
                    }
                }
            }
        }
    }
}

/// 2-D convolution forward pass.
///
/// `input` is `[N, C, H, W]`, `weight` is `[O, C, kh, kw]`, optional `bias`
/// is `[O]`; the result is `[N, O, Ho, Wo]`.
///
/// # Errors
///
/// Returns an error if ranks, channel counts, bias length or geometry are
/// inconsistent.
///
/// # Examples
///
/// ```
/// use qce_tensor::conv::{conv2d, ConvGeometry};
/// use qce_tensor::Tensor;
///
/// # fn main() -> Result<(), qce_tensor::TensorError> {
/// let input = Tensor::ones(&[1, 1, 4, 4]);
/// let weight = Tensor::ones(&[1, 1, 3, 3]);
/// let out = conv2d(&input, &weight, None, ConvGeometry::new(1, 1))?;
/// assert_eq!(out.dims(), &[1, 1, 4, 4]);
/// assert_eq!(out.at(&[0, 0, 1, 1]), 9.0); // fully covered window
/// # Ok(())
/// # }
/// ```
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    geom: ConvGeometry,
) -> Result<Tensor> {
    conv2d_with(Pool::global(), input, weight, bias, geom)
}

/// [`conv2d`] on an explicit pool (`Pool::serial()` is the scalar reference).
///
/// Samples are split over the pool when the batch is at least as wide as
/// the pool; otherwise the per-sample matmul is parallelised instead.
/// Both placements run identical per-sample arithmetic, so the output is
/// the same bytes either way.
///
/// # Errors
///
/// Same contract as [`conv2d`].
pub fn conv2d_with(
    pool: &Pool,
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    geom: ConvGeometry,
) -> Result<Tensor> {
    check_rank4("conv2d input", input)?;
    check_rank4("conv2d weight", weight)?;
    let (n, c, h, w) = dims4(input);
    let (o, ci, kh, kw) = dims4(weight);
    if c != ci {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            lhs: input.dims().to_vec(),
            rhs: weight.dims().to_vec(),
        });
    }
    if let Some(b) = bias {
        if b.len() != o {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d bias",
                lhs: vec![o],
                rhs: b.dims().to_vec(),
            });
        }
    }
    let ho = geom.output_extent(h, kh)?;
    let wo = geom.output_extent(w, kw)?;
    let low = Lowering {
        c,
        h,
        w,
        kh,
        kw,
        geom,
        ho,
        wo,
    };

    let csize = c * h * w;
    let osize = o * ho * wo;
    let ckk = c * kh * kw;
    let howo = ho * wo;
    // OIHW weights are already the [o, c*kh*kw] matrix, row-major.
    let wv = weight.as_slice();
    let iv = input.as_slice();
    let bslice = bias.map(Tensor::as_slice);
    let mut out = vec![0.0f32; n * osize];
    let serial = Pool::serial();
    let (outer, inner) = if n >= pool.threads() {
        (pool, &serial)
    } else {
        (&serial, pool)
    };
    par::for_each_chunk(
        outer,
        &mut out,
        osize,
        || vec![0.0f32; ckk * howo],
        |col, s, dst| {
            let img = &iv[s * csize..(s + 1) * csize];
            low.im2col(img, col);
            linalg::matmul_into(inner, wv, col, dst, o, ckk, howo);
            if let Some(b) = bslice {
                for (oc, &bv) in b.iter().enumerate() {
                    simd::add_scalar(&mut dst[oc * howo..(oc + 1) * howo], bv);
                }
            }
        },
    );
    Tensor::from_vec(out, &[n, o, ho, wo])
}

/// Gradients produced by [`conv2d_backward`].
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// Gradient w.r.t. the input, `[N, C, H, W]`.
    pub input: Tensor,
    /// Gradient w.r.t. the weight, `[O, C, kh, kw]`.
    pub weight: Tensor,
    /// Gradient w.r.t. the bias, `[O]`.
    pub bias: Tensor,
}

/// 2-D convolution backward pass.
///
/// Given the forward operands and the gradient of the loss w.r.t. the
/// convolution output, computes gradients w.r.t. input, weight and bias.
///
/// # Errors
///
/// Returns an error if shapes are inconsistent with a forward call of the
/// same geometry.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    geom: ConvGeometry,
) -> Result<Conv2dGrads> {
    conv2d_backward_with(Pool::global(), input, weight, grad_out, geom)
}

/// [`conv2d_backward`] on an explicit pool.
///
/// Two parallel passes:
///
/// 1. **Per sample**: the input gradient `col2im(Wᵀ·g_s)`.
/// 2. **Per panel of `NR` im2col rows**: the panel of every sample is
///    gathered into sample-major `NR`-wide columns (through one index
///    table per call), and [`simd::fold_dots`] folds the batch into that
///    panel's slice of the weight gradient, one 2-channel × 8-column tile
///    at a time. The bias sums are shared out over the same items.
///
/// Every weight-gradient element is `((0 + d_0) + d_1) + … + d_{n-1}`,
/// with `d_s` the [`simd::dot`] of row `oc` of `g_s` and row `r` of
/// sample `s`'s im2col matrix, and every bias element is
/// `((0 + Σ_0) + Σ_1) + …` over the in-order row sums — the per-sample
/// `g_s · colᵀ` products added up in ascending sample order. The work
/// partition only decides which thread computes an element, never its
/// operations, so the gradients are bit-for-bit identical for every pool
/// and SIMD level. A panel item folds the batch in chunks of whole
/// samples so its gathered columns stay under a fixed 128 KiB; a running
/// total carried across chunks keeps the same ascending order.
///
/// # Errors
///
/// Same contract as [`conv2d_backward`].
pub fn conv2d_backward_with(
    pool: &Pool,
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    geom: ConvGeometry,
) -> Result<Conv2dGrads> {
    check_rank4("conv2d_backward input", input)?;
    check_rank4("conv2d_backward weight", weight)?;
    check_rank4("conv2d_backward grad", grad_out)?;
    let (n, c, h, w) = dims4(input);
    let (o, _ci, kh, kw) = dims4(weight);
    let ho = geom.output_extent(h, kh)?;
    let wo = geom.output_extent(w, kw)?;
    if grad_out.dims() != [n, o, ho, wo] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward",
            lhs: vec![n, o, ho, wo],
            rhs: grad_out.dims().to_vec(),
        });
    }
    let low = Lowering {
        c,
        h,
        w,
        kh,
        kw,
        geom,
        ho,
        wo,
    };

    let ckk = c * kh * kw;
    let howo = ho * wo;
    let csize = c * h * w;
    let osize = o * howo;
    let mut wmat_t = vec![0.0f32; o * ckk];
    linalg::transpose_into(weight.as_slice(), &mut wmat_t, o, ckk);
    let wmat_t = &wmat_t;
    let iv = input.as_slice();
    let gv = grad_out.as_slice();

    let mut grad_in = vec![0.0f32; n * csize];
    let serial = Pool::serial();
    let (outer, inner) = if n >= pool.threads() {
        (pool, &serial)
    } else {
        (&serial, pool)
    };
    par::for_each_chunk(
        outer,
        &mut grad_in,
        csize.max(1),
        || vec![0.0f32; ckk * howo],
        |dcol, s, gin| {
            let g_s = &gv[s * osize..(s + 1) * osize];
            linalg::matmul_into(inner, wmat_t, g_s, dcol, ckk, o, howo);
            low.col2im(dcol, gin);
        },
    );

    // dW, one `NR`-row im2col panel per work item, kept as that panel's
    // `[O][NR]` slab of dWᵀ until the end.
    let panels = ckk.div_ceil(NR);
    let panel_len = howo * NR;
    let taps = &low.panel_taps();
    let chunk = (PANEL_BUDGET / panel_len.max(1)).clamp(1, n.max(1));
    let mut slabs = vec![[0.0f32; NR]; panels * o];
    // The bias sums ride along, a share of the channels per item.
    let mut grad_b = vec![0.0f32; o];
    let bias_rows = o.div_ceil(panels.max(1)).max(1);
    let mut bias = grad_b.chunks_mut(bias_rows);
    let items: Vec<(&mut [[f32; NR]], &mut [f32])> = slabs
        .chunks_mut(o.max(1))
        .map(|slab| (slab, bias.next().unwrap_or_default()))
        .collect();
    par::for_each_item(
        pool,
        items,
        || vec![0.0f32; chunk.min(n) * panel_len],
        |cols, p, (slab, db)| {
            for (oc, gb) in (p * bias_rows..).zip(db.iter_mut()) {
                for g_s in gv.chunks_exact(osize) {
                    *gb += g_s[oc * howo..(oc + 1) * howo].iter().sum::<f32>();
                }
            }
            let taps = &taps[p * panel_len..(p + 1) * panel_len];
            for s0 in (0..n).step_by(chunk) {
                let m = chunk.min(n - s0);
                for (s, col) in (s0..).zip(cols.chunks_exact_mut(panel_len).take(m)) {
                    let img = &iv[s * csize..(s + 1) * csize];
                    for (d, &t) in col.iter_mut().zip(taps) {
                        *d = img.get(t as usize).copied().unwrap_or(0.0);
                    }
                }
                for (oc, tile) in (0..).step_by(FOLD_ROWS).zip(slab.chunks_mut(FOLD_ROWS)) {
                    let a = &gv[s0 * osize + oc * howo..];
                    simd::fold_dots(a, osize, cols, panel_len, howo, m, tile);
                }
            }
        },
    );
    let mut grad_w = vec![0.0f32; o * ckk];
    for (p, slab) in slabs.chunks_exact(o.max(1)).enumerate() {
        let lanes = NR.min(ckk - p * NR);
        for (row, tile) in grad_w.chunks_exact_mut(ckk).zip(slab) {
            row[p * NR..p * NR + lanes].copy_from_slice(&tile[..lanes]);
        }
    }

    Ok(Conv2dGrads {
        input: Tensor::from_vec(grad_in, &[n, c, h, w])?,
        weight: Tensor::from_vec(grad_w, &[o, c, kh, kw])?,
        bias: Tensor::from_vec(grad_b, &[o])?,
    })
}

/// Output of [`max_pool2d`]: the pooled tensor plus the linear index (into
/// the flattened input) of every selected maximum, which
/// [`max_pool2d_backward`] uses to route gradients.
#[derive(Debug, Clone)]
pub struct MaxPoolOutput {
    /// Pooled activations, `[N, C, Ho, Wo]`.
    pub output: Tensor,
    /// For each output element, the flat input index of its source maximum.
    pub argmax: Vec<usize>,
}

/// 2-D max pooling with a square `k`×`k` window.
///
/// # Errors
///
/// Returns an error for non-rank-4 inputs or infeasible geometry.
pub fn max_pool2d(input: &Tensor, k: usize, geom: ConvGeometry) -> Result<MaxPoolOutput> {
    max_pool2d_with(Pool::global(), input, k, geom)
}

/// [`max_pool2d`] on an explicit pool.
///
/// Pooling planes (one per sample×channel) are independent, so they are
/// distributed over the pool; the max scan within a window is a fixed
/// serial order, making the result (including argmax ties) identical for
/// every thread count.
///
/// # Errors
///
/// Same contract as [`max_pool2d`].
pub fn max_pool2d_with(
    pool: &Pool,
    input: &Tensor,
    k: usize,
    geom: ConvGeometry,
) -> Result<MaxPoolOutput> {
    check_rank4("max_pool2d", input)?;
    let (n, c, h, w) = dims4(input);
    let ho = geom.output_extent(h, k)?;
    let wo = geom.output_extent(w, k)?;
    let pad = geom.padding as isize;
    let iv = input.as_slice();
    let mut out = vec![0.0f32; n * c * ho * wo];
    let mut argmax = vec![0usize; n * c * ho * wo];
    let planes: Vec<(&mut [f32], &mut [usize])> = out
        .chunks_mut(ho * wo)
        .zip(argmax.chunks_mut(ho * wo))
        .collect();
    par::for_each_item(
        pool,
        planes,
        || (),
        |(), plane, (ov, av)| {
            let base = plane * h * w;
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = base;
                    for ky in 0..k {
                        let iy = (oy * geom.stride) as isize + ky as isize - pad;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = (ox * geom.stride) as isize + kx as isize - pad;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let idx = base + iy as usize * w + ix as usize;
                            if iv[idx] > best {
                                best = iv[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    let o_idx = oy * wo + ox;
                    ov[o_idx] = best;
                    av[o_idx] = best_idx;
                }
            }
        },
    );
    Ok(MaxPoolOutput {
        output: Tensor::from_vec(out, &[n, c, ho, wo])?,
        argmax,
    })
}

/// Backward pass of [`max_pool2d`]: routes each output gradient to the
/// input position that produced the maximum.
///
/// # Errors
///
/// Returns an error if `grad_out` volume disagrees with `argmax` length.
pub fn max_pool2d_backward(
    grad_out: &Tensor,
    argmax: &[usize],
    input_dims: &[usize],
) -> Result<Tensor> {
    if grad_out.len() != argmax.len() {
        return Err(TensorError::LengthMismatch {
            expected: argmax.len(),
            actual: grad_out.len(),
        });
    }
    let mut grad_in = Tensor::zeros(input_dims);
    let gi = grad_in.as_mut_slice();
    for (&g, &idx) in grad_out.as_slice().iter().zip(argmax.iter()) {
        gi[idx] += g;
    }
    Ok(grad_in)
}

/// Global average pooling: `[N, C, H, W] -> [N, C]`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-rank-4 inputs.
pub fn global_avg_pool(input: &Tensor) -> Result<Tensor> {
    check_rank4("global_avg_pool", input)?;
    let (n, c, h, w) = dims4(input);
    let area = (h * w) as f32;
    let iv = input.as_slice();
    let mut out = vec![0.0f32; n * c];
    for (i, o) in out.iter_mut().enumerate() {
        *o = iv[i * h * w..(i + 1) * h * w].iter().sum::<f32>() / area;
    }
    Tensor::from_vec(out, &[n, c])
}

/// Backward pass of [`global_avg_pool`]: spreads each channel gradient
/// uniformly over the spatial extent.
///
/// # Errors
///
/// Returns an error if `grad_out` is not `[N, C]` for the given input dims.
pub fn global_avg_pool_backward(grad_out: &Tensor, input_dims: &[usize]) -> Result<Tensor> {
    if input_dims.len() != 4 {
        return Err(TensorError::RankMismatch {
            op: "global_avg_pool_backward",
            expected: 4,
            actual: input_dims.len(),
        });
    }
    let (n, c, h, w) = (input_dims[0], input_dims[1], input_dims[2], input_dims[3]);
    if grad_out.dims() != [n, c] {
        return Err(TensorError::ShapeMismatch {
            op: "global_avg_pool_backward",
            lhs: vec![n, c],
            rhs: grad_out.dims().to_vec(),
        });
    }
    let inv_area = 1.0 / (h * w) as f32;
    let mut grad_in = vec![0.0f32; n * c * h * w];
    for (i, &g) in grad_out.as_slice().iter().enumerate() {
        let v = g * inv_area;
        for x in &mut grad_in[i * h * w..(i + 1) * h * w] {
            *x = v;
        }
    }
    Tensor::from_vec(grad_in, input_dims)
}

fn dims4(t: &Tensor) -> (usize, usize, usize, usize) {
    let d = t.dims();
    (d[0], d[1], d[2], d[3])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive direct convolution used as the reference implementation.
    fn naive_conv2d(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        geom: ConvGeometry,
    ) -> Tensor {
        let (n, c, h, w) = dims4(input);
        let (o, _, kh, kw) = dims4(weight);
        let ho = geom.output_extent(h, kh).unwrap();
        let wo = geom.output_extent(w, kw).unwrap();
        let mut out = Tensor::zeros(&[n, o, ho, wo]);
        for s in 0..n {
            for oc in 0..o {
                for oy in 0..ho {
                    for ox in 0..wo {
                        let mut acc = bias.map_or(0.0, |b| b.as_slice()[oc]);
                        for ch in 0..c {
                            for ky in 0..kh {
                                for kx in 0..kw {
                                    let iy =
                                        (oy * geom.stride + ky) as isize - geom.padding as isize;
                                    let ix =
                                        (ox * geom.stride + kx) as isize - geom.padding as isize;
                                    if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                        acc += input.at(&[s, ch, iy as usize, ix as usize])
                                            * weight.at(&[oc, ch, ky, kx]);
                                    }
                                }
                            }
                        }
                        out.set(&[s, oc, oy, ox], acc);
                    }
                }
            }
        }
        out
    }

    fn random_tensor(dims: &[usize], seed: u64) -> Tensor {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n: usize = dims.iter().product();
        Tensor::from_vec((0..n).map(|_| rng.random_range(-1.0..1.0)).collect(), dims).unwrap()
    }

    #[test]
    fn geometry_output_extent() {
        let g = ConvGeometry::new(2, 1);
        assert_eq!(g.output_extent(8, 3).unwrap(), 4);
        assert!(ConvGeometry::new(0, 0).output_extent(8, 3).is_err());
        assert!(ConvGeometry::new(1, 0).output_extent(2, 5).is_err());
    }

    #[test]
    fn conv2d_matches_naive_various_geometries() {
        for (stride, padding, seed) in [(1, 0, 1u64), (1, 1, 2), (2, 1, 3), (2, 0, 4)] {
            let geom = ConvGeometry::new(stride, padding);
            let input = random_tensor(&[2, 3, 7, 6], seed);
            let weight = random_tensor(&[4, 3, 3, 3], seed + 100);
            let bias = random_tensor(&[4], seed + 200);
            let fast = conv2d(&input, &weight, Some(&bias), geom).unwrap();
            let slow = naive_conv2d(&input, &weight, Some(&bias), geom);
            assert_eq!(fast.dims(), slow.dims());
            for (a, b) in fast.as_slice().iter().zip(slow.as_slice()) {
                assert!((a - b).abs() < 1e-4, "stride={stride} pad={padding}");
            }
        }
    }

    #[test]
    fn conv2d_rejects_channel_mismatch() {
        let input = Tensor::zeros(&[1, 3, 4, 4]);
        let weight = Tensor::zeros(&[2, 4, 3, 3]);
        assert!(conv2d(&input, &weight, None, ConvGeometry::unit()).is_err());
    }

    #[test]
    fn conv2d_backward_weight_matches_finite_difference() {
        let geom = ConvGeometry::new(1, 1);
        let input = random_tensor(&[1, 2, 5, 5], 11);
        let mut weight = random_tensor(&[3, 2, 3, 3], 12);
        let out = conv2d(&input, &weight, None, geom).unwrap();
        // Loss = sum of outputs => grad_out = ones.
        let grad_out = Tensor::ones(out.dims());
        let grads = conv2d_backward(&input, &weight, &grad_out, geom).unwrap();
        let eps = 1e-2;
        for probe in [0usize, 7, 17, weight.len() - 1] {
            let orig = weight.as_slice()[probe];
            weight.as_mut_slice()[probe] = orig + eps;
            let hi = conv2d(&input, &weight, None, geom).unwrap().sum();
            weight.as_mut_slice()[probe] = orig - eps;
            let lo = conv2d(&input, &weight, None, geom).unwrap().sum();
            weight.as_mut_slice()[probe] = orig;
            let fd = (hi - lo) / (2.0 * eps);
            let an = grads.weight.as_slice()[probe];
            assert!((fd - an).abs() < 1e-2, "probe {probe}: fd={fd} an={an}");
        }
    }

    #[test]
    fn conv2d_backward_input_matches_finite_difference() {
        let geom = ConvGeometry::new(2, 1);
        let mut input = random_tensor(&[1, 2, 6, 6], 21);
        let weight = random_tensor(&[2, 2, 3, 3], 22);
        let out = conv2d(&input, &weight, None, geom).unwrap();
        let grad_out = Tensor::ones(out.dims());
        let grads = conv2d_backward(&input, &weight, &grad_out, geom).unwrap();
        let eps = 1e-2;
        for probe in [0usize, 13, 40, input.len() - 1] {
            let orig = input.as_slice()[probe];
            input.as_mut_slice()[probe] = orig + eps;
            let hi = conv2d(&input, &weight, None, geom).unwrap().sum();
            input.as_mut_slice()[probe] = orig - eps;
            let lo = conv2d(&input, &weight, None, geom).unwrap().sum();
            input.as_mut_slice()[probe] = orig;
            let fd = (hi - lo) / (2.0 * eps);
            let an = grads.input.as_slice()[probe];
            assert!((fd - an).abs() < 1e-2, "probe {probe}: fd={fd} an={an}");
        }
    }

    #[test]
    fn conv2d_backward_bias_is_grad_sum() {
        let geom = ConvGeometry::unit();
        let input = random_tensor(&[2, 1, 4, 4], 31);
        let weight = random_tensor(&[2, 1, 2, 2], 32);
        let out = conv2d(&input, &weight, None, geom).unwrap();
        let grad_out = Tensor::ones(out.dims());
        let grads = conv2d_backward(&input, &weight, &grad_out, geom).unwrap();
        let per_channel = (out.len() / 2) as f32;
        for &g in grads.bias.as_slice() {
            assert!((g - per_channel).abs() < 1e-4);
        }
    }

    #[test]
    fn max_pool_selects_maxima_and_routes_gradients() {
        let input = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                -1.0, -2.0, 0.5, 0.25, //
                -3.0, -4.0, 0.75, 0.125,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let pooled = max_pool2d(&input, 2, ConvGeometry::new(2, 0)).unwrap();
        assert_eq!(pooled.output.as_slice(), &[4.0, 8.0, -1.0, 0.75]);
        let grad_out = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let grad_in = max_pool2d_backward(&grad_out, &pooled.argmax, input.dims()).unwrap();
        assert_eq!(grad_in.at(&[0, 0, 1, 1]), 1.0);
        assert_eq!(grad_in.at(&[0, 0, 1, 3]), 2.0);
        assert_eq!(grad_in.at(&[0, 0, 2, 0]), 3.0);
        assert_eq!(grad_in.at(&[0, 0, 3, 2]), 4.0);
        assert_eq!(grad_in.sum(), 10.0);
    }

    #[test]
    fn global_avg_pool_round_trip() {
        let input = random_tensor(&[2, 3, 4, 4], 41);
        let out = global_avg_pool(&input).unwrap();
        assert_eq!(out.dims(), &[2, 3]);
        let manual: f32 = input.as_slice()[..16].iter().sum::<f32>() / 16.0;
        assert!((out.as_slice()[0] - manual).abs() < 1e-5);

        let grad = global_avg_pool_backward(&out, input.dims()).unwrap();
        assert_eq!(grad.dims(), input.dims());
        // Each spatial cell receives channel_grad / area.
        assert!((grad.at(&[0, 0, 0, 0]) - out.as_slice()[0] / 16.0).abs() < 1e-6);
    }

    #[test]
    fn conv2d_pools_agree_bitwise() {
        let geom = ConvGeometry::new(1, 1);
        let input = random_tensor(&[5, 3, 9, 7], 51);
        let weight = random_tensor(&[4, 3, 3, 3], 52);
        let bias = random_tensor(&[4], 53);
        let grad_seed = random_tensor(&[5, 4, 9, 7], 54);
        let serial = Pool::serial();
        let fwd_ref = conv2d_with(&serial, &input, &weight, Some(&bias), geom).unwrap();
        let bwd_ref = conv2d_backward_with(&serial, &input, &weight, &grad_seed, geom).unwrap();
        for threads in [2, 3, 8] {
            let pool = Pool::with_threads(threads);
            let fwd = conv2d_with(&pool, &input, &weight, Some(&bias), geom).unwrap();
            assert!(
                fwd.as_slice()
                    .iter()
                    .zip(fwd_ref.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "fwd threads={threads}"
            );
            let bwd = conv2d_backward_with(&pool, &input, &weight, &grad_seed, geom).unwrap();
            for (got, want) in [
                (&bwd.input, &bwd_ref.input),
                (&bwd.weight, &bwd_ref.weight),
                (&bwd.bias, &bwd_ref.bias),
            ] {
                assert!(
                    got.as_slice()
                        .iter()
                        .zip(want.as_slice())
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "bwd threads={threads}"
                );
            }
        }
    }

    #[test]
    fn pool_backward_length_checked() {
        let grad_out = Tensor::zeros(&[1, 1, 2, 2]);
        assert!(max_pool2d_backward(&grad_out, &[0, 1], &[1, 1, 4, 4]).is_err());
    }
}
