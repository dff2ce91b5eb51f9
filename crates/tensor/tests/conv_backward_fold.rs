//! The batch-folded conv backward against a per-sample reference.
//!
//! `conv2d_backward_with` folds the weight gradient over the batch in one
//! lane-parallel kernel. Its contract is that every gradient keeps the
//! bits of the textbook per-sample formulation kept here in the test:
//!
//! * `dW = ((0 + g_0·col_0ᵀ) + g_1·col_1ᵀ) + …`, each product a
//!   `matmul_b_t` (one `dot` per element), added in ascending sample
//!   order;
//! * `db[oc] = ((0 + Σ g_0[oc, :]) + Σ g_1[oc, :]) + …`, in-order row sums;
//! * `dInput_s = col2im(Wᵀ · g_s)`.
//!
//! Shapes cover panel tails (`C·kh·kw % 8 ≠ 0`, e.g. the 27-wide RGB
//! stem), dot tails (`Ho·Wo % 4 ≠ 0`), odd output-channel counts,
//! `n = 1` and `n` below the pool width, and a batch large enough to be
//! folded in several chunks — at every SIMD level the host has, on pools
//! of 1, 2, 3 and 8 threads.

use proptest::prelude::*;
use qce_tensor::conv::{conv2d_backward_with, ConvGeometry};
use qce_tensor::linalg::{matmul_b_t_with, matmul_with, transpose};
use qce_tensor::par::Pool;
use qce_tensor::simd::{self, Level};
use qce_tensor::Tensor;

const THREADS: [usize; 4] = [1, 2, 3, 8];

/// The dispatch level is process-global; tests that flip it take turns.
static LEVEL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// `QCE_SIMD=off` and `auto`: scalar, then the best detected level.
fn levels() -> Vec<Level> {
    let mut out = vec![Level::Scalar];
    if simd::detect() != Level::Scalar {
        out.push(simd::detect());
    }
    out
}

fn seeded(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = qce_tensor::init::seeded_rng(seed);
    qce_tensor::init::uniform(dims, -2.0, 2.0, &mut rng)
}

/// One convolution's shapes.
#[derive(Debug, Clone, Copy)]
struct Shape {
    n: usize,
    c: usize,
    o: usize,
    h: usize,
    w: usize,
    k: usize,
    geom: ConvGeometry,
}

impl Shape {
    fn out_extent(&self) -> (usize, usize) {
        (
            self.geom.output_extent(self.h, self.k).unwrap(),
            self.geom.output_extent(self.w, self.k).unwrap(),
        )
    }

    /// Input pixel `(ch, iy, ix)` that column `(oy, ox)` of im2col row
    /// `(ch, ky, kx)` reads, or `None` in the padding.
    fn tap(&self, ky: usize, kx: usize, oy: usize, ox: usize) -> Option<(usize, usize)> {
        let pad = self.geom.padding as isize;
        let iy = (oy * self.geom.stride + ky) as isize - pad;
        let ix = (ox * self.geom.stride + kx) as isize - pad;
        (iy >= 0 && iy < self.h as isize && ix >= 0 && ix < self.w as isize)
            .then_some((iy as usize, ix as usize))
    }

    /// Naive im2col of one `[C, H, W]` image: `[C·k·k, Ho·Wo]`.
    fn im2col(&self, img: &[f32]) -> Vec<f32> {
        let (ho, wo) = self.out_extent();
        let mut col = Vec::with_capacity(self.c * self.k * self.k * ho * wo);
        for ch in 0..self.c {
            for ky in 0..self.k {
                for kx in 0..self.k {
                    for oy in 0..ho {
                        for ox in 0..wo {
                            col.push(
                                self.tap(ky, kx, oy, ox)
                                    .map_or(0.0, |(iy, ix)| img[(ch * self.h + iy) * self.w + ix]),
                            );
                        }
                    }
                }
            }
        }
        col
    }

    /// Naive col2im scatter-add, rows then positions in ascending order.
    fn col2im(&self, col: &[f32], img: &mut [f32]) {
        let (ho, wo) = self.out_extent();
        let mut it = col.iter();
        for ch in 0..self.c {
            for ky in 0..self.k {
                for kx in 0..self.k {
                    for oy in 0..ho {
                        for ox in 0..wo {
                            let v = *it.next().unwrap();
                            if let Some((iy, ix)) = self.tap(ky, kx, oy, ox) {
                                img[(ch * self.h + iy) * self.w + ix] += v;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Per-sample reference gradients `(input, weight, bias)`.
fn reference(
    shape: Shape,
    input: &Tensor,
    weight: &Tensor,
    grad: &Tensor,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let serial = Pool::serial();
    let Shape {
        n, c, o, h, w, k, ..
    } = shape;
    let (ho, wo) = shape.out_extent();
    let (ckk, howo, csize) = (c * k * k, ho * wo, c * h * w);
    let w_t = transpose(&weight.reshape(&[o, ckk]).unwrap()).unwrap();
    let mut gi = vec![0.0f32; n * csize];
    let mut gw = vec![0.0f32; o * ckk];
    let mut gb = vec![0.0f32; o];
    for s in 0..n {
        let img = &input.as_slice()[s * csize..(s + 1) * csize];
        let col = Tensor::from_vec(shape.im2col(img), &[ckk, howo]).unwrap();
        let g_s = &grad.as_slice()[s * o * howo..(s + 1) * o * howo];
        let g_s = Tensor::from_vec(g_s.to_vec(), &[o, howo]).unwrap();
        let dw = matmul_b_t_with(&serial, &g_s, &col).unwrap();
        for (acc, &d) in gw.iter_mut().zip(dw.as_slice()) {
            *acc += d;
        }
        for (acc, row) in gb.iter_mut().zip(g_s.as_slice().chunks_exact(howo)) {
            *acc += row.iter().sum::<f32>();
        }
        let dcol = matmul_with(&serial, &w_t, &g_s).unwrap();
        shape.col2im(dcol.as_slice(), &mut gi[s * csize..(s + 1) * csize]);
    }
    (gi, gw, gb)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Checks `conv2d_backward_with` against [`reference`] at every level and
/// pool width.
fn check(shape: Shape, seed: u64) -> Result<(), String> {
    let (ho, wo) = shape.out_extent();
    let input = seeded(&[shape.n, shape.c, shape.h, shape.w], seed);
    let weight = seeded(&[shape.o, shape.c, shape.k, shape.k], seed ^ 0x77);
    let grad = seeded(&[shape.n, shape.o, ho, wo], seed ^ 0x99);
    let _guard = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = simd::set_active(Level::Scalar);
    let (gi, gw, gb) = reference(shape, &input, &weight, &grad);
    let want = [bits(&gi), bits(&gw), bits(&gb)];
    let mut result = Ok(());
    'levels: for level in levels() {
        simd::set_active(level);
        for threads in THREADS {
            let pool = Pool::with_threads(threads);
            let got = conv2d_backward_with(&pool, &input, &weight, &grad, shape.geom).unwrap();
            let got = [
                bits(got.input.as_slice()),
                bits(got.weight.as_slice()),
                bits(got.bias.as_slice()),
            ];
            for (name, g, w) in [
                ("input", &got[0], &want[0]),
                ("weight", &got[1], &want[1]),
                ("bias", &got[2], &want[2]),
            ] {
                if g != w {
                    result = Err(format!(
                        "{shape:?}: {name} gradient diverged at level={} threads={threads}",
                        level.name()
                    ));
                    break 'levels;
                }
            }
        }
    }
    simd::set_active(prev);
    result
}

#[test]
fn network_shapes_match_the_per_sample_reference() {
    // The paper-flow network's conv shapes at a reduced batch, plus a
    // batch whose gathered panel exceeds one chunk (256 positions × 8
    // lanes: 16 samples per chunk, so 20 samples fold in two).
    for (n, c, o, h, k, stride, padding) in [
        (3, 3, 12, 16, 3, 1, 1),
        (2, 12, 24, 16, 3, 2, 1),
        (2, 12, 24, 16, 1, 2, 0),
        (3, 24, 24, 8, 3, 1, 1),
        (2, 24, 48, 8, 3, 2, 1),
        (5, 48, 48, 4, 3, 1, 1),
        (20, 3, 5, 16, 3, 1, 1),
    ] {
        let shape = Shape {
            n,
            c,
            o,
            h,
            w: h,
            k,
            geom: ConvGeometry::new(stride, padding),
        };
        check(shape, (n * 1000 + c * 10 + o) as u64).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // n in 1..6 crosses n = 1 and n below every pool width but 1; c·k·k
    // and Ho·Wo take every remainder class mod 8 and mod 4; o is odd
    // half the time (a one-row fold tile).
    #[test]
    fn batch_fold_matches_the_per_sample_reference(
        n in 1usize..6,
        c in 1usize..5,
        o in 1usize..6,
        h in 2usize..10,
        w in 2usize..10,
        k in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..2,
        seed in 0u64..1000,
    ) {
        let geom = ConvGeometry::new(stride, padding);
        prop_assume!(k <= h + 2 * padding && k <= w + 2 * padding);
        let shape = Shape { n, c, o, h, w, k, geom };
        check(shape, seed).map_err(TestCaseError::Fail)?;
    }
}
