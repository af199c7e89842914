//! Layer primitives: convolution, linear, activations, pooling.

use crate::Tensor;

/// An im2col patch matrix: each column is one flattened receptive
/// field, each row one `(in_channel, ky, kx)` weight position.
///
/// Produced by [`im2col`]; generic over the element type so quantized
/// (`u8`) inference can reuse the lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Patches<T> {
    /// `rows × cols`, row-major.
    pub data: Vec<T>,
    /// `in_channels * kh * kw`.
    pub rows: usize,
    /// `out_h * out_w`.
    pub cols: usize,
    /// Output spatial height.
    pub out_h: usize,
    /// Output spatial width.
    pub out_w: usize,
}

/// Lowers a CHW image to an im2col patch matrix for a `kh × kw`
/// convolution with the given stride and zero padding.
///
/// `get` reads element `(c, y, x)` of the image; out-of-bounds reads
/// (from padding) receive `zero`.
///
/// # Panics
///
/// Panics if the kernel does not fit the padded image or `stride == 0`.
#[allow(clippy::too_many_arguments)] // mirrors the standard im2col signature
pub fn im2col<T: Copy>(
    channels: usize,
    height: usize,
    width: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    zero: T,
    get: impl Fn(usize, usize, usize) -> T,
) -> Patches<T> {
    assert!(stride > 0, "stride must be positive");
    assert!(
        height + 2 * pad >= kh && width + 2 * pad >= kw,
        "kernel {kh}x{kw} larger than padded input {height}x{width} (+{pad})"
    );
    let out_h = (height + 2 * pad - kh) / stride + 1;
    let out_w = (width + 2 * pad - kw) / stride + 1;
    let rows = channels * kh * kw;
    let cols = out_h * out_w;
    let mut data = vec![zero; rows * cols];
    let mut row = 0;
    for c in 0..channels {
        for ky in 0..kh {
            for kx in 0..kw {
                let base = row * cols;
                for oy in 0..out_h {
                    let iy = oy * stride + ky;
                    if iy < pad || iy >= height + pad {
                        continue; // stays zero
                    }
                    let iy = iy - pad;
                    for ox in 0..out_w {
                        let ix = ox * stride + kx;
                        if ix < pad || ix >= width + pad {
                            continue;
                        }
                        data[base + oy * out_w + ox] = get(c, iy, ix - pad);
                    }
                }
                row += 1;
            }
        }
    }
    Patches {
        data,
        rows,
        cols,
        out_h,
        out_w,
    }
}

/// 2-D convolution: input `[C, H, W]`, weights `[O, C, KH, KW]`,
/// per-output-channel bias, zero padding `pad`, square stride.
///
/// # Panics
///
/// Panics on rank/shape mismatches.
#[must_use]
pub fn conv2d(input: &Tensor, weights: &Tensor, bias: &[f32], stride: usize, pad: usize) -> Tensor {
    let [c, h, w] = shape3(input, "conv2d input");
    let wshape = weights.shape();
    assert_eq!(wshape.len(), 4, "conv2d weights must be OIHW");
    let (oc, ic, kh, kw) = (wshape[0], wshape[1], wshape[2], wshape[3]);
    assert_eq!(ic, c, "in-channel mismatch: weights {ic}, input {c}");
    assert_eq!(bias.len(), oc, "bias length mismatch");

    let img = input.data();
    let patches = im2col(c, h, w, kh, kw, stride, pad, 0.0f32, |cc, yy, xx| {
        img[(cc * h + yy) * w + xx]
    });
    let wdata = weights.data();
    let mut out = vec![0.0f32; oc * patches.cols];
    for o in 0..oc {
        let wrow = &wdata[o * patches.rows..(o + 1) * patches.rows];
        let orow = &mut out[o * patches.cols..(o + 1) * patches.cols];
        orow.fill(bias[o]);
        for (r, &wv) in wrow.iter().enumerate() {
            if wv == 0.0 {
                continue;
            }
            let prow = &patches.data[r * patches.cols..(r + 1) * patches.cols];
            for (ov, &pv) in orow.iter_mut().zip(prow) {
                *ov += wv * pv;
            }
        }
    }
    Tensor::from_vec(&[oc, patches.out_h, patches.out_w], out)
}

/// Fully-connected layer: input `[F]` (or any shape of volume `F`),
/// weights `[O, F]`, bias `[O]`.
///
/// # Panics
///
/// Panics on shape mismatches.
#[must_use]
pub fn linear(input: &Tensor, weights: &Tensor, bias: &[f32]) -> Tensor {
    let wshape = weights.shape();
    assert_eq!(wshape.len(), 2, "linear weights must be 2-D");
    let (o, f) = (wshape[0], wshape[1]);
    assert_eq!(input.len(), f, "feature count mismatch");
    assert_eq!(bias.len(), o, "bias length mismatch");
    let x = input.data();
    let wdata = weights.data();
    let mut out = Vec::with_capacity(o);
    for row in 0..o {
        let wrow = &wdata[row * f..(row + 1) * f];
        let dot: f32 = wrow.iter().zip(x).map(|(&a, &b)| a * b).sum();
        out.push(dot + bias[row]);
    }
    Tensor::from_vec(&[o], out)
}

/// Rectified linear unit, returning a new tensor.
#[must_use]
pub fn relu(input: &Tensor) -> Tensor {
    input.map(|v| v.max(0.0))
}

/// Rectified linear unit, in place.
pub fn relu_in_place(input: &mut Tensor) {
    for v in input.data_mut() {
        *v = v.max(0.0);
    }
}

/// 2-D max pooling with square window and stride (no padding).
///
/// # Panics
///
/// Panics if the window does not fit the input.
#[must_use]
pub fn max_pool2d(input: &Tensor, window: usize, stride: usize) -> Tensor {
    let [c, h, w] = shape3(input, "max_pool2d input");
    assert!(
        window > 0 && stride > 0,
        "window and stride must be positive"
    );
    assert!(h >= window && w >= window, "window larger than input");
    let out_h = (h - window) / stride + 1;
    let out_w = (w - window) / stride + 1;
    let data = input.data();
    let mut out = Vec::with_capacity(c * out_h * out_w);
    for cc in 0..c {
        for oy in 0..out_h {
            for ox in 0..out_w {
                let mut best = f32::NEG_INFINITY;
                for ky in 0..window {
                    for kx in 0..window {
                        let v = data[(cc * h + oy * stride + ky) * w + ox * stride + kx];
                        best = best.max(v);
                    }
                }
                out.push(best);
            }
        }
    }
    Tensor::from_vec(&[c, out_h, out_w], out)
}

/// Global average pooling: `[C, H, W]` → `[C]`.
///
/// # Panics
///
/// Panics if the input is not rank 3.
#[must_use]
pub fn global_avg_pool(input: &Tensor) -> Tensor {
    let [c, h, w] = shape3(input, "global_avg_pool input");
    let data = input.data();
    let hw = (h * w) as f32;
    let out: Vec<f32> = (0..c)
        .map(|cc| data[cc * h * w..(cc + 1) * h * w].iter().sum::<f32>() / hw)
        .collect();
    Tensor::from_vec(&[c], out)
}

/// Numerically-stable softmax over a rank-1 tensor.
///
/// # Panics
///
/// Panics if the input is not rank 1.
#[must_use]
pub fn softmax(input: &Tensor) -> Tensor {
    assert_eq!(input.shape().len(), 1, "softmax expects a vector");
    let max = input
        .data()
        .iter()
        .copied()
        .fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = input.data().iter().map(|&v| (v - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    Tensor::from_vec(input.shape(), exps.into_iter().map(|v| v / sum).collect())
}

/// Index of the maximum element (first on ties).
///
/// # Panics
///
/// Panics if the tensor is empty.
#[must_use]
pub fn argmax(input: &Tensor) -> usize {
    let data = input.data();
    assert!(!data.is_empty(), "argmax of empty tensor");
    let mut best = 0;
    for (i, &v) in data.iter().enumerate().skip(1) {
        if v > data[best] {
            best = i;
        }
    }
    best
}

fn shape3(t: &Tensor, what: &str) -> [usize; 3] {
    let s = t.shape();
    assert_eq!(s.len(), 3, "{what} must be CHW, got {s:?}");
    [s[0], s[1], s[2]]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct (no im2col) convolution reference for cross-checking.
    fn conv2d_naive(
        input: &Tensor,
        weights: &Tensor,
        bias: &[f32],
        stride: usize,
        pad: usize,
    ) -> Tensor {
        let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let (oc, _, kh, kw) = (
            weights.shape()[0],
            weights.shape()[1],
            weights.shape()[2],
            weights.shape()[3],
        );
        let out_h = (h + 2 * pad - kh) / stride + 1;
        let out_w = (w + 2 * pad - kw) / stride + 1;
        let mut out = Tensor::zeros(&[oc, out_h, out_w]);
        for (o, &bias_o) in bias.iter().enumerate().take(oc) {
            for oy in 0..out_h {
                for ox in 0..out_w {
                    let mut acc = bias_o;
                    for cc in 0..c {
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let iy = (oy * stride + ky) as isize - pad as isize;
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                    continue;
                                }
                                acc += input.at(&[cc, iy as usize, ix as usize])
                                    * weights.at(&[o, cc, ky, kx]);
                            }
                        }
                    }
                    *out.at_mut(&[o, oy, ox]) = acc;
                }
            }
        }
        out
    }

    fn ramp(shape: &[usize]) -> Tensor {
        let len: usize = shape.iter().product();
        Tensor::from_vec(
            shape,
            (0..len)
                .map(|v| ((v * 7919) % 23) as f32 * 0.13 - 1.2)
                .collect(),
        )
    }

    #[test]
    fn conv_matches_naive_reference() {
        for (stride, pad) in [(1, 0), (1, 1), (2, 1), (2, 0)] {
            let input = ramp(&[3, 7, 6]);
            let weights = ramp(&[4, 3, 3, 3]);
            let bias = vec![0.3, -0.2, 0.0, 1.0];
            let fast = conv2d(&input, &weights, &bias, stride, pad);
            let slow = conv2d_naive(&input, &weights, &bias, stride, pad);
            assert_eq!(fast.shape(), slow.shape(), "stride {stride} pad {pad}");
            for (a, b) in fast.data().iter().zip(slow.data()) {
                assert!((a - b).abs() < 1e-4, "stride {stride} pad {pad}");
            }
        }
    }

    #[test]
    fn conv_identity_kernel() {
        // 1x1 identity kernel copies the channel through.
        let input = ramp(&[1, 4, 4]);
        let weights = Tensor::from_vec(&[1, 1, 1, 1], vec![1.0]);
        let out = conv2d(&input, &weights, &[0.0], 1, 0);
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn linear_computes_dot_products() {
        let x = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]);
        let w = Tensor::from_vec(&[2, 3], vec![1.0, 0.0, 0.0, 0.5, 0.5, 0.5]);
        let y = linear(&x, &w, &[0.0, 1.0]);
        assert_eq!(y.data(), &[1.0, 4.0]);
    }

    #[test]
    fn relu_clamps_negatives() {
        let t = Tensor::from_vec(&[3], vec![-1.0, 0.0, 2.0]);
        assert_eq!(relu(&t).data(), &[0.0, 0.0, 2.0]);
        let mut u = t.clone();
        relu_in_place(&mut u);
        assert_eq!(u.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn max_pool_picks_window_maxima() {
        let t = Tensor::from_vec(
            &[1, 4, 4],
            vec![
                1.0, 2.0, 3.0, 4.0, //
                5.0, 6.0, 7.0, 8.0, //
                9.0, 10.0, 11.0, 12.0, //
                13.0, 14.0, 15.0, 16.0,
            ],
        );
        let p = max_pool2d(&t, 2, 2);
        assert_eq!(p.shape(), &[1, 2, 2]);
        assert_eq!(p.data(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn global_avg_pool_averages_channels() {
        let t = Tensor::from_vec(&[2, 2, 2], vec![1.0, 1.0, 1.0, 1.0, 2.0, 4.0, 6.0, 8.0]);
        let g = global_avg_pool(&t);
        assert_eq!(g.data(), &[1.0, 5.0]);
    }

    #[test]
    fn softmax_normalizes_and_orders() {
        let t = Tensor::from_vec(&[3], vec![1.0, 3.0, 2.0]);
        let s = softmax(&t);
        assert!((s.data().iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert_eq!(argmax(&s), 1);
        // Stability: huge logits do not overflow.
        let big = Tensor::from_vec(&[2], vec![1000.0, 1001.0]);
        let sb = softmax(&big);
        assert!(sb.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn argmax_first_on_ties() {
        let t = Tensor::from_vec(&[3], vec![5.0, 5.0, 1.0]);
        assert_eq!(argmax(&t), 0);
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// im2col reconstructs exactly the receptive fields: convolving
        /// with a one-hot kernel extracts a shifted copy of the input.
        #[test]
        fn one_hot_kernel_shifts(
            h in 3usize..8,
            w in 3usize..8,
            ky in 0usize..3,
            kx in 0usize..3,
        ) {
            let len = h * w;
            let input = Tensor::from_vec(
                &[1, h, w],
                (0..len).map(|v| v as f32).collect(),
            );
            let mut kernel = vec![0.0f32; 9];
            kernel[ky * 3 + kx] = 1.0;
            let weights = Tensor::from_vec(&[1, 1, 3, 3], kernel);
            let out = conv2d(&input, &weights, &[0.0], 1, 1);
            prop_assert_eq!(out.shape(), &[1, h, w]);
            // Interior pixels: out[y][x] == input[y + ky - 1][x + kx - 1].
            for y in 1..h - 1 {
                for x in 1..w - 1 {
                    let sy = (y + ky).wrapping_sub(1);
                    let sx = (x + kx).wrapping_sub(1);
                    prop_assert_eq!(out.at(&[0, y, x]), input.at(&[0, sy, sx]));
                }
            }
        }

        /// Softmax output is a probability distribution.
        #[test]
        fn softmax_is_distribution(v in prop::collection::vec(-50.0f32..50.0, 1..16)) {
            let n = v.len();
            let s = softmax(&Tensor::from_vec(&[n], v));
            let sum: f32 = s.data().iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.data().iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }
}
