//! Quantized models and the integer inference executor.

use std::borrow::Cow;
use std::collections::BTreeMap;

use agequant_nn::{ConvLayer, Executor, LinearLayer, Model, NodeId, SyntheticDataset};
use agequant_tensor::{im2col, Tensor};
use serde::{Deserialize, Serialize};

use crate::{BitWidths, CalibContext, QuantMethod, QuantParams};

/// The hardware multiply of the MAC unit: `u8 × u8 → u32` product.
///
/// Quantized inference funnels every activation×weight product through
/// this trait, which is where `agequant-faults` injects aging-induced
/// bit flips. Implementations may use interior mutability (the flows
/// are single-threaded).
pub trait MulModel {
    /// Computes the (possibly faulty) product of two operand codes.
    fn mul(&self, activation: u8, weight: u8) -> u32;
}

/// The exact (fault-free) hardware multiply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactMul;

impl MulModel for ExactMul {
    fn mul(&self, activation: u8, weight: u8) -> u32 {
        u32::from(activation) * u32::from(weight)
    }
}

/// Configuration of the LAPQ network-level refinement pass
/// (coordinate descent on per-layer activation clip scales against the
/// FP32 logits on a calibration subset).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LapqRefineConfig {
    /// Clip-scale factors tried per layer (1.0 should be included).
    pub factors: Vec<f32>,
    /// Number of calibration images used for the descent objective.
    pub images: usize,
    /// Coordinate-descent passes over the layers.
    pub passes: usize,
}

impl LapqRefineConfig {
    /// No refinement: layer-wise Lp-optimal clipping only.
    #[must_use]
    pub fn off() -> Self {
        LapqRefineConfig {
            factors: vec![1.0],
            images: 0,
            passes: 0,
        }
    }

    /// The default light refinement used by the evaluation flows.
    #[must_use]
    pub fn light() -> Self {
        LapqRefineConfig {
            factors: vec![0.85, 1.0, 1.15],
            images: 8,
            passes: 1,
        }
    }
}

/// One quantized weighted layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct QuantLayer {
    /// Activation (input) quantization.
    pub(crate) act: QuantParams,
    /// Quantized weights, `channels` rows of `fan` codes.
    pub(crate) wq: Vec<u8>,
    /// Elements per output channel (fan-in).
    pub(crate) fan: usize,
    /// Output channels (conv) or features (linear).
    pub(crate) channels: usize,
    /// Weight parameters: one entry (per-tensor) or `channels` entries.
    pub(crate) w_params: Vec<QuantParams>,
    /// Bias codes at `16 − α − β` bits (signed, stored wide).
    pub(crate) bias_q: Vec<i64>,
    /// Per-channel power-of-two alignment of the bias in the
    /// accumulator (a free shift in hardware): the effective bias is
    /// `bias_q << bias_shift` at scale `s_a·s_w`.
    pub(crate) bias_shift: Vec<u8>,
    /// ACIQ bias correction: multiplicative weight-scale fix.
    pub(crate) scale_corr: Vec<f32>,
    /// ACIQ bias correction: additive output fix.
    pub(crate) bias_corr: Vec<f32>,
}

impl QuantLayer {
    pub(crate) fn w_param(&self, channel: usize) -> &QuantParams {
        if self.w_params.len() == 1 {
            &self.w_params[0]
        } else {
            &self.w_params[channel]
        }
    }
}

/// A post-training-quantized model: per-layer activation/weight/bias
/// parameters plus the integer inference path.
///
/// Build one with [`quantize_model`]; it implements
/// [`Executor`], so running the quantized network is
/// `model.predict_all(&quantized, images)`. Inference is true-integer:
/// `u8` codes, `i64` accumulation, affine zero-point correction, and a
/// hookable multiplier ([`QuantizedModel::with_mul`]).
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedModel {
    method: QuantMethod,
    bits: BitWidths,
    layers: BTreeMap<NodeId, QuantLayer>,
}

/// A borrowed view of one weighted layer's stored weight codes — the
/// exact bit pattern the NPU's weight memory holds for that layer.
///
/// `codes` is the row-major `channels × fan` matrix of unsigned
/// quantization codes; only the low [`BitWidths::weights`] bits of
/// each code are in use. `params` holds either one per-tensor entry or
/// `channels` per-channel entries, matching how the layer was
/// quantized. Yielded by [`QuantizedModel::weight_banks`].
#[derive(Debug, Clone, Copy)]
pub struct WeightBank<'a> {
    /// The graph node the bank feeds.
    pub node: NodeId,
    /// Weights per output channel (fan-in × kernel area).
    pub fan: usize,
    /// Output channels (rows of the code matrix).
    pub channels: usize,
    /// Row-major `channels × fan` unsigned codes.
    pub codes: &'a [u8],
    /// Per-channel (len `channels`) or per-tensor (len 1) parameters.
    pub params: &'a [QuantParams],
}

/// Quantizes `model` with `method` at the given bit widths, using
/// `calib` for activation statistics (and LAPQ's default light
/// refinement when applicable).
///
/// # Panics
///
/// Panics if `calib` is empty.
#[must_use]
pub fn quantize_model(
    model: &Model,
    method: QuantMethod,
    bits: BitWidths,
    calib: &SyntheticDataset,
) -> QuantizedModel {
    quantize_model_with(model, method, bits, calib, &LapqRefineConfig::light())
}

/// Like [`quantize_model`] with explicit LAPQ refinement control.
///
/// A one-shot use of a [`CalibContext`]: calibrates `model` on
/// `calib`, runs the method's clip searches in parallel, and quantizes.
///
/// # Panics
///
/// Panics if `calib` is empty.
#[must_use]
pub fn quantize_model_with(
    model: &Model,
    method: QuantMethod,
    bits: BitWidths,
    calib: &SyntheticDataset,
    refine: &LapqRefineConfig,
) -> QuantizedModel {
    let mut context = CalibContext::new(Cow::Borrowed(model), calib.clone());
    context.search_clips(&[method], bits);
    context.quantize(method, bits, refine)
}

/// Quantizes one weighted layer under the given activation and weight
/// parameters (`w_params`: one per-tensor entry, or one per channel).
pub(crate) fn quantize_layer(
    method: QuantMethod,
    bits: BitWidths,
    act: QuantParams,
    act_mean: f32,
    weights: &Tensor,
    bias: &[f32],
    w_params: Vec<QuantParams>,
) -> QuantLayer {
    let channels = weights.shape()[0];
    let fan = weights.len() / channels;
    let wdata = weights.data();

    let mut wq = Vec::with_capacity(weights.len());
    let mut scale_corr = vec![1.0f32; channels];
    let mut bias_corr = vec![0.0f32; channels];
    let mut bias_q = Vec::with_capacity(channels);
    let mut bias_shift = Vec::with_capacity(channels);
    let bias_limit = i64::from(1u32 << (bits.bias - 1)) - 1;

    for c in 0..channels {
        let params = if w_params.len() == 1 {
            &w_params[0]
        } else {
            &w_params[c]
        };
        let row = &wdata[c * fan..(c + 1) * fan];
        let row_q: Vec<u8> = params.quantize_slice(row);

        if method.bias_correction() {
            // ACIQ bias correction: match the first two moments of the
            // dequantized row to the FP32 row, folded into scale and
            // an additive output term (using E[x] from calibration).
            let deq: Vec<f32> = row_q.iter().map(|&q| params.dequantize(q)).collect();
            let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
            let std = |v: &[f32], m: f32| {
                (v.iter().map(|x| (x - m).powi(2)).sum::<f32>() / v.len() as f32).sqrt()
            };
            let (mu_w, mu_q) = (mean(row), mean(&deq));
            let (sd_w, sd_q) = (std(row, mu_w), std(&deq, mu_q));
            let corr = if sd_q > 1e-9 { sd_w / sd_q } else { 1.0 };
            scale_corr[c] = corr;
            bias_corr[c] = fan as f32 * (mu_w - corr * mu_q) * act_mean;
        }

        // Bias at 16 − α − β bits with scale s_a · s_w[c] · 2^k: the
        // smallest alignment shift k that makes the code fit the bit
        // budget (shifting into the accumulator is free in hardware).
        let bscale = f64::from(act.scale()) * f64::from(params.scale());
        let mut shift = 0u8;
        let q = loop {
            let q = (f64::from(bias[c]) / (bscale * f64::from(1u32 << shift))).round() as i64;
            if q.abs() <= bias_limit || shift >= 32 {
                break q.clamp(-bias_limit, bias_limit);
            }
            shift += 1;
        };
        bias_q.push(q);
        bias_shift.push(shift);

        wq.extend_from_slice(&row_q);
    }

    QuantLayer {
        act,
        wq,
        fan,
        channels,
        w_params,
        bias_q,
        bias_shift,
        scale_corr,
        bias_corr,
    }
}

impl QuantizedModel {
    /// Assembles a quantized model from its layers.
    pub(crate) fn new(
        method: QuantMethod,
        bits: BitWidths,
        layers: BTreeMap<NodeId, QuantLayer>,
    ) -> Self {
        QuantizedModel {
            method,
            bits,
            layers,
        }
    }

    /// The method that produced this model.
    #[must_use]
    pub fn method(&self) -> QuantMethod {
        self.method
    }

    /// The bit widths in effect.
    pub fn bits(&self) -> BitWidths {
        self.bits
    }

    /// Number of quantized (weighted) layers.
    #[must_use]
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Iterates over the quantized layers (for reporting).
    pub(crate) fn layers_iter(&self) -> impl Iterator<Item = (&NodeId, &QuantLayer)> {
        self.layers.iter()
    }

    /// Iterates over the stored weight banks, one per weighted layer,
    /// in graph order: the raw `channels × fan` code matrix the NPU's
    /// weight memory holds, with only the low [`BitWidths::weights`]
    /// bits of each code in use.
    ///
    /// This is the view `agequant-mem` profiles for per-bit-position
    /// duty cycles — the data-dependent stress that ages the weight
    /// SRAM.
    pub fn weight_banks(&self) -> impl Iterator<Item = WeightBank<'_>> {
        self.layers.iter().map(|(node, layer)| WeightBank {
            node: *node,
            fan: layer.fan,
            channels: layer.channels,
            codes: &layer.wq,
            params: &layer.w_params,
        })
    }

    /// Wraps the model with a custom hardware-multiply implementation
    /// (fault injection). The returned executor borrows both.
    #[must_use]
    pub fn with_mul<'a>(&'a self, mul: &'a dyn MulModel) -> HookedQuantExecutor<'a> {
        HookedQuantExecutor { model: self, mul }
    }

    fn conv_impl(
        &self,
        node: NodeId,
        layer: &ConvLayer,
        input: &Tensor,
        mul: &dyn MulModel,
    ) -> Tensor {
        let ql = &self.layers[&node];
        let shape = input.shape();
        let (c, h, w) = (shape[0], shape[1], shape[2]);
        let ws = layer.weights.shape();
        let (kh, kw) = (ws[2], ws[3]);

        let qa = ql.act.quantize_slice(input.data());
        let pad_code = ql.act.quantize(0.0);
        let patches = im2col(
            c,
            h,
            w,
            kh,
            kw,
            layer.stride,
            layer.pad,
            pad_code,
            |cc, y, x| qa[(cc * h + y) * w + x],
        );
        let out = self.integer_matmul(ql, &patches.data, patches.rows, patches.cols, mul);
        Tensor::from_vec(&[ql.channels, patches.out_h, patches.out_w], out)
    }

    fn linear_impl(
        &self,
        node: NodeId,
        _layer: &LinearLayer,
        input: &Tensor,
        mul: &dyn MulModel,
    ) -> Tensor {
        let ql = &self.layers[&node];
        let qa = ql.act.quantize_slice(input.data());
        let out = self.integer_matmul(ql, &qa, qa.len(), 1, mul);
        Tensor::from_vec(&[ql.channels], out)
    }

    /// Integer GEMM: quantized weights (rows) × quantized patch matrix
    /// (`rows × cols`), with affine zero-point correction and dequant.
    fn integer_matmul(
        &self,
        ql: &QuantLayer,
        patches: &[u8],
        rows: usize,
        cols: usize,
        mul: &dyn MulModel,
    ) -> Vec<f32> {
        assert_eq!(rows, ql.fan, "patch rows must equal layer fan-in");
        let za = i64::from(ql.act.zero_point());
        // Column sums of the activation codes (for the z_w correction).
        let mut col_sums = vec![0i64; cols];
        for r in 0..rows {
            let prow = &patches[r * cols..(r + 1) * cols];
            for (s, &q) in col_sums.iter_mut().zip(prow) {
                *s += i64::from(q);
            }
        }

        let exact = mul as *const dyn MulModel as *const ();
        let use_fast = exact == (&ExactMul as *const ExactMul).cast();

        let mut out = vec![0.0f32; ql.channels * cols];
        for ch in 0..ql.channels {
            let params = ql.w_param(ch);
            let zw = i64::from(params.zero_point());
            let wrow = &ql.wq[ch * ql.fan..(ch + 1) * ql.fan];
            let row_sum: i64 = wrow.iter().map(|&q| i64::from(q)).sum();

            let mut acc = vec![0i64; cols];
            if use_fast {
                // Tight loop without the dynamic dispatch.
                for (r, &wc) in wrow.iter().enumerate() {
                    if wc == 0 {
                        continue;
                    }
                    let wc = i64::from(wc);
                    let prow = &patches[r * cols..(r + 1) * cols];
                    for (a, &q) in acc.iter_mut().zip(prow) {
                        *a += wc * i64::from(q);
                    }
                }
            } else {
                for (r, &wc) in wrow.iter().enumerate() {
                    let prow = &patches[r * cols..(r + 1) * cols];
                    for (a, &q) in acc.iter_mut().zip(prow) {
                        *a += i64::from(mul.mul(q, wc));
                    }
                }
            }

            let deq = f64::from(ql.act.scale())
                * f64::from(params.scale())
                * f64::from(ql.scale_corr[ch]);
            let bias_term = f64::from(ql.act.scale())
                * f64::from(params.scale())
                * (ql.bias_q[ch] << ql.bias_shift[ch]) as f64
                + f64::from(ql.bias_corr[ch]);
            let fan_zz = ql.fan as i64 * za * zw;
            let orow = &mut out[ch * cols..(ch + 1) * cols];
            for (p, (o, &csum)) in orow.iter_mut().zip(&col_sums).enumerate() {
                let y_int = acc[p] - zw * csum - za * row_sum + fan_zz;
                *o = (deq * y_int as f64 + bias_term) as f32;
            }
        }
        out
    }

    /// LAPQ coordinate descent: per layer, pick the activation clip
    /// scale factor minimizing logits MSE against FP32 (`reference`,
    /// the logits of `images`) on a calibration subset.
    pub(crate) fn refine_lapq(
        &mut self,
        model: &Model,
        images: &[Tensor],
        reference: &[Tensor],
        cfg: &LapqRefineConfig,
    ) {
        let objective = |quant: &QuantizedModel| -> f64 {
            images
                .iter()
                .zip(reference)
                .map(|(img, reference)| {
                    let logits = model.run(quant, img);
                    logits
                        .data()
                        .iter()
                        .zip(reference.data())
                        .map(|(a, b)| f64::from(a - b).powi(2))
                        .sum::<f64>()
                })
                .sum()
        };
        let ids: Vec<NodeId> = self.layers.keys().copied().collect();
        for _ in 0..cfg.passes {
            for &id in &ids {
                let base = self.layers[&id].act;
                let base_cost = objective(self);
                // Accept a move only on a clear improvement — the
                // small-sample objective otherwise overfits.
                let mut best = (base_cost * 0.95, 1.0f32);
                for &factor in &cfg.factors {
                    if (factor - 1.0).abs() < 1e-6 {
                        continue;
                    }
                    self.layers.get_mut(&id).unwrap().act = scale_clip(base, factor);
                    let cost = objective(self);
                    if cost < best.0 {
                        best = (cost, factor);
                    }
                }
                self.layers.get_mut(&id).unwrap().act = scale_clip(base, best.1);
            }
        }
    }
}

/// Scales a clip range about its zero: new params with `scale × f`.
fn scale_clip(p: QuantParams, factor: f32) -> QuantParams {
    let lo = p.dequantize(0) * factor;
    let hi = p.dequantize(p.max_code()) * factor;
    QuantParams::from_range(lo, hi, p.bits())
}

impl Executor for QuantizedModel {
    fn conv2d(&self, node: NodeId, layer: &ConvLayer, input: &Tensor) -> Tensor {
        self.conv_impl(node, layer, input, &ExactMul)
    }

    fn linear(&self, node: NodeId, layer: &LinearLayer, input: &Tensor) -> Tensor {
        self.linear_impl(node, layer, input, &ExactMul)
    }
}

/// A quantized model bound to a custom multiplier (fault injection).
#[derive(Clone, Copy)]
pub struct HookedQuantExecutor<'a> {
    model: &'a QuantizedModel,
    mul: &'a dyn MulModel,
}

impl std::fmt::Debug for HookedQuantExecutor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "HookedQuantExecutor({} layers)",
            self.model.layer_count()
        )
    }
}

impl Executor for HookedQuantExecutor<'_> {
    fn conv2d(&self, node: NodeId, layer: &ConvLayer, input: &Tensor) -> Tensor {
        self.model.conv_impl(node, layer, input, self.mul)
    }

    fn linear(&self, node: NodeId, layer: &LinearLayer, input: &Tensor) -> Tensor {
        self.model.linear_impl(node, layer, input, self.mul)
    }
}

#[cfg(test)]
mod tests {
    use agequant_nn::{accuracy_loss_pct, ExactExecutor, NetArch};

    use super::*;

    fn small_model() -> Model {
        NetArch::AlexNet.build(5)
    }

    fn data() -> SyntheticDataset {
        SyntheticDataset::generate(24, 3)
    }

    #[test]
    fn eight_bit_quantization_is_nearly_lossless() {
        let model = small_model();
        let d = data();
        let calib = d.take(4);
        let fp32 = model.predict_all(&ExactExecutor, d.images());
        for method in QuantMethod::ALL {
            let q = quantize_model_with(
                &model,
                method,
                BitWidths::W8A8,
                &calib,
                &LapqRefineConfig::off(),
            );
            let preds = model.predict_all(&q, d.images());
            let loss = accuracy_loss_pct(&fp32, &preds);
            assert!(loss <= 20.0, "{method}: W8A8 loss {loss}%");
        }
    }

    #[test]
    fn lower_precision_hurts_more_on_average() {
        let model = small_model();
        let d = data();
        let calib = d.take(4);
        let fp32 = model.predict_all(&ExactExecutor, d.images());
        let loss_at = |bits: BitWidths| -> f64 {
            QuantMethod::ALL
                .iter()
                .map(|&m| {
                    let q = quantize_model_with(&model, m, bits, &calib, &LapqRefineConfig::off());
                    accuracy_loss_pct(&fp32, &model.predict_all(&q, d.images()))
                })
                .sum::<f64>()
                / 5.0
        };
        let high = loss_at(BitWidths::W8A8);
        let low = loss_at(BitWidths::for_compression(5, 5));
        assert!(
            low >= high,
            "W3A3 average loss {low}% should be ≥ W8A8 loss {high}%"
        );
        assert!(low > 0.0, "3-bit quantization must disturb something");
    }

    #[test]
    fn integer_path_matches_fake_quant_reference() {
        // Cross-check the affine integer arithmetic against a direct
        // float emulation of the same quantization.
        let model = small_model();
        let d = data();
        let calib = d.take(4);
        let q = quantize_model_with(
            &model,
            QuantMethod::MinMax,
            BitWidths::for_compression(2, 2),
            &calib,
            &LapqRefineConfig::off(),
        );
        // Pick the first conv layer and compare outputs.
        let id = model.weighted_layers()[0];
        let (conv, input) = match &model.nodes()[id.index()].op {
            agequant_nn::Op::Conv(c) => (c, d.images()[0].clone()),
            _ => panic!("first weighted layer should be a conv"),
        };
        let got = q.conv2d(id, conv, &input);

        // Fake-quant reference: dequantized codes through f64 conv.
        let ql = &q.layers[&id];
        let deq_in = input.map(|v| ql.act.fake(v));
        let mut deq_w = conv.weights.clone();
        for (c, chunk) in deq_w.data_mut().chunks_mut(ql.fan).enumerate() {
            let p = ql.w_param(c);
            for v in chunk.iter_mut() {
                *v = p.fake(*v);
            }
        }
        let deq_bias: Vec<f32> = ql
            .bias_q
            .iter()
            .enumerate()
            .map(|(c, &b)| ql.act.scale() * ql.w_param(c).scale() * (b << ql.bias_shift[c]) as f32)
            .collect();
        let reference = agequant_tensor::conv2d(&deq_in, &deq_w, &deq_bias, conv.stride, conv.pad);
        for (a, b) in got.data().iter().zip(reference.data()) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn bias_correction_reduces_output_shift_at_low_bits() {
        let model = small_model();
        let d = data();
        let calib = d.take(4);
        let bits = BitWidths::for_compression(4, 4);
        let fp32: Vec<Tensor> = d.images()[..8]
            .iter()
            .map(|img| model.run(&ExactExecutor, img))
            .collect();
        let mean_err = |method: QuantMethod| -> f64 {
            let q = quantize_model_with(&model, method, bits, &calib, &LapqRefineConfig::off());
            d.images()[..8]
                .iter()
                .zip(&fp32)
                .map(|(img, reference)| {
                    let out = model.run(&q, img);
                    out.data()
                        .iter()
                        .zip(reference.data())
                        .map(|(a, b)| f64::from(a - b).abs())
                        .sum::<f64>()
                })
                .sum()
        };
        let with = mean_err(QuantMethod::Aciq);
        let without = mean_err(QuantMethod::AciqNoBias);
        // Bias correction should not be catastrophically worse; most
        // of the time it helps. Allow slack for the small model.
        assert!(with < without * 1.5, "with {with} vs without {without}");
    }

    #[test]
    fn hooked_multiplier_is_used() {
        use std::cell::Cell;

        struct Counting(Cell<usize>);
        impl MulModel for Counting {
            fn mul(&self, a: u8, w: u8) -> u32 {
                self.0.set(self.0.get() + 1);
                u32::from(a) * u32::from(w)
            }
        }

        let model = small_model();
        let d = data();
        let q = quantize_model_with(
            &model,
            QuantMethod::MinMax,
            BitWidths::W8A8,
            &d.take(2),
            &LapqRefineConfig::off(),
        );
        let counter = Counting(Cell::new(0));
        let hooked = q.with_mul(&counter);
        let exact_preds = model.predict_all(&q, &d.images()[..2]);
        let hooked_preds = model.predict_all(&hooked, &d.images()[..2]);
        assert_eq!(exact_preds, hooked_preds, "identity hook is transparent");
        assert!(
            counter.0.get() > 100_000,
            "hook saw {} multiplies",
            counter.0.get()
        );
    }

    #[test]
    fn lapq_refinement_does_not_hurt() {
        let model = small_model();
        let d = data();
        let calib = d.take(6);
        let bits = BitWidths::for_compression(4, 4);
        let fp32 = model.predict_all(&ExactExecutor, d.images());
        let plain = quantize_model_with(
            &model,
            QuantMethod::Lapq,
            bits,
            &calib,
            &LapqRefineConfig::off(),
        );
        let refined = quantize_model_with(
            &model,
            QuantMethod::Lapq,
            bits,
            &calib,
            &LapqRefineConfig::light(),
        );
        let loss_plain = accuracy_loss_pct(&fp32, &model.predict_all(&plain, d.images()));
        let loss_refined = accuracy_loss_pct(&fp32, &model.predict_all(&refined, d.images()));
        assert!(
            loss_refined <= loss_plain + 15.0,
            "refined {loss_refined}% vs plain {loss_plain}%"
        );
    }
}
