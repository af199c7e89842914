//! Post-training quantization library: uniform symmetric, asymmetric
//! min/max, ACIQ (with and without bias correction), and LAPQ — plus a
//! true-integer inference path with a hookable multiplier.
//!
//! This is the reproduction of the paper's "library of multiple
//! low-bit-width post-training quantization methods" (Section 5):
//!
//! | Tag | Method | Published source |
//! |-----|--------|------------------|
//! | M1  | [`QuantMethod::UniformSymmetric`] | Krishnamoorthi whitepaper \[16\] |
//! | M2  | [`QuantMethod::MinMax`] (asymmetric) | Jacob et al. \[17\] |
//! | M3  | [`QuantMethod::Lapq`] | Nahshan et al. \[19\] |
//! | M4  | [`QuantMethod::Aciq`] (w/ bias correction) | Banner et al. \[18\] |
//! | M5  | [`QuantMethod::AciqNoBias`] | Banner et al. \[18\] |
//!
//! All methods are *post-training* (no retraining), support different
//! bit widths for weights and activations ([`BitWidths`], derived from
//! the paper's `(α, β)` compression), and the clipping-based methods
//! use per-channel weight scales.
//!
//! Quantized inference runs honestly in the integer domain: `u8 × u8 →
//! i32` accumulation with affine zero-point correction, bias quantized
//! to `16 − α − β` bits — exactly the arithmetic the compressed MAC of
//! the NPU performs. The hardware multiply is hookable ([`MulModel`])
//! so `agequant-faults` can inject aging bit flips into every product.
//!
//! Everything quantization reads of a network that does not depend on
//! the method — calibration statistics, weight statistics, the FP32
//! reference — lives in a [`CalibContext`], built once per network,
//! which also memoizes the clip searches per bit width and runs new
//! ones in parallel. [`quantize_model_with`] is a one-shot use of one.
//!
//! # Example
//!
//! ```
//! use agequant_nn::{ExactExecutor, NetArch, SyntheticDataset};
//! use agequant_quant::{quantize_model, BitWidths, QuantMethod};
//!
//! let model = NetArch::AlexNet.build(3);
//! let data = SyntheticDataset::generate(16, 1);
//! let calib = data.take(4);
//! let q = quantize_model(&model, QuantMethod::Aciq, BitWidths::W8A8, &calib);
//! let fp32 = model.predict_all(&ExactExecutor, data.images());
//! let int8 = model.predict_all(&q, data.images());
//! let loss = agequant_nn::accuracy_loss_pct(&fp32, &int8);
//! assert!(loss <= 25.0, "8-bit quantization should be nearly lossless, got {loss}%");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bits;
mod calib;
mod clip;
mod methods;
mod model;
mod params;
mod report;
mod stats;

pub use bits::BitWidths;
pub use calib::CalibContext;
pub use clip::{aciq_optimal_clip, lp_norm_clip, DistFit};
pub use methods::QuantMethod;
pub use model::{
    quantize_model, quantize_model_with, ExactMul, HookedQuantExecutor, LapqRefineConfig, MulModel,
    QuantizedModel, WeightBank,
};
pub use params::QuantParams;
pub use report::{LayerSummary, QuantReport};
pub use stats::TensorStats;
