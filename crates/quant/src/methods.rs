//! The five quantization methods and their range-selection policies.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{aciq_optimal_clip, lp_norm_clip, QuantParams, TensorStats};

/// The quantization methods of the paper's library (Section 5).
///
/// Methods differ in how they pick the clipping range; the affine
/// integer machinery downstream is shared. `M1`/`M2` use the full
/// observed range (no clipping) and per-tensor weight scales; the
/// clipping methods (`M3`–`M5`) use per-channel weight scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum QuantMethod {
    /// M1 — uniform symmetric full-range quantization (ref. \[16\]).
    UniformSymmetric,
    /// M2 — asymmetric min/max quantization (ref. \[17\]).
    MinMax,
    /// M3 — LAPQ: loss-aware Lp-norm-optimal clipping (ref. \[19\]).
    Lapq,
    /// M4 — ACIQ analytic clipping with bias correction (ref. \[18\]).
    Aciq,
    /// M5 — ACIQ analytic clipping without bias correction (ref. \[18\]).
    AciqNoBias,
}

impl QuantMethod {
    /// All five methods in library order (M1…M5).
    pub const ALL: [QuantMethod; 5] = [
        QuantMethod::UniformSymmetric,
        QuantMethod::MinMax,
        QuantMethod::Lapq,
        QuantMethod::Aciq,
        QuantMethod::AciqNoBias,
    ];

    /// The paper's table tag (`M1`…`M5`).
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            QuantMethod::UniformSymmetric => "M1",
            QuantMethod::MinMax => "M2",
            QuantMethod::Lapq => "M3",
            QuantMethod::Aciq => "M4",
            QuantMethod::AciqNoBias => "M5",
        }
    }

    /// A descriptive name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            QuantMethod::UniformSymmetric => "uniform symmetric",
            QuantMethod::MinMax => "asymmetric min/max",
            QuantMethod::Lapq => "LAPQ",
            QuantMethod::Aciq => "ACIQ",
            QuantMethod::AciqNoBias => "ACIQ w/o bias correction",
        }
    }

    /// Whether the method applies per-channel weight scales: exactly
    /// the methods that search a clip.
    #[must_use]
    pub fn per_channel_weights(self) -> bool {
        self.clip_search().is_some()
    }

    /// Whether the method applies the ACIQ bias correction.
    #[must_use]
    pub fn bias_correction(self) -> bool {
        matches!(self, QuantMethod::Aciq)
    }

    /// The clip search the method runs, if it clips: LAPQ's empirical
    /// Lp-norm minimization, or ACIQ's analytic MSE (shared by ACIQ
    /// with and without bias correction). `M1`/`M2` use the observed
    /// range and search nothing.
    pub(crate) fn clip_search(self) -> Option<ClipSearch> {
        match self {
            QuantMethod::UniformSymmetric | QuantMethod::MinMax => None,
            QuantMethod::Lapq => Some(ClipSearch::LpNorm),
            QuantMethod::Aciq | QuantMethod::AciqNoBias => Some(ClipSearch::Aciq),
        }
    }

    /// Quantization parameters for a *weight* population at `bits`,
    /// given the method's searched `clip` (`None` for `M1`/`M2`, which
    /// search none).
    ///
    /// Weights are treated as zero-centred: all methods use symmetric
    /// ranges, differing in the clip threshold.
    pub(crate) fn weight_params(
        self,
        stats: &TensorStats,
        bits: u8,
        clip: Option<f32>,
    ) -> QuantParams {
        let alpha = match (self, clip) {
            (_, Some(alpha)) => alpha,
            // Asymmetric: use the true range.
            (QuantMethod::MinMax, None) => {
                return QuantParams::from_range(stats.min, stats.max, bits)
            }
            (_, None) => stats.max_abs(),
        };
        QuantParams::symmetric(alpha.max(1e-8), bits)
    }

    /// Quantization parameters for an *activation* population at
    /// `bits`, given the method's searched `clip` (`None` for
    /// `M1`/`M2`). One-sided (post-ReLU) populations quantize `[0, α]`;
    /// two-sided populations quantize `[μ − α, μ + α]` (affine zero
    /// point).
    pub(crate) fn activation_params(
        self,
        stats: &TensorStats,
        bits: u8,
        clip: Option<f32>,
    ) -> QuantParams {
        let one_sided = stats.is_non_negative();
        match (self, clip) {
            (_, Some(alpha)) => clipped_params(stats, alpha, one_sided, bits),
            (QuantMethod::MinMax, None) => QuantParams::from_range(stats.min, stats.max, bits),
            (_, None) => {
                if one_sided {
                    QuantParams::from_range(0.0, stats.max.max(1e-8), bits)
                } else {
                    QuantParams::symmetric(stats.max_abs().max(1e-8), bits)
                }
            }
        }
    }
}

/// A clip-threshold search over one value population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ClipSearch {
    /// LAPQ: [`lp_norm_clip`].
    LpNorm,
    /// ACIQ: [`aciq_optimal_clip`].
    Aciq,
}

impl ClipSearch {
    /// The searched clip `α` for `stats` at `bits`.
    pub(crate) fn clip(self, stats: &TensorStats, bits: u8, one_sided: bool) -> f32 {
        match self {
            ClipSearch::LpNorm => lp_norm_clip(stats, bits, one_sided),
            ClipSearch::Aciq => aciq_optimal_clip(stats, bits, one_sided).0,
        }
    }

    /// The relative cost of one search over `stats`: LAPQ's objective
    /// walks the whole sample at every golden-section step, ACIQ's is
    /// analytic.
    pub(crate) fn cost(self, stats: &TensorStats) -> usize {
        match self {
            ClipSearch::LpNorm => stats.sample.len(),
            ClipSearch::Aciq => 1,
        }
    }
}

fn clipped_params(stats: &TensorStats, alpha: f32, one_sided: bool, bits: u8) -> QuantParams {
    if one_sided {
        QuantParams::from_range(0.0, alpha.max(1e-8), bits)
    } else {
        QuantParams::from_range(stats.mean - alpha, stats.mean + alpha, bits)
    }
}

impl fmt::Display for QuantMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.tag(), self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heavy_tailed() -> TensorStats {
        // Mostly small values plus a few outliers — the regime where
        // clipping methods beat min/max.
        let mut values: Vec<f32> = (0..4000)
            .map(|i| ((i % 41) as f32 / 20.0 - 1.0) * 0.5)
            .collect();
        values.extend_from_slice(&[8.0, -7.5, 6.9, -8.2]);
        TensorStats::collect(&values)
    }

    /// `m`'s weight parameters with its clip searched afresh.
    fn weight_params(m: QuantMethod, stats: &TensorStats, bits: u8) -> QuantParams {
        let clip = m.clip_search().map(|s| s.clip(stats, bits, false));
        m.weight_params(stats, bits, clip)
    }

    #[test]
    fn tags_and_names_are_stable() {
        let tags: Vec<&str> = QuantMethod::ALL.iter().map(|m| m.tag()).collect();
        assert_eq!(tags, ["M1", "M2", "M3", "M4", "M5"]);
        assert!(QuantMethod::Aciq.to_string().contains("ACIQ"));
    }

    #[test]
    fn clipping_methods_ignore_outliers() {
        let stats = heavy_tailed();
        let bits = 4;
        let full = weight_params(QuantMethod::UniformSymmetric, &stats, bits);
        for m in [QuantMethod::Aciq, QuantMethod::AciqNoBias] {
            let clipped = weight_params(m, &stats, bits);
            assert!(
                clipped.scale() < full.scale() / 3.0,
                "{m}: {} vs full-range {}",
                clipped.scale(),
                full.scale()
            );
        }
        // LAPQ's Lp objective is deliberately more outlier-respecting
        // than the MSE-analytic ACIQ, but must still clip.
        let lapq = weight_params(QuantMethod::Lapq, &stats, bits);
        assert!(lapq.scale() < full.scale() * 0.95);
    }

    #[test]
    fn clipping_methods_beat_minmax_in_mse_at_low_bits() {
        let stats = heavy_tailed();
        let bits = 4;
        let mse = |p: &QuantParams| -> f64 {
            stats
                .sample
                .iter()
                .map(|&v| f64::from(p.fake(v) - v).powi(2))
                .sum::<f64>()
                / stats.sample.len() as f64
        };
        let minmax = mse(&weight_params(QuantMethod::MinMax, &stats, bits));
        let aciq = mse(&weight_params(QuantMethod::Aciq, &stats, bits));
        let lapq = mse(&weight_params(QuantMethod::Lapq, &stats, bits));
        assert!(aciq < minmax, "ACIQ {aciq} vs minmax {minmax}");
        assert!(lapq < minmax, "LAPQ {lapq} vs minmax {minmax}");
    }

    #[test]
    fn relu_activations_get_one_sided_ranges() {
        let positive: Vec<f32> = (0..2000).map(|i| (i % 100) as f32 / 50.0).collect();
        let stats = TensorStats::collect(&positive);
        for m in QuantMethod::ALL {
            let clip = m.clip_search().map(|s| s.clip(&stats, 6, true));
            let p = m.activation_params(&stats, 6, clip);
            assert_eq!(p.zero_point(), 0, "{m}: post-ReLU zero point should be 0");
        }
    }

    #[test]
    fn per_channel_policy() {
        assert!(!QuantMethod::UniformSymmetric.per_channel_weights());
        assert!(!QuantMethod::MinMax.per_channel_weights());
        assert!(QuantMethod::Aciq.per_channel_weights());
        assert!(QuantMethod::Aciq.bias_correction());
        assert!(!QuantMethod::AciqNoBias.bias_correction());
    }
}
