//! Section 6.2's surrogate-model validation: does the Euclidean norm
//! `√(α² + β²)` rank compressions like their measured accuracy loss?

use std::borrow::Cow;

use agequant_nn::{NetArch, SyntheticDataset};
use agequant_quant::{BitWidths, CalibContext, QuantMethod};
use agequant_sta::Compression;
use serde::{Deserialize, Serialize};

use crate::AgingAwareQuantizer;

/// The Pearson rank-correlation study of one (network, method) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurrogateStudy {
    /// Network name.
    pub network: String,
    /// Quantization method.
    pub method: QuantMethod,
    /// The compressions evaluated.
    pub compressions: Vec<Compression>,
    /// Measured accuracy loss per compression, percent.
    pub losses_pct: Vec<f64>,
    /// Pearson correlation between the loss ranking and the
    /// Euclidean-norm ranking.
    pub rank_correlation: f64,
}

/// Runs the §6.2 experiment for one network and method over
/// `(α, β) ∈ [0, max]²` (the paper uses `[0, 4]²`).
///
/// # Panics
///
/// Panics if the grid is empty after validation.
#[must_use]
pub fn study(
    flow: &AgingAwareQuantizer,
    arch: NetArch,
    method: QuantMethod,
    grid_max: u8,
    eval_samples: usize,
) -> SurrogateStudy {
    let model = arch.build(flow.config().model_seed);
    let eval = SyntheticDataset::generate(eval_samples, flow.config().data_seed ^ 1);
    let calib = SyntheticDataset::generate(flow.config().calib_samples, flow.config().data_seed);
    let mut context = CalibContext::new(Cow::Owned(model), calib).evaluating(eval);

    let mut compressions = Vec::new();
    let mut losses = Vec::new();
    for compression in Compression::grid(grid_max) {
        if compression.validate(flow.mac().geometry()).is_err() {
            continue;
        }
        let bits = BitWidths::for_compression(compression.alpha(), compression.beta());
        context.search_clips(&[method], bits);
        let quantized = context.quantize(method, bits, &flow.config().lapq);
        compressions.push(compression);
        losses.push(context.loss_pct(&quantized));
    }
    assert!(!compressions.is_empty(), "empty compression grid");

    let norm_ranks = ranks(
        &compressions
            .iter()
            .map(|c| c.magnitude())
            .collect::<Vec<_>>(),
    );
    let loss_ranks = ranks(&losses);
    let rank_correlation = pearson(&norm_ranks, &loss_ranks);
    SurrogateStudy {
        network: arch.name().to_string(),
        method,
        compressions,
        losses_pct: losses,
        rank_correlation,
    }
}

/// Fractional ranks with tie averaging (the usual Spearman-ρ ranks).
#[must_use]
pub fn ranks(values: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("finite values"));
    let mut out = vec![0.0; values.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            out[idx] = avg;
        }
        i = j + 1;
    }
    out
}

/// The Pearson correlation coefficient of two equal-length samples.
///
/// # Panics
///
/// Panics on length mismatch or fewer than two points.
#[must_use]
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "sample length mismatch");
    assert!(xs.len() >= 2, "need at least two points");
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx).powi(2);
        vy += (y - my).powi(2);
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx * vy).sqrt()
}

#[cfg(test)]
mod tests {
    use crate::{AgingAwareQuantizer, FlowConfig};

    use super::*;

    #[test]
    fn pearson_reference_cases() {
        assert!((pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&[1.0, 2.0, 3.0], &[6.0, 4.0, 2.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn ranks_average_ties() {
        assert_eq!(ranks(&[10.0, 20.0, 20.0, 30.0]), vec![1.0, 2.5, 2.5, 4.0]);
        assert_eq!(ranks(&[3.0, 1.0, 2.0]), vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn surrogate_correlates_strongly() {
        // The paper reports 0.84 average (0.71–0.92). One quick
        // (network, method) study over [0, 3]² should land in a
        // strongly positive band.
        let mut config = FlowConfig::edge_tpu_like();
        config.lapq = agequant_quant::LapqRefineConfig::off();
        let flow = AgingAwareQuantizer::new(config).unwrap();
        let s = study(&flow, NetArch::AlexNet, QuantMethod::Aciq, 3, 30);
        assert_eq!(s.compressions.len(), 16);
        assert!(
            s.rank_correlation > 0.5,
            "rank correlation {}",
            s.rank_correlation
        );
    }
}
