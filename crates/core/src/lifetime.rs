//! Lifetime trajectories: Fig. 4a (delay) and Fig. 4b (accuracy).

use std::borrow::Cow;

use agequant_aging::VthShift;
use agequant_check::par_map;
use agequant_nn::NetArch;
use serde::{Deserialize, Serialize};

use crate::{AgingAwareQuantizer, FlowError, ModelOutcome};

/// One aging level's delay picture (a point of Fig. 4a).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayPoint {
    /// The aging level.
    pub shift: VthShift,
    /// Baseline (uncompressed) delay normalized to the fresh baseline.
    pub baseline_norm: f64,
    /// Our technique's delay (selected compression under the aged
    /// library), normalized to the fresh baseline.
    pub ours_norm: f64,
    /// The selected compression's α.
    pub alpha: u8,
    /// The selected compression's β.
    pub beta: u8,
    /// The selected padding name (`"MSB"`/`"LSB"`).
    pub padding: String,
}

/// The normalized-delay trajectory over the aging sweep (Fig. 4a) plus
/// the Table 2 data (selected compressions per level).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayTrajectory {
    /// One point per aging level, fresh first.
    pub points: Vec<DelayPoint>,
}

impl DelayTrajectory {
    /// Computes the trajectory over the scenario's standard sweep.
    ///
    /// The per-aging-level computations (baseline STA + grid scan)
    /// are independent, so they fan out through [`par_map`], which
    /// keeps the points in sweep order, and every level's library,
    /// load vector, and plan land in the flow's engine cache for
    /// later sweeps (Table 1 reuses Fig. 4a's plans, for instance).
    ///
    /// # Errors
    ///
    /// Propagates [`FlowError::NoFeasibleCompression`].
    pub fn compute(flow: &AgingAwareQuantizer) -> Result<Self, FlowError> {
        let fresh = flow.fresh_critical_path_ps();
        let points = par_map(&flow.config().scenario.sweep(), |&shift| {
            let plan = flow.compression_for(shift)?;
            Ok(DelayPoint {
                shift,
                baseline_norm: flow.baseline_delay_ps(shift) / fresh,
                ours_norm: plan.compressed_delay_ps / fresh,
                alpha: plan.compression.alpha(),
                beta: plan.compression.beta(),
                padding: plan.padding.name().to_string(),
            })
        })
        .into_iter()
        .collect::<Result<Vec<DelayPoint>, FlowError>>()?;
        Ok(DelayTrajectory { points })
    }

    /// The end-of-life performance gain of removing the guardband:
    /// `baseline_norm(EOL) − 1` (the paper's 23%).
    ///
    /// # Panics
    ///
    /// Panics if the trajectory is empty.
    #[must_use]
    pub fn guardband_gain(&self) -> f64 {
        self.points
            .last()
            .expect("non-empty trajectory")
            .baseline_norm
            - 1.0
    }

    /// Whether our technique never exceeds the fresh baseline — the
    /// paper's "normalized delay is always ≤ 1" claim.
    #[must_use]
    pub fn ours_never_degrades(&self) -> bool {
        self.points.iter().all(|p| p.ours_norm <= 1.0 + 1e-9)
    }
}

/// Per-network accuracy losses at every aging level (Fig. 4b's box
/// plots and Table 1's cells).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccuracyTrajectory {
    /// Aging levels, in sweep order (aged levels only).
    pub shifts: Vec<VthShift>,
    /// Per network: the outcome at each aging level.
    pub outcomes: Vec<(String, Vec<ModelOutcome>)>,
}

impl AccuracyTrajectory {
    /// Runs Algorithm 1 for every given network at every aged level of
    /// the scenario sweep.
    ///
    /// The networks fan out through [`par_map`] (each builds its own
    /// model and calibrates it once, see
    /// [`AgingAwareQuantizer::calibrate`]); within one network the
    /// levels run in order on that one context, so a bit width seen at
    /// an earlier level reuses its clip searches, and they hit the
    /// engine's plan cache — the `(α, β)` grid is scanned once per
    /// level, not once per `(network, level)` pair as in the seed.
    ///
    /// # Errors
    ///
    /// Propagates flow errors.
    pub fn compute(flow: &AgingAwareQuantizer, archs: &[NetArch]) -> Result<Self, FlowError> {
        let shifts = flow.config().scenario.aged_sweep();
        let outcomes = par_map(archs, |&arch| {
            let mut context = flow.calibrate(Cow::Owned(arch.build(flow.config().model_seed)));
            let mut per_level = Vec::with_capacity(shifts.len());
            for &shift in &shifts {
                let plan = flow.compression_for(shift)?;
                per_level.push(flow.select_method_in(&mut context, plan)?);
            }
            Ok((arch.name().to_string(), per_level))
        })
        .into_iter()
        .collect::<Result<Vec<_>, FlowError>>()?;
        Ok(AccuracyTrajectory { shifts, outcomes })
    }

    /// Accuracy losses of all networks at aging-level index `level` —
    /// the population of one Fig. 4b box.
    #[must_use]
    pub fn losses_at(&self, level: usize) -> Vec<f64> {
        self.outcomes
            .iter()
            .map(|(_, o)| o[level].accuracy_loss_pct)
            .collect()
    }

    /// Mean accuracy loss per aging level (the paper reports 0.24%,
    /// 0.45%, 1.11%, 1.80%, 2.96% — ours are substrate-scaled).
    #[must_use]
    pub fn mean_losses(&self) -> Vec<f64> {
        (0..self.shifts.len())
            .map(|level| {
                let losses = self.losses_at(level);
                losses.iter().sum::<f64>() / losses.len() as f64
            })
            .collect()
    }

    /// Five-number summary (min, q1, median, q3, max) of the losses at
    /// one level — the Fig. 4b box geometry.
    #[must_use]
    pub fn box_stats_at(&self, level: usize) -> [f64; 5] {
        let mut l = self.losses_at(level);
        l.sort_by(|a, b| a.partial_cmp(b).expect("losses are finite"));
        let q = |f: f64| -> f64 {
            let pos = f * (l.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let t = pos - lo as f64;
            l[lo] * (1.0 - t) + l[hi] * t
        };
        [l[0], q(0.25), q(0.5), q(0.75), l[l.len() - 1]]
    }
}

#[cfg(test)]
mod tests {
    use crate::FlowConfig;

    use super::*;

    fn quick_flow() -> AgingAwareQuantizer {
        let mut config = FlowConfig::edge_tpu_like();
        config.eval_samples = 20;
        config.calib_samples = 4;
        config.lapq = agequant_quant::LapqRefineConfig::off();
        AgingAwareQuantizer::new(config).expect("valid")
    }

    #[test]
    fn delay_trajectory_matches_paper_shape() {
        let flow = quick_flow();
        let t = DelayTrajectory::compute(&flow).expect("feasible everywhere");
        assert_eq!(t.points.len(), 6);
        // Baseline grows monotonically and ends ≈ +23%.
        for pair in t.points.windows(2) {
            assert!(pair[1].baseline_norm >= pair[0].baseline_norm);
        }
        assert!(
            (0.15..=0.35).contains(&t.guardband_gain()),
            "{}",
            t.guardband_gain()
        );
        // Our delay stays at or below the fresh baseline for the
        // entire lifetime.
        assert!(t.ours_never_degrades());
        // Fresh point is exactly 1 / 1 with no compression.
        assert_eq!(t.points[0].baseline_norm, 1.0);
        assert_eq!((t.points[0].alpha, t.points[0].beta), (0, 0));
    }

    #[test]
    fn accuracy_trajectory_is_graceful_on_average() {
        let flow = quick_flow();
        let t = AccuracyTrajectory::compute(&flow, &[NetArch::AlexNet, NetArch::Vgg13])
            .expect("flow completes");
        assert_eq!(t.shifts.len(), 5);
        let means = t.mean_losses();
        // Late-life loss must not be lower than early-life loss.
        assert!(
            means[4] + 1e-9 >= means[0],
            "graceful degradation violated: {means:?}"
        );
        let boxes = t.box_stats_at(4);
        assert!(boxes[0] <= boxes[2] && boxes[2] <= boxes[4]);
    }
}
