//! The per-chip regime machine and its EWMA rate estimator.

use serde::{Deserialize, Serialize};

use crate::config::AutopilotConfig;

/// A chip's supervision regime: how closely the controller watches it
/// and how aggressively it replans.
///
/// Ordered by escalation — `Calm < Watch < Intervene` — so priority
/// comparisons read as plain `>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Regime {
    /// Sparse polling; react when a sample reveals a bucket crossing.
    Calm,
    /// Tighter cadence; the next bucket's plan is prefetched into the
    /// engine cache so an eventual crossing is a cache hit.
    Watch,
    /// Every-sample supervision; plans are pushed and re-encodes
    /// scheduled *before* the chip reaches the boundary.
    Intervene,
}

impl Regime {
    /// Every regime, in escalation order.
    pub const ALL: [Regime; 3] = [Regime::Calm, Regime::Watch, Regime::Intervene];

    /// Stable lower-case label (journal/metrics vocabulary).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Regime::Calm => "calm",
            Regime::Watch => "watch",
            Regime::Intervene => "intervene",
        }
    }
}

/// One telemetry observation of a chip, as the controller sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// The epoch the sample was taken in.
    pub epoch: u64,
    /// Observed (reported or simulated) ΔVth, millivolts.
    pub mv: f64,
    /// Headroom to the next bucket boundary, millivolts.
    pub margin_mv: f64,
    /// Residual of the report against the calibrated kinetics model
    /// (`reported − modelled`), millivolts, when a cross-check ran.
    pub residual_mv: Option<f64>,
    /// Weight-memory pressure in `[0, 1]`: worst-bit failure
    /// probability over the degrade threshold. Zero when the memory
    /// axis is off.
    pub mem_pressure: f64,
}

/// The controller's per-chip state: the current regime, the EWMA rate
/// and residual estimates, and the sampling schedule.
#[derive(Debug, Clone, Copy, PartialEq, Deserialize)]
pub struct PilotState {
    /// Current supervision regime.
    pub regime: Regime,
    /// EWMA estimate of the chip's ΔVth rate, millivolts per epoch.
    pub rate_mv_per_epoch: f64,
    /// EWMA of the absolute telemetry residual, millivolts. A chip
    /// whose reports persistently disagree with the model is aging
    /// off-calibration and earns extra rate margin.
    pub residual_mv: f64,
    /// ΔVth at the last sample, millivolts.
    pub last_mv: f64,
    /// Epoch of the last sample.
    pub last_epoch: u64,
    /// Next epoch the chip is due for sampling.
    pub next_epoch: u64,
}

impl PilotState {
    /// A freshly enrolled chip: Calm, no history, due immediately.
    pub const FRESH: PilotState = PilotState {
        regime: Regime::Calm,
        rate_mv_per_epoch: 0.0,
        residual_mv: 0.0,
        last_mv: 0.0,
        last_epoch: 0,
        next_epoch: 0,
    };

    /// Whether the chip is due for a sample at `epoch`.
    #[must_use]
    pub fn due(&self, epoch: u64) -> bool {
        epoch >= self.next_epoch
    }
}

/// One EWMA update: `alpha` weight on the new observation.
#[must_use]
pub(crate) fn ewma(previous: f64, observed: f64, alpha: f64) -> f64 {
    alpha * observed + (1.0 - alpha) * previous
}

impl AutopilotConfig {
    /// The effective supervision rate the regime decision keys on:
    /// the EWMA timing rate, widened by the residual term (persistent
    /// model disagreement) and the memory-pressure term (a bank
    /// approaching its failure threshold must be watched even if the
    /// timing axis is quiet).
    #[must_use]
    pub fn effective_rate(&self, state: &PilotState, mem_pressure: f64) -> f64 {
        state.rate_mv_per_epoch
            + self.residual_weight * state.residual_mv
            + self.mem_pressure_rate_mv * mem_pressure.clamp(0.0, 1.0)
    }

    /// Projected epochs until the chip reaches the next bucket
    /// boundary at the given rate; infinite for a non-aging chip.
    #[must_use]
    pub fn epochs_to_boundary(rate_mv_per_epoch: f64, margin_mv: f64) -> f64 {
        if rate_mv_per_epoch > 0.0 {
            (margin_mv / rate_mv_per_epoch).max(0.0)
        } else {
            f64::INFINITY
        }
    }

    /// The regime the thresholds alone would demand (no hysteresis):
    /// rate above an entry threshold, or a projected boundary crossing
    /// within the regime's horizon, escalates.
    #[must_use]
    fn demanded(&self, rate: f64, margin_mv: f64) -> Regime {
        let horizon = Self::epochs_to_boundary(rate, margin_mv);
        if rate >= self.intervene_enter_mv || horizon <= f64::from(self.intervene_horizon_epochs) {
            Regime::Intervene
        } else if rate >= self.watch_enter_mv || horizon <= f64::from(self.watch_horizon_epochs) {
            Regime::Watch
        } else {
            Regime::Calm
        }
    }

    /// One hysteresis step of the regime machine, pure in
    /// `(current, rate, margin)`.
    ///
    /// Escalation is immediate (a chip above the Intervene threshold
    /// reaches Intervene in one step, from any regime). De-escalation
    /// requires the rate to fall below the *exit* threshold of the
    /// current regime — strictly lower than its entry threshold — and
    /// drops a single regime per observation, so noise bounded inside
    /// a hysteresis band can never flip the regime back and forth.
    #[must_use]
    pub fn step_regime(&self, current: Regime, rate: f64, margin_mv: f64) -> Regime {
        let demanded = self.demanded(rate, margin_mv);
        if demanded > current {
            return demanded;
        }
        let horizon = Self::epochs_to_boundary(rate, margin_mv);
        match current {
            Regime::Intervene
                if rate < self.intervene_exit_mv
                    && horizon > f64::from(self.intervene_horizon_epochs) =>
            {
                Regime::Watch
            }
            Regime::Watch
                if rate < self.watch_exit_mv && horizon > f64::from(self.watch_horizon_epochs) =>
            {
                Regime::Calm
            }
            other => other,
        }
    }

    /// The telemetry cadence (epochs between samples) of a regime.
    #[must_use]
    pub fn cadence_epochs(&self, regime: Regime) -> u32 {
        match regime {
            Regime::Calm => self.calm_cadence_epochs,
            Regime::Watch => self.watch_cadence_epochs,
            Regime::Intervene => self.intervene_cadence_epochs,
        }
    }

    /// Folds one granted telemetry sample into the chip's pilot state:
    /// updates the EWMA rate and residual estimates, steps the regime
    /// machine, and schedules the next sample at the (possibly new)
    /// regime's cadence.
    ///
    /// Returns the `(from, to)` pair when the regime changed.
    pub fn observe(&self, state: &mut PilotState, obs: &Observation) -> Option<(Regime, Regime)> {
        let elapsed = obs.epoch.saturating_sub(state.last_epoch).max(1);
        #[allow(clippy::cast_precision_loss)]
        let observed_rate = (obs.mv - state.last_mv).max(0.0) / elapsed as f64;
        state.rate_mv_per_epoch = ewma(state.rate_mv_per_epoch, observed_rate, self.ewma_alpha);
        if let Some(residual) = obs.residual_mv {
            state.residual_mv = ewma(state.residual_mv, residual.abs(), self.ewma_alpha);
        }
        state.last_mv = obs.mv;
        state.last_epoch = obs.epoch;

        let from = state.regime;
        let rate = self.effective_rate(state, obs.mem_pressure);
        let to = self.step_regime(from, rate, obs.margin_mv);
        state.regime = to;
        state.next_epoch = obs.epoch + self.sample_gap(to, rate, obs.margin_mv);
        (from != to).then_some((from, to))
    }

    /// Epochs until the next sample: the regime's cadence, capped at
    /// half the projected epochs-to-boundary so a sparsely-polled chip
    /// can never sleep through its own bucket crossing — the next
    /// sample always lands on the near side of the boundary even if
    /// the rate estimate runs a little low.
    #[must_use]
    pub fn sample_gap(&self, regime: Regime, rate: f64, margin_mv: f64) -> u64 {
        let cadence = f64::from(self.cadence_epochs(regime));
        let horizon = Self::epochs_to_boundary(rate, margin_mv);
        let cap = if horizon.is_finite() {
            (horizon * 0.5).floor().max(1.0)
        } else {
            cadence
        };
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let gap = cadence.min(cap).max(1.0) as u64;
        gap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regimes_order_by_escalation() {
        assert!(Regime::Calm < Regime::Watch);
        assert!(Regime::Watch < Regime::Intervene);
        assert_eq!(
            Regime::ALL.map(Regime::name),
            ["calm", "watch", "intervene"]
        );
    }

    #[test]
    fn fresh_state_is_due_immediately() {
        assert!(PilotState::FRESH.due(0));
        assert_eq!(PilotState::FRESH.regime, Regime::Calm);
    }

    #[test]
    fn escalation_is_immediate_and_deescalation_steps_once() {
        let config = AutopilotConfig::demo();
        let wide = 1e6; // boundary far away: thresholds alone decide
        let hot = config.intervene_enter_mv + 1.0;
        assert_eq!(
            config.step_regime(Regime::Calm, hot, wide),
            Regime::Intervene,
            "a hot chip escalates straight past Watch"
        );
        let cold = config.watch_exit_mv / 2.0;
        assert_eq!(
            config.step_regime(Regime::Intervene, cold, wide),
            Regime::Watch,
            "de-escalation drops one regime per observation"
        );
        assert_eq!(config.step_regime(Regime::Watch, cold, wide), Regime::Calm);
    }

    #[test]
    fn rates_inside_the_hysteresis_band_hold_the_regime() {
        let config = AutopilotConfig::demo();
        let wide = 1e6;
        let in_band = (config.watch_exit_mv + config.watch_enter_mv) / 2.0;
        assert_eq!(
            config.step_regime(Regime::Calm, in_band, wide),
            Regime::Calm
        );
        assert_eq!(
            config.step_regime(Regime::Watch, in_band, wide),
            Regime::Watch
        );
    }

    #[test]
    fn boundary_horizon_escalates_a_slow_chip() {
        let config = AutopilotConfig::demo();
        let slow = config.watch_exit_mv / 2.0; // rate alone says Calm
        let margin = slow * f64::from(config.intervene_horizon_epochs) * 0.5;
        assert_eq!(
            config.step_regime(Regime::Calm, slow, margin),
            Regime::Intervene,
            "a boundary inside the Intervene horizon overrides the rate"
        );
    }

    #[test]
    fn observe_converges_the_ewma_and_schedules_the_next_sample() {
        let config = AutopilotConfig::demo();
        let mut state = PilotState::FRESH;
        let mut mv = 0.0;
        for epoch in 1..=24 {
            mv += 4.0; // a steady 4 mV/epoch: well above intervene_enter
            config.observe(
                &mut state,
                &Observation {
                    epoch,
                    mv,
                    margin_mv: 1e6,
                    residual_mv: None,
                    mem_pressure: 0.0,
                },
            );
        }
        assert!(
            (state.rate_mv_per_epoch - 4.0).abs() < 1e-6,
            "EWMA converges"
        );
        assert_eq!(state.regime, Regime::Intervene);
        assert_eq!(
            state.next_epoch,
            24 + u64::from(config.intervene_cadence_epochs)
        );
    }

    #[test]
    fn the_sample_gap_never_sleeps_past_a_projected_boundary() {
        let config = AutopilotConfig::demo();
        // A Calm chip 20 epochs from its boundary must not take its
        // full 32-epoch nap: the gap is capped at half the projection.
        let rate = 1.0;
        let gap = config.sample_gap(Regime::Calm, rate, 20.0 * rate);
        assert_eq!(gap, 10);
        // Far from any boundary the regime cadence rules.
        assert_eq!(
            config.sample_gap(Regime::Calm, rate, 1e9),
            u64::from(config.calm_cadence_epochs)
        );
        // Right on top of the boundary the gap floors at one epoch.
        assert_eq!(config.sample_gap(Regime::Intervene, rate, 0.5), 1);
    }

    #[test]
    fn memory_pressure_escalates_a_timing_quiet_chip() {
        let config = AutopilotConfig::demo();
        let state = PilotState {
            rate_mv_per_epoch: 0.0,
            ..PilotState::FRESH
        };
        let rate = config.effective_rate(&state, 1.0);
        assert!(
            rate >= config.intervene_enter_mv,
            "full memory pressure alone must demand Intervene, got {rate}"
        );
    }

    #[test]
    fn residuals_widen_the_effective_rate() {
        let config = AutopilotConfig::demo();
        let mut state = PilotState::FRESH;
        state.residual_mv = 2.0;
        assert!(config.effective_rate(&state, 0.0) > 0.0);
    }
}
