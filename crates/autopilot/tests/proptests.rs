//! Property tests pinning the control-theoretic invariants of the
//! autopilot: hysteresis kills chattering, escalation is monotone in
//! the rate, and the telemetry budget is conserved.

use agequant_autopilot::{AutopilotConfig, BudgetState, Grant, Observation, PilotState, Regime};
use proptest::prelude::*;

/// A margin large enough that the boundary-horizon guard never fires,
/// leaving the rate thresholds alone in charge.
const WIDE_MARGIN_MV: f64 = 1e9;

fn observe_rate(config: &AutopilotConfig, state: &mut PilotState, epoch: u64, rate: f64) {
    let mv = state.last_mv + rate;
    config.observe(
        state,
        &Observation {
            epoch,
            mv,
            margin_mv: WIDE_MARGIN_MV,
            residual_mv: None,
            mem_pressure: 0.0,
        },
    );
}

proptest! {
    /// No chattering: once the EWMA has settled inside a hysteresis
    /// band, rate noise bounded within that band never flips the
    /// regime again — the flip count over an arbitrarily long window
    /// is at most the number of bands the settled point crossed
    /// (here: one escalation, then zero).
    #[test]
    fn bounded_noise_inside_a_band_never_chatters(
        noise in prop::collection::vec(0.0f64..1.0, 8..96),
        watch_band in any::<bool>(),
    ) {
        let config = AutopilotConfig::demo();
        // The open hysteresis band the rate will wander inside.
        let (lo, hi) = if watch_band {
            (config.watch_exit_mv, config.watch_enter_mv)
        } else {
            (config.intervene_exit_mv, config.intervene_enter_mv)
        };
        let mut state = PilotState::FRESH;
        // Settle the EWMA mid-band first (direct observations).
        let mid = (lo + hi) / 2.0;
        let mut epoch = 0u64;
        for _ in 0..64 {
            epoch += 1;
            observe_rate(&config, &mut state, epoch, mid);
        }
        let settled = state.regime;
        // Rate noise strictly inside the band: the EWMA is a convex
        // combination of in-band values, so it stays in-band, and the
        // regime must never move.
        let mut flips = 0usize;
        for n in &noise {
            epoch += 1;
            let margin = 1e-6 * (hi - lo);
            let rate = lo + margin + n * (hi - lo - 2.0 * margin);
            let before = state.regime;
            observe_rate(&config, &mut state, epoch, rate);
            if state.regime != before {
                flips += 1;
            }
        }
        prop_assert_eq!(
            flips, 0,
            "regime flipped {} times inside the ({}, {}) band from {:?}",
            flips, lo, hi, settled
        );
    }

    /// Monotone escalation: a rate at or above the Intervene entry
    /// threshold reaches Intervene — in a single step of the pure
    /// machine from any regime, and within a bounded number of
    /// sustained observations through the EWMA.
    #[test]
    fn rates_above_the_intervene_threshold_always_intervene(
        excess in 0.0f64..50.0,
        start in 0usize..3,
    ) {
        let config = AutopilotConfig::demo();
        let rate = config.intervene_enter_mv + excess;
        let from = Regime::ALL[start];
        prop_assert_eq!(
            config.step_regime(from, rate, WIDE_MARGIN_MV),
            Regime::Intervene,
            "pure step from {:?} at rate {}", from, rate
        );
        // Through the estimator: sustained observations converge the
        // EWMA geometrically, so 64 epochs is far past the worst case.
        let mut state = PilotState::FRESH;
        for epoch in 1..=64 {
            observe_rate(&config, &mut state, epoch, rate);
        }
        prop_assert_eq!(state.regime, Regime::Intervene);
    }

    /// Budget conservation: over any demand sequence, grants never
    /// exceed the tokens the bucket ever held plus the audited
    /// Intervene overdraft, the bucket never exceeds its burst
    /// ceiling, deferrals only happen on an empty bucket, and no
    /// Intervene request is ever deferred.
    #[test]
    fn telemetry_grants_never_exceed_the_budget(
        per_epoch in 1u64..32,
        burst in 0u64..32,
        regimes in prop::collection::vec(0usize..3, 1..64),
        counts in prop::collection::vec(0u8..24, 1..64),
    ) {
        let config = AutopilotConfig {
            budget_messages_per_epoch: per_epoch,
            budget_burst: per_epoch + burst,
            ..AutopilotConfig::demo()
        };
        let mut budget = BudgetState::fresh(&config);
        let mut supplied = budget.tokens;
        // Demand arrives as epochs of (regime, request-count) bursts,
        // issued in priority order as the controller contract demands.
        let demand: Vec<(usize, u8)> = regimes
            .iter()
            .zip(counts.iter().cycle())
            .map(|(&r, &c)| (r, c))
            .collect();
        for chunk in demand.chunks(3) {
            config.refill(&mut budget);
            supplied += config.budget_messages_per_epoch;
            let mut requests: Vec<(usize, u8)> = chunk.to_vec();
            requests.sort_by_key(|&(regime_idx, _)| std::cmp::Reverse(regime_idx));
            for &(regime_idx, count) in &requests {
                let regime = Regime::ALL[regime_idx];
                for _ in 0..count {
                    let tokens_before = budget.tokens;
                    let grant = config.request(&mut budget, regime);
                    match grant {
                        Grant::Granted => {}
                        Grant::Deferred => {
                            prop_assert_eq!(tokens_before, 0, "deferred with tokens in hand");
                            prop_assert!(
                                regime != Regime::Intervene,
                                "an Intervene request was starved"
                            );
                        }
                    }
                }
            }
            prop_assert!(budget.tokens <= config.budget_burst, "bucket exceeded burst");
        }
        prop_assert!(
            budget.granted <= supplied + budget.overdraft,
            "granted {} exceeds supplied {} + overdraft {}",
            budget.granted, supplied, budget.overdraft
        );
        prop_assert!(
            budget.granted + budget.tokens >= budget.overdraft,
            "ledger inconsistent"
        );
    }
}
