//! The fleet-wide telemetry token bucket.

use serde::Deserialize;

use crate::config::AutopilotConfig;
use crate::regime::Regime;

/// The fleet-level budget ledger: the live token count plus lifetime
/// counters, checkpointed with the fleet so a resumed run continues
/// the same accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
pub struct BudgetState {
    /// Tokens currently in the bucket.
    pub tokens: u64,
    /// Telemetry messages granted over the run.
    pub granted: u64,
    /// Samples deferred (Calm/Watch chips that found the bucket
    /// empty) over the run.
    pub deferred: u64,
    /// Intervene grants taken from an empty bucket. Intervene chips
    /// are never starved; the overdraft is counted instead, so budget
    /// pressure stays visible rather than silently eating safety.
    pub overdraft: u64,
}

impl BudgetState {
    /// A fresh ledger with a full burst bucket.
    #[must_use]
    pub fn fresh(config: &AutopilotConfig) -> Self {
        BudgetState {
            tokens: config.budget_burst,
            granted: 0,
            deferred: 0,
            overdraft: 0,
        }
    }
}

/// Outcome of one telemetry cadence request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grant {
    /// The sample may be taken this epoch.
    Granted,
    /// The bucket is empty; the sample waits for the next epoch.
    Deferred,
}

impl AutopilotConfig {
    /// Starts an epoch: refills the bucket by the per-epoch budget,
    /// clamped at the burst ceiling.
    pub fn refill(&self, budget: &mut BudgetState) {
        budget.tokens = budget
            .tokens
            .saturating_add(self.budget_messages_per_epoch)
            .min(self.budget_burst);
    }

    /// Requests one telemetry message for a chip in `regime`.
    ///
    /// Callers must issue requests in regime-priority order (Intervene
    /// first, Calm last) so graceful degradation starves the right
    /// chips: with the bucket empty, Calm and Watch samples defer
    /// while Intervene samples are granted against the overdraft
    /// counter — an Intervene chip is never left unsampled.
    pub fn request(&self, budget: &mut BudgetState, regime: Regime) -> Grant {
        if budget.tokens > 0 {
            budget.tokens -= 1;
            budget.granted += 1;
            Grant::Granted
        } else if regime == Regime::Intervene {
            budget.overdraft += 1;
            budget.granted += 1;
            Grant::Granted
        } else {
            budget.deferred += 1;
            Grant::Deferred
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_budget() -> AutopilotConfig {
        AutopilotConfig {
            budget_messages_per_epoch: 2,
            budget_burst: 2,
            ..AutopilotConfig::demo()
        }
    }

    #[test]
    fn calm_chips_are_starved_first_and_intervene_never() {
        let config = tiny_budget();
        let mut budget = BudgetState::fresh(&config);
        assert_eq!(
            config.request(&mut budget, Regime::Intervene),
            Grant::Granted
        );
        assert_eq!(config.request(&mut budget, Regime::Watch), Grant::Granted);
        // Bucket empty: Calm defers, Intervene overdrafts.
        assert_eq!(config.request(&mut budget, Regime::Calm), Grant::Deferred);
        assert_eq!(
            config.request(&mut budget, Regime::Intervene),
            Grant::Granted
        );
        assert_eq!(budget.granted, 3);
        assert_eq!(budget.deferred, 1);
        assert_eq!(budget.overdraft, 1);
    }

    #[test]
    fn refill_clamps_at_the_burst_ceiling() {
        let config = tiny_budget();
        let mut budget = BudgetState::fresh(&config);
        config.refill(&mut budget);
        assert_eq!(budget.tokens, config.budget_burst);
        budget.tokens = 1;
        config.refill(&mut budget);
        assert_eq!(budget.tokens, 2);
    }
}
