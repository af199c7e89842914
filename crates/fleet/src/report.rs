//! Fleet-level summary reports.
//!
//! [`FleetSummary`] rolls a [`FleetState`] up into the numbers an
//! operator cares about: how the fleet splits across plans and aging
//! buckets, the accuracy-loss percentiles of the deployed
//! quantizations (reusing the quant method library's measurements),
//! and — for a live simulator — the evaluation-engine cache counters
//! proving that fleet-scale replanning amortizes.

use std::collections::{BTreeMap, HashMap};

use agequant_autopilot::{BudgetState, Regime};
use agequant_core::CacheStats;
use agequant_sta::{Compression, Padding};
use serde::{Deserialize, Serialize};

use crate::checkpoint::ChipView;
use crate::chip::ChipMode;
use crate::sim::{FleetConfig, FleetState};

/// One row of the plan-distribution histogram.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanBin {
    /// Human-readable plan label, e.g. `"(3,1)/MSB @ bucket 4"`, or
    /// `"guardband"` for degraded chips.
    pub label: String,
    /// Number of chips currently on this plan.
    pub count: usize,
}

/// Accuracy-loss percentiles across the fleet's deployed plans.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LossPercentiles {
    /// Median accuracy loss, percent.
    pub p50: f64,
    /// 90th-percentile accuracy loss, percent.
    pub p90: f64,
    /// 99th-percentile accuracy loss, percent.
    pub p99: f64,
}

/// Serializable view of the engine's [`CacheStats`], with the derived
/// hit rates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheSummary {
    /// Library lookups served from the cache.
    pub library_hits: u64,
    /// Library lookups that ran characterization.
    pub library_misses: u64,
    /// Plan lookups served from the cache.
    pub plan_hits: u64,
    /// Plan lookups that ran the full grid scan.
    pub plan_misses: u64,
    /// Plan-cache hit rate in `[0, 1]`.
    pub plan_hit_rate: f64,
    /// Library-cache hit rate in `[0, 1]`.
    pub library_hit_rate: f64,
    /// Combined hit rate in `[0, 1]`.
    pub hit_rate: f64,
}

impl From<CacheStats> for CacheSummary {
    fn from(stats: CacheStats) -> Self {
        CacheSummary {
            library_hits: stats.library_hits,
            library_misses: stats.library_misses,
            plan_hits: stats.plan_hits,
            plan_misses: stats.plan_misses,
            plan_hit_rate: stats.plan_hit_rate(),
            library_hit_rate: stats.library_hit_rate(),
            hit_rate: stats.hit_rate(),
        }
    }
}

/// One degradation model's slice of the engine cache counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelCacheSummary {
    /// The model's stable cache key (e.g. `"nbti"`, `"hci"`).
    pub model: String,
    /// The counters attributed to that model.
    pub cache: CacheSummary,
}

/// The weight-memory axis rolled up across the fleet. Present only
/// when the fleet runs with a memory configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemorySummary {
    /// Chips carrying a tracked memory state.
    pub tracked: usize,
    /// Total re-encodes spent across the fleet so far.
    pub reencodes: u64,
    /// Chips whose memory axis degraded (worst-bit failure probability
    /// crossed the degrade threshold with no useful re-encode left).
    pub memory_degraded: usize,
    /// Chips that are memory-degraded while their MAC timing is still
    /// compressed — the failure mode the second axis exists to expose.
    pub timing_healthy_memory_degraded: usize,
    /// Worst per-chip worst-bit failure probability in the fleet.
    pub worst_failure_prob: f64,
    /// Mean per-chip worst-bit failure probability.
    pub mean_failure_prob: f64,
}

/// The closed-loop autopilot rolled up across the fleet. Present only
/// when the fleet runs with an autopilot configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AutopilotSummary {
    /// Chips enrolled in the control loop (carrying a pilot state).
    pub enrolled: usize,
    /// Chips currently in the Calm regime (sparse polling).
    pub calm: usize,
    /// Chips currently in the Watch regime (tight cadence + prefetch).
    pub watch: usize,
    /// Chips currently in the Intervene regime (proactive replanning).
    pub intervene: usize,
    /// Telemetry-budget tokens currently in the bucket.
    pub budget_tokens: u64,
    /// Telemetry messages granted over the fleet's lifetime.
    pub messages_granted: u64,
    /// Telemetry messages deferred by budget starvation.
    pub messages_deferred: u64,
    /// Grants issued past an empty bucket to Intervene chips, which
    /// are never starved.
    pub overdraft_grants: u64,
}

/// The fleet rolled up at one epoch.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct FleetSummary {
    /// The epoch the summary describes.
    pub epoch: u64,
    /// Wall-clock years elapsed.
    pub years: f64,
    /// Fleet size.
    pub chips: usize,
    /// Chips running compressed (guardband-free).
    pub compressed: usize,
    /// Chips degraded to the guardbanded fallback clock.
    pub degraded: usize,
    /// Chips per current plan, alphabetical by label.
    pub plan_histogram: Vec<PlanBin>,
    /// Chips per aging bucket, ascending.
    pub bucket_histogram: Vec<PlanBin>,
    /// Accuracy-loss percentiles over chips with method selection.
    pub accuracy_loss: Option<LossPercentiles>,
    /// Engine cache counters (live simulators only; a summary computed
    /// from a checkpoint alone has no engine attached).
    pub cache: Option<CacheSummary>,
    /// The same counters split per degradation model; populated by
    /// [`FleetSim::summary`](crate::FleetSim::summary) alongside
    /// `cache`.
    pub cache_by_model: Option<Vec<ModelCacheSummary>>,
    /// Weight-memory axis rollup; `None` when the fleet runs without a
    /// memory configuration.
    pub memory: Option<MemorySummary>,
    /// Autopilot regime/budget rollup; `None` when the fleet runs
    /// without an autopilot configuration.
    pub autopilot: Option<AutopilotSummary>,
}

// Manual impl so a memory-disabled summary serializes byte-identically
// to the pre-memory format: the `memory` key is omitted (not `null`)
// when absent, while the longstanding optional fields keep their
// explicit `null`s.
impl Serialize for FleetSummary {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("epoch".to_string(), self.epoch.to_value()),
            ("years".to_string(), self.years.to_value()),
            ("chips".to_string(), self.chips.to_value()),
            ("compressed".to_string(), self.compressed.to_value()),
            ("degraded".to_string(), self.degraded.to_value()),
            ("plan_histogram".to_string(), self.plan_histogram.to_value()),
            (
                "bucket_histogram".to_string(),
                self.bucket_histogram.to_value(),
            ),
            ("accuracy_loss".to_string(), self.accuracy_loss.to_value()),
            ("cache".to_string(), self.cache.to_value()),
            ("cache_by_model".to_string(), self.cache_by_model.to_value()),
        ];
        if let Some(memory) = &self.memory {
            fields.push(("memory".to_string(), memory.to_value()));
        }
        if let Some(autopilot) = &self.autopilot {
            fields.push(("autopilot".to_string(), autopilot.to_value()));
        }
        serde::Value::Map(fields)
    }
}

/// The `p`-th percentile of `sorted` (nearest-rank on a sorted
/// slice), or `None` for an empty slice. The empty case used to be a
/// `debug_assert!` only — in a release build `sorted.len() - 1`
/// wrapped and the index panicked; returning `Option` makes a fleet
/// with no selected methods a representable summary, not a crash.
fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    Some(sorted[idx.min(sorted.len() - 1)])
}

impl FleetSummary {
    /// Summarizes a state; pass the live engine's counters when
    /// available.
    #[must_use]
    pub fn from_state(state: &FleetState, cache: Option<CacheStats>) -> Self {
        Self::from_views(
            &state.config,
            state.epoch,
            state.autopilot.as_ref(),
            state.chips.iter().map(ChipView::of),
            cache,
        )
    }

    /// Summarizes a fleet from borrowed chip views, in id order: what
    /// [`FleetSummary::from_state`] and a live
    /// [`FleetSim::summary`](crate::FleetSim::summary) both run, the
    /// latter straight from the shard columns without cloning a chip.
    /// Plan labels are formatted once per distinct plan, not per chip,
    /// and the memory cell is calibrated once per summary.
    pub(crate) fn from_views<'a>(
        config: &FleetConfig,
        epoch: u64,
        budget: Option<&BudgetState>,
        chips: impl Iterator<Item = ChipView<'a>>,
        cache: Option<CacheStats>,
    ) -> Self {
        let mut plans: HashMap<Option<(Compression, Padding, u64)>, usize> = HashMap::new();
        let mut buckets: BTreeMap<u64, usize> = BTreeMap::new();
        let mut losses: Vec<f64> = Vec::new();
        let mut chip_count = 0usize;
        let mut compressed = 0usize;
        let mut degraded = 0usize;
        let mut failure_prob_total = 0.0f64;
        let cell = config
            .memory
            .as_ref()
            .map(|memory| memory.cell.calibrated());
        let mut memory = config.memory.as_ref().map(|_| MemorySummary {
            tracked: 0,
            reencodes: 0,
            memory_degraded: 0,
            timing_healthy_memory_degraded: 0,
            worst_failure_prob: 0.0,
            mean_failure_prob: 0.0,
        });
        let mut autopilot = config.autopilot.as_ref().map(|_| AutopilotSummary {
            enrolled: 0,
            calm: 0,
            watch: 0,
            intervene: 0,
            budget_tokens: budget.map_or(0, |b| b.tokens),
            messages_granted: budget.map_or(0, |b| b.granted),
            messages_deferred: budget.map_or(0, |b| b.deferred),
            overdraft_grants: budget.map_or(0, |b| b.overdraft),
        });
        for chip in chips {
            chip_count += 1;
            *buckets.entry(chip.bucket).or_insert(0) += 1;
            match chip.mode {
                ChipMode::Compressed => compressed += 1,
                ChipMode::Guardband => degraded += 1,
            }
            let plan_key = chip
                .plan
                .map(|plan| (plan.plan.compression, plan.plan.padding, plan.bucket));
            *plans.entry(plan_key).or_insert(0) += 1;
            if let Some(loss) = chip.plan.and_then(|p| p.accuracy_loss_pct) {
                losses.push(loss);
            }
            if let (Some(summary), Some(cell), Some(mem)) = (&mut memory, &cell, &chip.mem) {
                summary.tracked += 1;
                summary.reencodes += u64::from(mem.reencodes);
                if mem.degraded {
                    summary.memory_degraded += 1;
                    if chip.mode == ChipMode::Compressed {
                        summary.timing_healthy_memory_degraded += 1;
                    }
                }
                let prob = cell.failure_prob_at_exposure(mem.worst_stress_years());
                summary.worst_failure_prob = summary.worst_failure_prob.max(prob);
                failure_prob_total += prob;
            }
            if let (Some(summary), Some(pilot)) = (&mut autopilot, &chip.pilot) {
                summary.enrolled += 1;
                match pilot.regime {
                    Regime::Calm => summary.calm += 1,
                    Regime::Watch => summary.watch += 1,
                    Regime::Intervene => summary.intervene += 1,
                }
            }
        }
        if let Some(summary) = memory.as_mut().filter(|s| s.tracked > 0) {
            #[allow(clippy::cast_precision_loss)]
            let tracked = summary.tracked as f64;
            summary.mean_failure_prob = failure_prob_total / tracked;
        }
        losses.sort_by(|a, b| a.partial_cmp(b).expect("losses are finite"));
        let accuracy_loss = match (
            percentile(&losses, 50.0),
            percentile(&losses, 90.0),
            percentile(&losses, 99.0),
        ) {
            (Some(p50), Some(p90), Some(p99)) => Some(LossPercentiles { p50, p90, p99 }),
            _ => None,
        };
        let mut plan_histogram: BTreeMap<String, usize> = BTreeMap::new();
        for (key, count) in plans {
            let label = match key {
                Some((compression, padding, bucket)) => format!(
                    "({},{})/{padding} @ bucket {bucket}",
                    compression.alpha(),
                    compression.beta()
                ),
                None => "guardband".to_string(),
            };
            *plan_histogram.entry(label).or_insert(0) += count;
        }
        #[allow(clippy::cast_precision_loss)]
        let years = epoch as f64 * config.epoch_years;
        FleetSummary {
            epoch,
            years,
            chips: chip_count,
            compressed,
            degraded,
            plan_histogram: plan_histogram
                .into_iter()
                .map(|(label, count)| PlanBin { label, count })
                .collect(),
            bucket_histogram: buckets
                .into_iter()
                .map(|(bucket, count)| PlanBin {
                    label: format!("bucket {bucket}"),
                    count,
                })
                .collect(),
            accuracy_loss,
            cache: cache.map(CacheSummary::from),
            cache_by_model: None,
            memory,
            autopilot,
        }
    }

    /// Renders the summary as a human-readable report.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fleet @ epoch {} ({:.1} y): {} chips, {} compressed, {} degraded\n",
            self.epoch, self.years, self.chips, self.compressed, self.degraded
        ));
        out.push_str("plan distribution:\n");
        for bin in &self.plan_histogram {
            out.push_str(&format!("  {:>6}  {}\n", bin.count, bin.label));
        }
        out.push_str("aging buckets:\n");
        for bin in &self.bucket_histogram {
            out.push_str(&format!("  {:>6}  {}\n", bin.count, bin.label));
        }
        if let Some(loss) = &self.accuracy_loss {
            out.push_str(&format!(
                "accuracy loss: p50 {:.2}%  p90 {:.2}%  p99 {:.2}%\n",
                loss.p50, loss.p90, loss.p99
            ));
        }
        if let Some(memory) = &self.memory {
            out.push_str(&format!(
                "memory: {} tracked, {} re-encodes, {} degraded ({} timing-healthy), worst p {:.2e}, mean p {:.2e}\n",
                memory.tracked,
                memory.reencodes,
                memory.memory_degraded,
                memory.timing_healthy_memory_degraded,
                memory.worst_failure_prob,
                memory.mean_failure_prob
            ));
        }
        if let Some(autopilot) = &self.autopilot {
            out.push_str(&format!(
                "autopilot: {} enrolled — {} calm, {} watch, {} intervene; budget {} tokens, {} granted, {} deferred, {} overdraft\n",
                autopilot.enrolled,
                autopilot.calm,
                autopilot.watch,
                autopilot.intervene,
                autopilot.budget_tokens,
                autopilot.messages_granted,
                autopilot.messages_deferred,
                autopilot.overdraft_grants
            ));
        }
        if let Some(cache) = &self.cache {
            out.push_str(&format!(
                "engine cache: plan {}/{} hits (hit rate {:.4}), library {}/{} hits, overall hit rate {:.4}\n",
                cache.plan_hits,
                cache.plan_hits + cache.plan_misses,
                cache.plan_hit_rate,
                cache.library_hits,
                cache.library_hits + cache.library_misses,
                cache.hit_rate
            ));
        }
        if let Some(by_model) = &self.cache_by_model {
            for entry in by_model {
                out.push_str(&format!(
                    "  model {}: plan {}/{} hits, library {}/{} hits\n",
                    entry.model,
                    entry.cache.plan_hits,
                    entry.cache.plan_hits + entry.cache.plan_misses,
                    entry.cache.library_hits,
                    entry.cache.library_hits + entry.cache.library_misses
                ));
            }
        }
        out
    }

    /// Serializes the summary to pretty-printed JSON.
    ///
    /// # Panics
    ///
    /// Panics if serialization fails (the summary is plain data, so it
    /// cannot).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("FleetSummary serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{FleetConfig, FleetSim};

    #[test]
    fn summary_counts_the_whole_fleet() {
        let sim = FleetSim::new(FleetConfig::new(16, 3)).expect("valid config");
        let summary = sim.summary();
        assert_eq!(summary.chips, 16);
        assert_eq!(summary.compressed + summary.degraded, 16);
        let histo: usize = summary.plan_histogram.iter().map(|b| b.count).sum();
        assert_eq!(histo, 16);
        let buckets: usize = summary.bucket_histogram.iter().map(|b| b.count).sum();
        assert_eq!(buckets, 16);
        let cache = summary.cache.expect("live sim reports cache stats");
        assert!(cache.plan_misses >= 1);
        let text = summary.render_text();
        assert!(text.contains("hit rate"));
        assert!(text.contains("plan distribution"));
    }

    #[test]
    fn summary_json_round_trips() {
        let sim = FleetSim::new(FleetConfig::new(4, 9)).expect("valid config");
        let summary = sim.summary();
        let back: FleetSummary = serde_json::from_str(&summary.to_json()).expect("parses");
        assert_eq!(back, summary);
    }

    /// A live summary, built from the shard columns, and a checkpoint's
    /// summary, built from materialized chips, agree field for field
    /// (cache counters aside: a checkpoint has no engine).
    #[test]
    fn live_and_checkpoint_summaries_agree() {
        let mut config = FleetConfig::new(48, 5);
        config.epoch_years = 2.0;
        config.memory = Some(agequant_mem::MemoryConfig::demo());
        config.autopilot = Some(agequant_autopilot::AutopilotConfig::demo());
        let mut sim = FleetSim::new_sharded(config, 3).expect("valid config");
        sim.run(8).expect("steps");
        let mut live = sim.summary();
        live.cache = None;
        live.cache_by_model = None;
        let from_state = FleetSummary::from_state(&sim.to_state(), None);
        assert!(from_state.memory.is_some_and(|m| m.tracked == 48));
        assert!(from_state.autopilot.is_some_and(|a| a.enrolled == 48));
        assert!(from_state.plan_histogram.len() > 1, "several plans in use");
        assert_eq!(live, from_state);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), Some(51.0));
        assert_eq!(percentile(&sorted, 99.0), Some(99.0));
        assert_eq!(percentile(&sorted, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
    }

    /// Regression: an empty slice must report `None`, not wrap
    /// `len - 1` and panic in release builds.
    #[test]
    fn percentile_of_nothing_is_none() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[], 0.0), None);
        assert_eq!(percentile(&[], 100.0), None);
    }

    /// Regression for the empty-losses path end to end: a fleet with
    /// no selected quantization method (no `network` configured) has
    /// no accuracy losses to rank, and its summary must carry
    /// `accuracy_loss: None` instead of panicking.
    #[test]
    fn fleet_without_method_selection_summarizes_without_percentiles() {
        let config = FleetConfig::new(6, 17);
        assert!(config.network.is_none(), "default fleet selects no method");
        let sim = FleetSim::new(config).expect("valid config");
        let summary = sim.summary();
        assert_eq!(summary.accuracy_loss, None);
        assert_eq!(summary.chips, 6);
        // The report renders without an accuracy-loss line.
        assert!(!summary.render_text().contains("accuracy loss"));
    }
}
