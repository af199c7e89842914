//! The per-chip model: a process-variation-perturbed degradation
//! model plus a workload-dependent mission profile.
//!
//! Each deployed NPU ages at its own pace: its calibration (end-of-life
//! shift and time exponent) varies with the process corner, and its
//! effective stress depends on what the chip actually runs (Genssler
//! et al. model exactly this workload dependency). A [`Chip`] samples
//! both — seeded, so a fleet is reproducible from its configuration
//! alone. Process variation is expressed as "perturb the configured
//! model's [`TechProfile`]", so every [`ModelSpec`] kind (NBTI, HCI,
//! surrogate) inherits per-chip heterogeneity for free.

use agequant_aging::{DegradationModel, MissionProfile, ModelSpec, Phase, TechProfile, VthShift};
use agequant_core::CompressionPlan;
use agequant_quant::QuantMethod;
use serde::Deserialize;

use crate::rng::FleetRng;

/// The mission-profile catalog: coarse deployment archetypes chips are
/// drawn from (each instance additionally gets per-chip jitter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
pub enum MissionKind {
    /// Always-on datacenter inference: high utilization, hot.
    DatacenterAlwaysOn,
    /// Duty-cycled edge device: bursts of work, long cool idle.
    EdgeDutyCycled,
    /// Mostly-idle burst inference (e.g. a camera trigger path).
    BurstInference,
}

impl MissionKind {
    /// Every catalog entry, in sampling order.
    pub const ALL: [MissionKind; 3] = [
        MissionKind::DatacenterAlwaysOn,
        MissionKind::EdgeDutyCycled,
        MissionKind::BurstInference,
    ];

    /// Stable lowercase name for reports and journals.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MissionKind::DatacenterAlwaysOn => "datacenter-always-on",
            MissionKind::EdgeDutyCycled => "edge-duty-cycled",
            MissionKind::BurstInference => "burst-inference",
        }
    }

    /// The nominal (un-jittered) phase schedule of this archetype.
    fn nominal_phases(self) -> Vec<Phase> {
        match self {
            MissionKind::DatacenterAlwaysOn => vec![Phase {
                fraction: 1.0,
                duty_cycle: 0.85,
                temperature_c: 80.0,
            }],
            MissionKind::EdgeDutyCycled => vec![
                Phase {
                    fraction: 0.35,
                    duty_cycle: 0.7,
                    temperature_c: 65.0,
                },
                Phase {
                    fraction: 0.65,
                    duty_cycle: 0.05,
                    temperature_c: 35.0,
                },
            ],
            MissionKind::BurstInference => vec![
                Phase {
                    fraction: 0.1,
                    duty_cycle: 0.95,
                    temperature_c: 75.0,
                },
                Phase {
                    fraction: 0.9,
                    duty_cycle: 0.02,
                    temperature_c: 30.0,
                },
            ],
        }
    }

    /// How many phases this archetype's schedule has — the number of
    /// per-phase jitter draw pairs [`Chip::sample`] consumes, used by
    /// the shard substream replay to skip a chip without materializing
    /// it.
    #[must_use]
    pub fn phase_count(self) -> usize {
        match self {
            MissionKind::DatacenterAlwaysOn => 1,
            MissionKind::EdgeDutyCycled | MissionKind::BurstInference => 2,
        }
    }

    /// Samples a per-chip instance of this archetype: each phase's duty
    /// cycle and temperature get bounded jitter; fractions stay fixed
    /// so they keep summing to 1 exactly.
    fn sample_profile(self, rng: &mut FleetRng) -> MissionProfile {
        let phases: Vec<Phase> = self
            .nominal_phases()
            .into_iter()
            .map(|p| Phase {
                fraction: p.fraction,
                duty_cycle: (p.duty_cycle * rng.uniform(0.85, 1.15)).clamp(0.0, 1.0),
                temperature_c: p.temperature_c + rng.uniform(-5.0, 5.0),
            })
            .collect();
        MissionProfile::new(phases).expect("jitter stays inside the catalog's valid ranges")
    }
}

/// Spread of the per-chip process variation around the configured
/// model's calibration: the sampled end-of-life shift lies within
/// ±10% of the profile's nominal (50 mV on the default 14 nm profile)
/// and the time exponent `n` within ±6% of its nominal (0.17) —
/// modest corner-to-corner spreads of the kind aging characterization
/// reports.
const EOL_JITTER: f64 = 0.10;
const EXPONENT_JITTER: f64 = 0.06;

/// How a chip is currently closing timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
pub enum ChipMode {
    /// Timing is met by the planned `(α, β)` input compression at the
    /// fleet's constraint — the paper's guardband-free operation.
    Compressed,
    /// No compression closes timing at the chip's aging level; the
    /// chip fell back to a conventional guardbanded (slower) clock.
    Guardband,
}

/// Per-chip weight-memory aging state — the second failure axis
/// beyond MAC timing. Weight SRAM holds near-constant data for years,
/// so each bitcell's stressed side accumulates NBTI exposure set by
/// the stored duty asymmetry; a polarity re-encode moves the stress to
/// the complementary side. The state tracks both sides' accumulated
/// equivalent full-stress years: the *active* side is the one
/// currently under stress, the *spare* side is whichever polarity was
/// stressed before the last re-encode. Worst-bit failure probability
/// is evaluated at the larger of the two, so it is monotone
/// non-decreasing over the mission — re-encoding never heals damage,
/// it only redirects further accumulation.
#[derive(Debug, Clone, Copy, PartialEq, Deserialize)]
pub struct ChipMemState {
    /// Polarity re-encodes completed so far.
    pub reencodes: u32,
    /// Whether the memory axis crossed the degrade threshold with no
    /// useful re-encode left.
    pub degraded: bool,
    /// Equivalent full-stress years accumulated by the currently
    /// stressed storage polarity.
    pub stress_active_years: f64,
    /// Equivalent full-stress years accumulated by the complementary
    /// polarity (stressed before the last re-encode).
    pub stress_spare_years: f64,
}

impl ChipMemState {
    /// The state of a chip fresh out of the fab: no stress on either
    /// polarity, full re-encode budget.
    pub const FRESH: ChipMemState = ChipMemState {
        reencodes: 0,
        degraded: false,
        stress_active_years: 0.0,
        stress_spare_years: 0.0,
    };

    /// The exposure of the worse-off polarity — what the worst-bit
    /// failure probability is evaluated at.
    #[must_use]
    pub fn worst_stress_years(&self) -> f64 {
        self.stress_active_years.max(self.stress_spare_years)
    }

    /// Applies one completed polarity re-encode: stress accumulation
    /// switches to the complementary side.
    pub fn reencode(&mut self) {
        std::mem::swap(&mut self.stress_active_years, &mut self.stress_spare_years);
        self.reencodes += 1;
    }
}

/// The plan a chip currently executes, as recorded in checkpoints and
/// reports: the engine's [`CompressionPlan`] plus the quantization
/// method selected for it (when method selection is enabled).
#[derive(Debug, Clone, Copy, PartialEq, Deserialize)]
pub struct ChipPlan {
    /// The aging bucket the plan was made for.
    pub bucket: u64,
    /// The compression plan served by the evaluation engine.
    pub plan: CompressionPlan,
    /// The selected quantization method, if selection ran.
    pub method: Option<QuantMethod>,
    /// Accuracy loss of the selected method vs FP32, percent.
    pub accuracy_loss_pct: Option<f64>,
}

/// One simulated NPU: identity, sampled aging physics, sampled
/// mission, and current decision state.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct Chip {
    /// Fleet-unique identifier (dense, `0..fleet_size`).
    pub id: u32,
    /// The catalog archetype the mission was drawn from.
    pub kind: MissionKind,
    /// The chip's degradation model: the fleet's configured model kind
    /// over a process-variation-perturbed technology profile.
    pub model: ModelSpec,
    /// The chip's jittered mission profile.
    pub profile: MissionProfile,
    /// The quantized aging bucket the chip currently sits in.
    pub bucket: u64,
    /// How the chip currently closes timing.
    pub mode: ChipMode,
    /// The active plan (`None` only for a degraded chip).
    pub plan: Option<ChipPlan>,
    /// Weight-memory aging state; `Some` exactly when the fleet's
    /// memory axis is enabled ([`FleetConfig::memory`]).
    ///
    /// [`FleetConfig::memory`]: crate::FleetConfig::memory
    pub mem: Option<ChipMemState>,
    /// Closed-loop supervision state; `Some` exactly when the fleet's
    /// autopilot is enabled ([`FleetConfig::autopilot`]).
    ///
    /// [`FleetConfig::autopilot`]: crate::FleetConfig::autopilot
    pub pilot: Option<agequant_autopilot::PilotState>,
}

impl Chip {
    /// Samples a chip: mission archetype, per-phase jitter, and a
    /// process-variation perturbation of `config_model`'s technology
    /// profile (the end-of-life shift and the time exponent jitter;
    /// every other calibration field is inherited).
    ///
    /// The RNG draw order (kind, phase jitter, EOL shift, exponent) is
    /// part of the checkpoint contract: it reproduces the pre-model-
    /// stack fleets bit-identically for the default NBTI model.
    pub fn sample(id: u32, config_model: &ModelSpec, rng: &mut FleetRng) -> Self {
        let kind = MissionKind::ALL[rng.index(MissionKind::ALL.len())];
        let profile = kind.sample_profile(rng);
        let base = config_model.profile();
        let eol_mv = base.eol_shift_v * 1e3 * rng.uniform(1.0 - EOL_JITTER, 1.0 + EOL_JITTER);
        let exponent = base.exponent * rng.uniform(1.0 - EXPONENT_JITTER, 1.0 + EXPONENT_JITTER);
        let model = config_model.with_profile(TechProfile {
            eol_shift_v: VthShift::from_millivolts(eol_mv).volts(),
            exponent,
            ..*base
        });
        Chip {
            id,
            kind,
            model,
            profile,
            bucket: 0,
            mode: ChipMode::Compressed,
            plan: None,
            mem: None,
            pilot: None,
        }
    }

    /// Advances `rng` past exactly the draws [`Chip::sample`] would
    /// consume, without building the chip. This is how shards locate
    /// their RNG substream inside the single fleet stream: the draw
    /// count varies per chip (the archetype pick uses rejection
    /// sampling and archetypes differ in phase count), so substreams
    /// are found by replaying the skips, not by a fixed stride.
    ///
    /// Mirrors [`Chip::sample`] draw for draw; the `sample` tests pin
    /// the two to the same stream position.
    pub fn skip_sample_draws(rng: &mut FleetRng) {
        let kind = MissionKind::ALL[rng.index(MissionKind::ALL.len())];
        for _ in 0..kind.phase_count() {
            rng.uniform(0.85, 1.15);
            rng.uniform(-5.0, 5.0);
        }
        rng.uniform(1.0 - EOL_JITTER, 1.0 + EOL_JITTER);
        rng.uniform(1.0 - EXPONENT_JITTER, 1.0 + EXPONENT_JITTER);
    }

    /// The chip's ΔVth after `years` of wall-clock deployment.
    #[must_use]
    pub fn shift_at(&self, years: f64) -> VthShift {
        self.profile.shift_with(&self.model, years)
    }

    /// The aging bucket of a shift: `floor(ΔVth / bucket_mv)`, with a
    /// hair of tolerance so a shift computed exactly at a boundary
    /// lands in the upper bucket regardless of float round-off.
    ///
    /// Saturates explicitly: a non-finite or giant ratio (degenerate
    /// `bucket_mv`, corrupted profile) clamps to `u64::MAX` and a
    /// negative one to 0 rather than relying on implicit float-to-int
    /// cast behavior.
    #[must_use]
    pub fn bucket_of(shift: VthShift, bucket_mv: f64) -> u64 {
        let raw = (shift.millivolts() / bucket_mv + 1e-9).floor();
        if raw.is_nan() || raw < 0.0 {
            return 0;
        }
        if raw >= u64::MAX as f64 {
            return u64::MAX;
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        {
            raw as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_reproducible() {
        let model = ModelSpec::default();
        let mut a = FleetRng::seed_from_u64(11);
        let mut b = FleetRng::seed_from_u64(11);
        for id in 0..50 {
            assert_eq!(
                Chip::sample(id, &model, &mut a),
                Chip::sample(id, &model, &mut b)
            );
        }
    }

    #[test]
    fn sampling_perturbs_any_model_kind() {
        for name in ModelSpec::NAMES {
            let config_model = ModelSpec::by_name(name).expect("shipped model");
            let mut rng = FleetRng::seed_from_u64(3);
            let chip = Chip::sample(0, &config_model, &mut rng);
            assert_eq!(chip.model.kind_name(), name);
            // The perturbed profile stays physically valid and keeps
            // the non-jittered calibration fields.
            let profile = chip.model.profile();
            assert!(profile.violations().is_empty());
            assert_eq!(profile.vdd, TechProfile::INTEL14NM.vdd);
            assert_ne!(
                profile.eol_shift_v,
                TechProfile::INTEL14NM.eol_shift_v,
                "jitter applied"
            );
        }
    }

    #[test]
    fn sampled_chips_are_heterogeneous() {
        let model = ModelSpec::default();
        let mut rng = FleetRng::seed_from_u64(5);
        let chips: Vec<Chip> = (0..64)
            .map(|id| Chip::sample(id, &model, &mut rng))
            .collect();
        let kinds: std::collections::BTreeSet<&str> = chips.iter().map(|c| c.kind.name()).collect();
        assert_eq!(kinds.len(), MissionKind::ALL.len(), "all archetypes drawn");
        let shifts: std::collections::BTreeSet<u64> = chips
            .iter()
            .map(|c| c.shift_at(10.0).volts().to_bits())
            .collect();
        assert!(shifts.len() > 60, "aging trajectories differ per chip");
    }

    #[test]
    fn buckets_quantize_shifts() {
        let mv = |x| VthShift::from_millivolts(x);
        assert_eq!(Chip::bucket_of(mv(0.0), 5.0), 0);
        assert_eq!(Chip::bucket_of(mv(4.99), 5.0), 0);
        assert_eq!(Chip::bucket_of(mv(5.0), 5.0), 1);
        assert_eq!(Chip::bucket_of(mv(52.5), 5.0), 10);
    }

    #[test]
    fn buckets_saturate_on_degenerate_inputs() {
        let mv = |x| VthShift::from_millivolts(x);
        // `VthShift` guarantees a finite, non-negative shift, so the
        // degenerate ratios all come from the width side: a ratio at
        // or above 2^64 clamps to the top bucket, not UB or wraparound.
        assert_eq!(Chip::bucket_of(mv(1e30), 1e-12), u64::MAX);
        assert_eq!(Chip::bucket_of(mv(1.0), 0.0), u64::MAX);
        // NaN (0/0) and negative-width ratios clamp to the bottom.
        assert_eq!(Chip::bucket_of(mv(0.0), 0.0), 0);
        assert_eq!(Chip::bucket_of(mv(10.0), -5.0), 0);
    }

    #[test]
    fn phase_counts_match_the_nominal_schedules() {
        for kind in MissionKind::ALL {
            assert_eq!(kind.phase_count(), kind.nominal_phases().len());
        }
    }

    #[test]
    fn skipping_draws_lands_where_sampling_does() {
        let model = ModelSpec::default();
        for seed in [0u64, 7, 42, 2024] {
            let mut sampled = FleetRng::seed_from_u64(seed);
            let mut skipped = FleetRng::seed_from_u64(seed);
            for id in 0..100 {
                Chip::sample(id, &model, &mut sampled);
                Chip::skip_sample_draws(&mut skipped);
                assert_eq!(
                    sampled, skipped,
                    "streams diverge after chip {id} of seed {seed}"
                );
            }
        }
    }

    #[test]
    fn catalog_profiles_are_valid_and_ordered_by_stress() {
        let mut rng = FleetRng::seed_from_u64(1);
        // Datacenter chips age faster than burst-inference chips.
        let dc = MissionKind::DatacenterAlwaysOn.sample_profile(&mut rng);
        let burst = MissionKind::BurstInference.sample_profile(&mut rng);
        assert!(dc.acceleration() > burst.acceleration());
    }
}
