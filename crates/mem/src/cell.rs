//! The SRAM cell aging model: duty-cycle asymmetry → NBTI-driven
//! static-noise-margin loss → per-bit read-failure probability.
//!
//! A 6T cell holding a constant value keeps one of its two PMOS
//! devices under static NBTI stress; the resulting ΔVth erodes the
//! cell's read static-noise margin (SNM) until thermal and supply
//! noise can flip a read. The model chains three calibrated maps:
//!
//! 1. **Stress exposure** — the time integral of the worst-side duty
//!    the cell sees. A bank with per-bit asymmetry `a` stressed for
//!    `t` years accumulates `τ(a) · t` equivalent full-stress years,
//!    where `τ(a) = floor + (1 − floor) · a` and
//!    `floor = ½ · (1 − relaxation)` credits the short-term NBTI
//!    relaxation a balanced cell enjoys while holding the complement
//!    (Sarmadi et al.). Each completed re-encode toggle halves the
//!    remaining asymmetry (`a / (n+1)` in interval `n`), so exposure
//!    grows strictly but ever slower as the mitigation works.
//! 2. **SNM loss** — ΔVth from the [`TechProfile`]'s calibrated NBTI
//!    power law at the accumulated exposure, times a linear SNM
//!    sensitivity (`snm_per_vth` mV of margin per mV of shift).
//! 3. **Failure probability** — a logistic tail over the remaining
//!    margin: `p = 1 / (1 + exp((snm − snm_crit) / σ))`, the
//!    probability that cell-to-cell variation (spread `σ`) eats the
//!    remaining margin.
//!
//! Every map is monotone: more years, more asymmetry, or fewer
//! re-encodes can only raise the failure probability — the invariant
//! lint ME001 and the proptests pin.

use agequant_aging::{NbtiModel, TechProfile};
use serde::{Deserialize, Serialize};

/// The weight-SRAM cell degradation model: a [`TechProfile`]'s NBTI
/// kinetics mapped through an SNM sensitivity and a variation tail.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SramCellModel {
    /// The technology calibration driving the NBTI kinetics.
    pub profile: TechProfile,
    /// Fresh read static-noise margin, mV.
    pub snm_fresh_mv: f64,
    /// Margin below which a read upset becomes likely, mV.
    pub snm_crit_mv: f64,
    /// Cell-to-cell SNM variation spread (logistic scale), mV.
    pub snm_sigma_mv: f64,
    /// SNM lost per mV of PMOS ΔVth (dimensionless sensitivity).
    pub snm_per_vth: f64,
    /// Short-term NBTI relaxation credit in `[0, 1)`: the fraction of
    /// stress a perfectly duty-balanced cell recovers while holding
    /// the complementary value.
    pub relaxation: f64,
}

impl SramCellModel {
    /// The default 14 nm weight-SRAM calibration: a 140 mV fresh read
    /// SNM eroded at 1.2 mV/mV of NBTI shift, with a 67 mV critical
    /// margin and a 5 mV variation tail.
    pub const INTEL14NM: SramCellModel = SramCellModel {
        profile: TechProfile::INTEL14NM,
        snm_fresh_mv: 140.0,
        snm_crit_mv: 67.0,
        snm_sigma_mv: 5.0,
        snm_per_vth: 1.2,
        relaxation: 0.4,
    };

    /// Every way this calibration is physically implausible, as
    /// human-readable messages. Empty means valid.
    #[must_use]
    pub fn violations(&self) -> Vec<String> {
        let mut out = self.profile.violations();
        let finite = [
            self.snm_fresh_mv,
            self.snm_crit_mv,
            self.snm_sigma_mv,
            self.snm_per_vth,
            self.relaxation,
        ]
        .iter()
        .all(|v| v.is_finite());
        if !finite {
            out.push("every cell calibration field must be finite".to_string());
            return out;
        }
        if self.snm_crit_mv <= 0.0 {
            out.push(format!(
                "critical SNM must be positive, got {} mV",
                self.snm_crit_mv
            ));
        }
        if self.snm_fresh_mv <= self.snm_crit_mv {
            out.push(format!(
                "fresh SNM {} mV must exceed the critical margin {} mV",
                self.snm_fresh_mv, self.snm_crit_mv
            ));
        }
        if self.snm_sigma_mv <= 0.0 {
            out.push(format!(
                "SNM variation spread must be positive, got {} mV",
                self.snm_sigma_mv
            ));
        }
        if self.snm_per_vth <= 0.0 {
            out.push(format!(
                "SNM sensitivity must be positive, got {}",
                self.snm_per_vth
            ));
        }
        if !(0.0..1.0).contains(&self.relaxation) {
            out.push(format!(
                "relaxation credit must lie in [0, 1), got {}",
                self.relaxation
            ));
        }
        out
    }

    /// Panics with the violations; a cheap guard for constructors.
    ///
    /// # Panics
    ///
    /// Panics if [`SramCellModel::violations`] is non-empty.
    pub fn validate(&self) {
        let violations = self.violations();
        assert!(violations.is_empty(), "invalid cell model: {violations:?}");
    }

    /// Whether this is bit-for-bit the default 14 nm calibration.
    #[must_use]
    pub fn is_default(&self) -> bool {
        self.fingerprint() == Self::INTEL14NM.fingerprint()
    }

    /// A stable 64-bit FNV-1a fingerprint of the calibration's exact
    /// bit pattern, chained onto the profile's own fingerprint.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = self.profile.fingerprint();
        for v in [
            self.snm_fresh_mv,
            self.snm_crit_mv,
            self.snm_sigma_mv,
            self.snm_per_vth,
            self.relaxation,
        ] {
            for byte in v.to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        }
        hash
    }

    /// A stable key identifying everything that affects the duty →
    /// failure-probability mapping — the same contract as
    /// [`agequant_aging::DegradationModel::model_key`]: `sramcell` for the default
    /// calibration, `sramcell-<fingerprint>` otherwise.
    #[must_use]
    pub fn model_key(&self) -> String {
        if self.is_default() {
            "sramcell".to_string()
        } else {
            format!("sramcell-{:016x}", self.fingerprint())
        }
    }

    /// The effective worst-side stress duty for asymmetry `a`:
    /// `floor + (1 − floor) · a` with `floor = ½ (1 − relaxation)`.
    #[must_use]
    pub fn stress_duty(&self, asymmetry: f64) -> f64 {
        let a = asymmetry.clamp(0.0, 1.0);
        let floor = 0.5 * (1.0 - self.relaxation);
        floor + (1.0 - floor) * a
    }

    /// Equivalent full-stress years accumulated after `years` at bank
    /// asymmetry `asymmetry`, with `reencodes` completed polarity
    /// toggles assumed evenly spread over the interval: re-encode `j`
    /// shrinks the remaining asymmetry to `a / (j + 1)`.
    ///
    /// Strictly monotone non-decreasing in `years` and in `asymmetry`,
    /// and non-increasing in `reencodes` — re-encoding never heals
    /// accumulated damage, it only slows further accumulation.
    #[must_use]
    pub fn stress_exposure_years(&self, asymmetry: f64, years: f64, reencodes: u32) -> f64 {
        if years <= 0.0 {
            return 0.0;
        }
        let intervals = f64::from(reencodes) + 1.0;
        let slice = years / intervals;
        let mut exposure = 0.0;
        for j in 0..=reencodes {
            exposure += self.stress_duty(asymmetry / (f64::from(j) + 1.0)) * slice;
        }
        exposure
    }

    /// The calibration with its NBTI kinetics derived once: a pass
    /// that evaluates many cells builds it once and reads every
    /// failure probability through it.
    #[must_use]
    pub fn calibrated(&self) -> CalibratedCell {
        CalibratedCell {
            cell: *self,
            nbti: self.profile.nbti(),
        }
    }

    /// Per-bit read-failure probability after `exposure` equivalent
    /// full-stress years: the profile's NBTI shift mapped through the
    /// linear SNM sensitivity into the remaining read SNM (clamped at
    /// zero — a cell cannot have negative margin), then the logistic
    /// tail of that margin over the variation spread. In `(0, 1)`,
    /// monotone in exposure.
    #[must_use]
    pub fn failure_prob_at_exposure(&self, exposure_years: f64) -> f64 {
        self.calibrated().failure_prob_at_exposure(exposure_years)
    }

    /// Per-bit read-failure probability of a bank with per-bit duty
    /// asymmetry `asymmetry` after `years` of mission time and
    /// `reencodes` completed polarity toggles.
    #[must_use]
    pub fn failure_prob(&self, asymmetry: f64, years: f64, reencodes: u32) -> f64 {
        self.failure_prob_at_exposure(self.stress_exposure_years(asymmetry, years, reencodes))
    }
}

/// A [`SramCellModel`] with the NBTI power law of its profile already
/// calibrated ([`SramCellModel::calibrated`]), so a failure probability
/// costs no `powf` or check beyond the kinetics' own. The model's own
/// methods run through it, so both give the same bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibratedCell {
    cell: SramCellModel,
    nbti: NbtiModel,
}

impl CalibratedCell {
    /// Per-bit read-failure probability after `exposure` equivalent
    /// full-stress years (see [`SramCellModel::failure_prob_at_exposure`]).
    #[must_use]
    pub fn failure_prob_at_exposure(&self, exposure_years: f64) -> f64 {
        let shift_mv = self.nbti.vth_shift_at(exposure_years).millivolts();
        let snm = (self.cell.snm_fresh_mv - self.cell.snm_per_vth * shift_mv).max(0.0);
        1.0 / (1.0 + ((snm - self.cell.snm_crit_mv) / self.cell.snm_sigma_mv).exp())
    }
}

impl Default for SramCellModel {
    fn default() -> Self {
        Self::INTEL14NM
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_calibration_is_valid_and_keyed() {
        let cell = SramCellModel::INTEL14NM;
        assert!(cell.violations().is_empty(), "{:?}", cell.violations());
        cell.validate();
        assert!(cell.is_default());
        assert_eq!(cell.model_key(), "sramcell");
        let perturbed = SramCellModel {
            snm_sigma_mv: 6.0,
            ..cell
        };
        assert!(!perturbed.is_default());
        assert!(perturbed.model_key().starts_with("sramcell-"));
        assert_eq!(perturbed.model_key(), perturbed.model_key());
    }

    #[test]
    fn violations_name_every_bad_field() {
        let bad = SramCellModel {
            snm_fresh_mv: 50.0,
            snm_crit_mv: -1.0,
            snm_sigma_mv: 0.0,
            snm_per_vth: -2.0,
            relaxation: 1.5,
            ..SramCellModel::INTEL14NM
        };
        let v = bad.violations();
        assert!(v.iter().any(|m| m.contains("critical SNM")));
        assert!(v.iter().any(|m| m.contains("variation spread")));
        assert!(v.iter().any(|m| m.contains("sensitivity")));
        assert!(v.iter().any(|m| m.contains("relaxation")));
        let inverted = SramCellModel {
            snm_fresh_mv: 50.0,
            snm_crit_mv: 60.0,
            ..SramCellModel::INTEL14NM
        };
        assert!(inverted
            .violations()
            .iter()
            .any(|m| m.contains("fresh SNM")));
        let nan = SramCellModel {
            snm_fresh_mv: f64::NAN,
            ..SramCellModel::INTEL14NM
        };
        assert!(nan.violations().iter().any(|m| m.contains("finite")));
    }

    /// The calibration built once gives the bits of the per-call
    /// formula, which rebuilt the profile's power law for every
    /// exposure, for the default cell and two perturbed calibrations.
    #[test]
    fn calibrated_cells_match_the_per_call_formula_bit_for_bit() {
        let base = SramCellModel::INTEL14NM;
        for scale in [1.0, 0.93, 1.12] {
            let cell = SramCellModel {
                profile: TechProfile {
                    eol_shift_v: base.profile.eol_shift_v * scale,
                    exponent: base.profile.exponent * scale,
                    ..base.profile
                },
                snm_sigma_mv: base.snm_sigma_mv * scale,
                snm_per_vth: base.snm_per_vth / scale,
                ..base
            };
            assert_eq!(cell.is_default(), scale == 1.0);
            let calibrated = cell.calibrated();
            for step in 0..=400 {
                let exposure = f64::from(step) * 0.0625;
                let shift_mv = cell.profile.nbti().vth_shift_at(exposure).millivolts();
                let snm = (cell.snm_fresh_mv - cell.snm_per_vth * shift_mv).max(0.0);
                let margin = snm - cell.snm_crit_mv;
                let reference = (1.0 / (1.0 + (margin / cell.snm_sigma_mv).exp())).to_bits();
                let once = calibrated.failure_prob_at_exposure(exposure).to_bits();
                assert_eq!(once, reference, "exposure {exposure}");
                assert_eq!(cell.failure_prob_at_exposure(exposure).to_bits(), reference);
            }
        }
    }

    #[test]
    fn fresh_cells_barely_fail_and_aged_cells_fail_more() {
        let cell = SramCellModel::INTEL14NM;
        let fresh = cell.failure_prob(1.0, 0.0, 0);
        assert!(fresh < 1e-6, "fresh failure prob {fresh}");
        let aged = cell.failure_prob(1.0, 8.0, 0);
        assert!(aged > 1e-3, "aged failure prob {aged}");
        assert!(aged < 0.5, "aged failure prob stays a tail: {aged}");
    }

    #[test]
    fn reencoding_slows_but_never_heals() {
        let cell = SramCellModel::INTEL14NM;
        let unmitigated = cell.stress_exposure_years(1.0, 8.0, 0);
        let mitigated = cell.stress_exposure_years(1.0, 8.0, 4);
        assert!(mitigated < unmitigated);
        // Even a heavily re-encoded bank keeps accumulating exposure.
        assert!(mitigated > cell.stress_exposure_years(1.0, 4.0, 4));
        // And the mitigation shows up in the failure probability.
        assert!(cell.failure_prob(1.0, 8.0, 4) < cell.failure_prob(1.0, 8.0, 0) / 2.0);
    }

    #[test]
    fn balanced_banks_age_at_the_relaxation_floor() {
        let cell = SramCellModel::INTEL14NM;
        let floor = 0.5 * (1.0 - cell.relaxation);
        assert!((cell.stress_duty(0.0) - floor).abs() < 1e-15);
        assert!((cell.stress_duty(1.0) - 1.0).abs() < 1e-15);
        let e = cell.stress_exposure_years(0.0, 10.0, 0);
        assert!((e - floor * 10.0).abs() < 1e-12);
    }
}
