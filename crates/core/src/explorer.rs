//! Design-space exploration over MAC microarchitectures.
//!
//! The paper fixes one microarchitecture; a designer adopting the
//! technique needs to know how the choice of multiplier/adder family
//! interacts with it: fresh speed, compression headroom, and the
//! end-of-life plan. [`explore_macs`] sweeps every generator
//! combination and scores each against the aging scenario.

use agequant_aging::VthShift;
use agequant_check::par_map;
use agequant_netlist::mac::MacGeometry;
use agequant_netlist::{MultiplierArch, PrefixStyle};
use serde::{Deserialize, Serialize};

use crate::{AgingAwareQuantizer, FlowConfig, MacSpec};

/// One explored design point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignPoint {
    /// The microarchitecture.
    pub spec: MacSpec,
    /// Gate count of the synthesized MAC.
    pub gates: usize,
    /// Fresh critical path, ps (the design's clock).
    pub fresh_cp_ps: f64,
    /// End-of-life `(α, β)` plan, or `None` if the technique cannot
    /// rescue this design at end of life.
    pub eol_plan: Option<(u8, u8)>,
    /// Total operand bits the EOL plan removes (lower is better).
    pub eol_bits_removed: Option<u8>,
    /// The guardband this design would otherwise need (fraction).
    pub guardband: f64,
}

impl DesignPoint {
    /// A composite figure of merit: fresh delay × (1 + EOL bits
    /// removed / 16), infinity when the design is unrescuable.
    /// Rewards fast designs that need little late-life compression.
    #[must_use]
    pub fn figure_of_merit(&self) -> f64 {
        match self.eol_bits_removed {
            Some(bits) => self.fresh_cp_ps * (1.0 + f64::from(bits) / 16.0),
            None => f64::INFINITY,
        }
    }
}

/// Sweeps all multiplier × adder × accumulator combinations of the
/// generators for `geometry`, scoring each under `base`'s process and
/// scenario. Results are sorted by [`DesignPoint::figure_of_merit`].
///
/// The independent design points (synthesis + fresh STA + EOL grid
/// scan each) fan out through [`par_map`]; the pre-sort order is the
/// same multiplier-outer/accumulator-inner sequence the serial loop
/// produced, and the sort is stable, so the ranking is deterministic.
///
/// # Errors
///
/// Propagates configuration errors (an unrescuable design is *not* an
/// error — it appears with `eol_plan: None`).
pub fn explore_macs(
    base: &FlowConfig,
    geometry: MacGeometry,
) -> Result<Vec<DesignPoint>, crate::FlowError> {
    let eol = VthShift::from_volts(agequant_aging::NbtiModel::EOL_SHIFT_V);
    let mut specs = Vec::new();
    for arch in MultiplierArch::ALL {
        for mult_adder in PrefixStyle::ALL {
            for acc_adder in PrefixStyle::ALL {
                specs.push(MacSpec {
                    geometry,
                    arch,
                    mult_adder,
                    acc_adder,
                });
            }
        }
    }
    let mut points = par_map(&specs, |&spec| {
        let mut config = base.clone();
        config.mac = spec;
        let flow = AgingAwareQuantizer::new(config)?;
        let plan = flow.compression_for(eol).ok();
        Ok(DesignPoint {
            spec: flow.config().mac,
            gates: flow.mac().netlist().gate_count(),
            fresh_cp_ps: flow.fresh_critical_path_ps(),
            eol_plan: plan.map(|p| (p.compression.alpha(), p.compression.beta())),
            eol_bits_removed: plan.map(|p| p.compression.alpha() + p.compression.beta()),
            guardband: flow.config().scenario.required_guardband(),
        })
    })
    .into_iter()
    .collect::<Result<Vec<DesignPoint>, crate::FlowError>>()?;
    points.sort_by(|a, b| {
        a.figure_of_merit()
            .partial_cmp(&b.figure_of_merit())
            .expect("finite or infinite, never NaN")
    });
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exploration_covers_the_full_grid_and_ranks() {
        let config = FlowConfig::edge_tpu_like();
        let points = explore_macs(&config, MacGeometry::EDGE_TPU).expect("explores");
        assert_eq!(points.len(), 2 * 3 * 3);
        // Sorted by figure of merit.
        for pair in points.windows(2) {
            assert!(pair[0].figure_of_merit() <= pair[1].figure_of_merit());
        }
        // Wallace variants must beat array variants on merit (faster
        // fresh clock dominates).
        let best = &points[0];
        assert_eq!(best.spec.arch, MultiplierArch::Wallace);
        // Every point carries a consistent guardband.
        for p in &points {
            assert!((p.guardband - 0.23).abs() < 1e-9);
            assert!(p.gates > 100);
        }
    }

    #[test]
    fn merit_penalizes_heavy_compression() {
        let a = DesignPoint {
            spec: MacSpec::edge_tpu(),
            gates: 1,
            fresh_cp_ps: 100.0,
            eol_plan: Some((2, 2)),
            eol_bits_removed: Some(4),
            guardband: 0.23,
        };
        let mut b = a.clone();
        b.eol_plan = Some((4, 4));
        b.eol_bits_removed = Some(8);
        assert!(a.figure_of_merit() < b.figure_of_merit());
        let mut c = a.clone();
        c.eol_plan = None;
        c.eol_bits_removed = None;
        assert_eq!(c.figure_of_merit(), f64::INFINITY);
    }
}
