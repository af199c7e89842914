//! The three phases of every run: `serve_mix`, `cold_decide` and
//! `fleet_lifetime`. Each takes the run parameters and returns an
//! [`Outcome`](crate::report::Outcome) holding its end-to-end metrics
//! (untraced runs) or its per-layer metrics (traced runs); the
//! workload ([`Stage`]) picks which part of a chip's life every
//! phase draws its inputs from.

use std::path::PathBuf;

pub mod cold_decide;
pub mod fleet_lifetime;
pub mod serve_mix;

/// The workload: which part of a chip's service life the inputs come
/// from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The first years of service: low ΔVth, no degrade crossings.
    Early,
    /// Late life: high ΔVth, into the degrade crossings.
    Late,
}

impl Stage {
    /// Every workload, by its `--workload` name.
    pub const ALL: [(&'static str, Stage); 2] =
        [("early-life", Stage::Early), ("late-life", Stage::Late)];

    /// The stage named `name`, if it is a workload.
    #[must_use]
    pub fn named(name: &str) -> Option<Stage> {
        Self::ALL.iter().find(|(n, _)| *n == name).map(|&(_, s)| s)
    }

    /// The share of a ΔVth sweep the inputs are drawn from, as
    /// fractions of its top: the lower half early, the upper half late.
    #[must_use]
    pub fn sweep_share(self) -> (f64, f64) {
        match self {
            Stage::Early => (0.0, 0.5),
            Stage::Late => (0.5, 1.0),
        }
    }
}

/// Parameters every phase receives.
#[derive(Debug, Clone)]
pub struct Params {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// The workload.
    pub stage: Stage,
    /// Measured seconds of this phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Scratch directory inside the checkout for journals and
    /// checkpoints; removed when the run ends.
    pub scratch: PathBuf,
}

/// Wall seconds since `start`.
#[must_use]
pub fn secs(start: std::time::Instant) -> f64 {
    start.elapsed().as_secs_f64()
}
