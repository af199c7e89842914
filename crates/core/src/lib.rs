//! Aging-aware quantization for anti-aging NPUs — the paper's primary
//! contribution (Algorithm 1) and its evaluation flows.
//!
//! The flow (Fig. 3 of the paper) spans every layer of this workspace:
//!
//! 1. **Device** — `agequant-aging` models ΔVth kinetics and delay
//!    derating; `agequant-cells` characterizes aged cell libraries.
//! 2. **Circuit** — `agequant-netlist` synthesizes the Edge-TPU-like
//!    MAC; `agequant-sta` finds, per aging level, every `(α, β)` input
//!    compression (under MSB and LSB padding) whose *aged* critical
//!    path still meets the *fresh* clock — no guardband, no timing
//!    errors.
//! 3. **System** — `agequant-quant` quantizes the network to
//!    `W(8−β) A(8−α) bias(16−α−β)` with each of the five library
//!    methods; the best-accuracy method wins (or the first one meeting
//!    a user threshold).
//!
//! Entry point: [`AgingAwareQuantizer`]. Evaluation helpers reproduce
//! each figure: [`lifetime::DelayTrajectory`] (Fig. 4a),
//! [`lifetime::AccuracyTrajectory`] (Fig. 4b), [`energy::EnergyComparison`]
//! (Fig. 5), and [`surrogate`] (§6.2's Pearson ranking study).
//!
//! All per-aging-level work runs on the shared [`EvalEngine`]:
//! characterized libraries, STA load vectors, grid scans and
//! compression plans are memoized per quantized ΔVth, and the
//! independent fan-outs (the `(α, β) × Padding` grid, the per-method
//! quantization runs, the design-space and lifetime sweeps) run on
//! [`agequant_check::par_map`], an order-preserving parallel map.
//! Results are bit-identical to the retained uncached serial reference
//! paths (`*_serial` methods); `tests/equivalence.rs` enforces this.
//!
//! # Example
//!
//! ```
//! use agequant_aging::VthShift;
//! use agequant_core::{AgingAwareQuantizer, FlowConfig};
//!
//! # fn main() -> Result<(), agequant_core::FlowError> {
//! let flow = AgingAwareQuantizer::new(FlowConfig::edge_tpu_like())?;
//! let plan = flow.compression_for(VthShift::from_millivolts(30.0))?;
//! assert!(!plan.compression.is_uncompressed());
//! assert!(plan.compressed_delay_ps <= flow.fresh_critical_path_ps());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
mod config;
pub mod energy;
mod engine;
mod error;
pub mod explorer;
pub mod lifetime;
pub mod report;
pub mod surrogate;

pub use algorithm::{AgingAwareQuantizer, CompressionPlan, FeasiblePoint, ModelOutcome};
pub use config::{FlowConfig, MacSpec};
pub use engine::{CacheStats, EvalEngine};
pub use error::FlowError;
pub use explorer::{explore_macs, DesignPoint};
pub use report::LifetimeReport;
