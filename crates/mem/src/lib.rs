//! `agequant-mem`: weight-memory aging — a second failure axis beyond
//! MAC timing.
//!
//! The rest of the workspace ages the NPU's MAC *logic*; this crate
//! ages its weight *SRAM*. DNN weights are written once and held for
//! years, so each bitcell sees a data-dependent static stress: a cell
//! holding a constant value keeps one side under NBTI stress for the
//! whole mission, eroding its read static-noise margin until reads
//! start to flip. A chip can therefore be timing-healthy yet
//! memory-degraded — a failure class the MAC-side flow never sees.
//!
//! The crate chains four pieces:
//!
//! * [`BankDuty`] / [`profile_model`] — the **bit-duty profiler**:
//!   per-bit-position duty-cycle histograms of every weight bank of a
//!   quantized model ([`agequant_quant::QuantizedModel`]), straight
//!   off the stored codes.
//! * [`SramCellModel`] — the **cell aging model**: duty asymmetry →
//!   NBTI ΔVth (through the shared
//!   [`TechProfile`](agequant_aging::TechProfile) kinetics) → SNM loss
//!   → per-bit read-failure probability, with a short-term relaxation
//!   credit for duty-balanced cells.
//! * [`encode_bank`] / [`ReencodeSchedule`] — the **mitigations**:
//!   per-word inversion encoding balances the stored duty spatially,
//!   and periodic polarity re-encodes balance it temporally.
//! * [`MemoryReport`] / [`MemoryConfig`] — the serialized artifact
//!   `agequant-lint` checks (ME001) and the fleet-level configuration
//!   `agequant-fleet` / `agequant-serve` evolve per-chip memory health
//!   with.
//!
//! # Example
//!
//! ```
//! use agequant_mem::{encode_bank, profile_model, MemoryReport, SramCellModel};
//! use agequant_mem::ReencodeSchedule;
//! use agequant_nn::{NetArch, SyntheticDataset};
//! use agequant_quant::{quantize_model, BitWidths, QuantMethod};
//!
//! let model = NetArch::AlexNet.build(1);
//! let data = SyntheticDataset::generate(8, 2);
//! let q = quantize_model(&model, QuantMethod::MinMax, BitWidths::W8A8, &data.take(4));
//!
//! // Static weight storage is heavily duty-asymmetric...
//! let banks = profile_model(&q);
//! assert!(banks.iter().any(|b| b.worst_asymmetry() > 0.5));
//!
//! // ...and the report quantifies how much the mitigation helps.
//! let report = MemoryReport::build(
//!     "AlexNet", &q, &SramCellModel::INTEL14NM,
//!     &ReencodeSchedule::DEFAULT, &[1.0, 5.0, 10.0],
//! );
//! for bank in &report.banks {
//!     assert!(bank.worst_asymmetry_encoded <= bank.worst_asymmetry_plain);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
mod config;
mod duty;
mod encode;
mod report;

pub use cell::{CalibratedCell, SramCellModel};
pub use config::MemoryConfig;
pub use duty::{profile_model, profile_model_for_beta, worst_asymmetry, BankDuty};
pub use encode::{encode_bank, EncodedBank, ReencodeSchedule};
pub use report::{BankReport, FailurePoint, MemoryReport};
