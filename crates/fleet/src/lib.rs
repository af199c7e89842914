//! Fleet-scale aging simulation and compression-decision serving.
//!
//! The paper's flow picks one `(α, β)` compression and quantization
//! method per aging level for a single idealized chip. A production
//! deployment is a *fleet*: millions of NPUs, each aging at its own
//! pace set by its process corner and its workload (see Genssler et
//! al. on workload-dependent aging, and DNN-Life for the
//! lifetime-management framing). This crate simulates that population
//! and serves every chip its decision through the shared
//! [`EvalEngine`]:
//!
//! * [`Chip`] — a process-variation-sampled degradation model (seeded
//!   jitter around the configured model's
//!   [`TechProfile`](agequant_aging::TechProfile) — power-law NBTI by
//!   default, or any [`ModelSpec`](agequant_aging::ModelSpec) from the
//!   zoo) plus a jittered [`MissionKind`] mission profile from a small
//!   catalog.
//! * [`FleetSim`] — discrete-time epochs over struct-of-arrays
//!   shards; per-chip ΔVth evaluated in parallel per shard,
//!   quantized into aging buckets, and replanned *only on a bucket
//!   crossing* (serially, in id order, so sharding never changes an
//!   observable byte) — the engine's plan cache turns
//!   O(chips × epochs) decisions into O(distinct buckets)
//!   characterizations ([`CacheStats`] proves it).
//! * [`FleetState`] — full checkpoint (config, epoch, RNG state,
//!   every chip) for bit-identical resume, as a versioned checksummed
//!   binary frame ([`FleetState::to_binary`], read back by
//!   [`FleetState::load`]), written crash-safely through [`persist`].
//!   Legacy JSON checkpoints are read only by `agequant-fleet migrate`
//!   ([`FleetState::from_json`]); [`journal`] — append-only
//!   JSON-lines event log (replans, bucket crossings, guardband
//!   degradations), which a host hands to its file and releases with
//!   [`FleetSim::flush_journal`].
//! * [`FleetSummary`] — plan-distribution and bucket histograms,
//!   accuracy-loss percentiles, cache hit rates (aggregate and split
//!   per degradation model).
//!
//! The `agequant-fleet` binary exposes `run` / `resume` /
//! `autopilot` / `report` / `migrate` subcommands over these pieces,
//! and `agequant-lint` checks
//! checkpoints (FL001) and journals (FL002).
//!
//! # Example
//!
//! ```
//! use agequant_fleet::{FleetConfig, FleetSim};
//!
//! # fn main() -> Result<(), agequant_fleet::FleetError> {
//! let mut sim = FleetSim::new(FleetConfig::new(32, 42))?;
//! sim.run(4)?; // two years in half-year epochs
//! let summary = sim.summary();
//! assert_eq!(summary.chips, 32);
//! // Fleet-scale leverage: far fewer characterizations than chips.
//! assert!(sim.cache_stats().plan_misses < 32);
//! # Ok(())
//! # }
//! ```
//!
//! [`CacheStats`]: agequant_core::CacheStats
//! [`EvalEngine`]: agequant_core::EvalEngine

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod chip;
mod decide;
mod error;
pub mod journal;
pub mod persist;
mod report;
mod rng;
mod shard;
mod sim;
mod table;

pub use checkpoint::{crc32, Crc32, MAGIC};
pub use chip::{Chip, ChipMemState, ChipMode, ChipPlan, MissionKind};
pub use decide::{Decider, Decision};
pub use error::{CorruptKind, FleetError};
pub use journal::{EventKind, JournalEvent};
pub use report::{
    AutopilotSummary, CacheSummary, FleetSummary, LossPercentiles, MemorySummary,
    ModelCacheSummary, PlanBin,
};
pub use rng::FleetRng;
pub use shard::MemoryAction;
pub use sim::{
    FleetConfig, FleetSim, FleetState, CHECKPOINT_FORMAT, CHECKPOINT_FORMAT_AUTOPILOT,
    CHECKPOINT_FORMAT_MEM,
};
pub use table::DecisionTable;

pub use agequant_autopilot::{
    AutopilotConfig, BudgetState, Grant, Observation, PilotState, Regime,
};
