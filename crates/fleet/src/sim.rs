//! The discrete-time fleet simulator and compression-decision server.
//!
//! [`FleetSim`] advances a heterogeneous population of [`Chip`]s
//! through their deployed lifetime in epochs of
//! [`FleetConfig::epoch_years`] wall-clock years. The population lives
//! in struct-of-arrays [`FleetShard`]s — hot physics fields in
//! contiguous arrays, cold identity fields in side tables — sharded
//! across worker threads. Each epoch, every chip's ΔVth is evaluated
//! under its own jittered kinetics and mission profile (a pure
//! computation, fanned out per shard), quantized into an aging
//! *bucket* of [`FleetConfig::bucket_mv`] millivolts. Only chips that
//! crossed into a new bucket are replanned — strictly serialized in
//! shard order, so the shared [`EvalEngine`]'s cache counters and the
//! decider's memo order are bit-identical to an unsharded run. The
//! plan cache collapses the fleet's O(chips × epochs) decision stream
//! into O(distinct buckets) full `(α, β) × Padding` characterizations;
//! the engine's [`CacheStats`] measure that leverage rather than
//! assuming it.
//!
//! What runs in parallel is what touches only one chip's own columns
//! and journals into its own shard: the physics pass, the memory pass
//! and, in the closed loop (see [`FleetConfig::autopilot`]), memory
//! wear, the due-chip snapshot, the probes of granted samples, every
//! grant whose decisions are already known, and the deferrals. What
//! stays serial is what is shared or ordered across the fleet: the
//! telemetry budget ledger (grant order decides who is starved), and
//! every decider call that can decide a new key — the open loop's
//! crossings and a closed-loop grant's first touch of a bucket — since
//! the engine's counters and the decider's memo order are observable;
//! all in the one order an unsharded run takes.
//!
//! A chip whose bucket admits no feasible compression *degrades
//! gracefully*: it falls back to a conventional guardbanded clock
//! (journaled as [`EventKind::Degraded`]) and is never replanned
//! again — infeasibility is monotone in ΔVth, so no later bucket can
//! rescue it.
//!
//! [`CacheStats`]: agequant_core::CacheStats
//! [`EvalEngine`]: agequant_core::EvalEngine
//! [`EventKind::Degraded`]: crate::journal::EventKind::Degraded

use agequant_check::sync::Arc;
use agequant_check::{par_map, par_map_mut};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::Path;

use agequant_aging::{ModelSpec, NbtiPowerLaw, TechProfile};
use agequant_autopilot::{AutopilotConfig, BudgetState, Grant, Regime};
use agequant_core::{AgingAwareQuantizer, CacheStats, FlowConfig};
use agequant_mem::MemoryConfig;
use agequant_nn::NetArch;
use serde::{Deserialize, Serialize, Value};

use crate::chip::Chip;
use crate::decide::Decider;
use crate::journal::JournalEvent;
use crate::report::{FleetSummary, ModelCacheSummary};
use crate::rng::FleetRng;
use crate::shard::{DueChip, FleetShard, Granted, SampleEpoch};
use crate::FleetError;

/// Configuration of a fleet run.
///
/// Everything that influences the simulation is in here, so a
/// checkpointed [`FleetState`] (which embeds its config) is
/// self-describing and a resumed run needs no out-of-band inputs.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct FleetConfig {
    /// Number of chips in the fleet.
    pub chips: u32,
    /// Seed for chip sampling (process variation + mission jitter).
    pub seed: u64,
    /// Wall-clock years each epoch advances.
    pub epoch_years: f64,
    /// Width of one quantized aging bucket, millivolts of ΔVth.
    pub bucket_mv: f64,
    /// Timing constraint as a fraction of the fresh critical path:
    /// 1.0 is the paper's guardband-free operation; values below 1
    /// over-constrain the clock (useful to exercise the infeasible
    /// fallback), values above model a partial guardband.
    pub constraint_factor: f64,
    /// When set, each bucket's plan also selects the best quantization
    /// method for this network and records its accuracy loss.
    pub network: Option<NetArch>,
    /// The underlying aging-aware quantization flow.
    pub flow: FlowConfig,
    /// When set, the fleet also tracks per-chip weight-memory aging:
    /// each epoch accrues SRAM stress exposure (shaped by the active
    /// plan's weight truncation through
    /// [`MemoryConfig::asymmetry_for_beta`]), and the decider orders
    /// polarity re-encodes or declares memory degradation against the
    /// config's thresholds. `None` (the default) is byte-identical to
    /// the pre-memory fleet everywhere — checkpoints, journals,
    /// summaries, plan responses.
    pub memory: Option<MemoryConfig>,
    /// When set, the fleet runs closed-loop: chips are *sampled* on
    /// the autopilot's regime cadences instead of observed for free
    /// every epoch, telemetry is rationed by the fleet-wide token
    /// budget, and every cadence decision and regime transition is
    /// journaled. `None` (the default) is byte-identical to the
    /// pre-autopilot fleet everywhere.
    pub autopilot: Option<AutopilotConfig>,
}

// Hand-written so a memory-disabled config serializes byte-identically
// to the pre-memory format (and an autopilot-disabled one to the
// pre-autopilot format): `memory` and `autopilot` are emitted only
// when enabled, unlike the derive's unconditional `"memory": null`.
// Field order and the `"network": null` behavior match the old derive
// exactly; `Deserialize` stays derived (a missing `memory`/`autopilot`
// reads as `None`).
impl Serialize for FleetConfig {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("chips".to_string(), self.chips.to_value()),
            ("seed".to_string(), self.seed.to_value()),
            ("epoch_years".to_string(), self.epoch_years.to_value()),
            ("bucket_mv".to_string(), self.bucket_mv.to_value()),
            (
                "constraint_factor".to_string(),
                self.constraint_factor.to_value(),
            ),
            ("network".to_string(), self.network.to_value()),
            ("flow".to_string(), self.flow.to_value()),
        ];
        if let Some(memory) = &self.memory {
            fields.push(("memory".to_string(), memory.to_value()));
        }
        if let Some(autopilot) = &self.autopilot {
            fields.push(("autopilot".to_string(), autopilot.to_value()));
        }
        Value::Map(fields)
    }
}

impl FleetConfig {
    /// A fleet of `chips` chips with the paper's flow and sweep
    /// granularity: 10 mV buckets (the paper's aging levels),
    /// half-year epochs, guardband-free constraint, and a lightened
    /// accuracy-evaluation budget suited to per-bucket method
    /// selection at fleet scale.
    #[must_use]
    pub fn new(chips: u32, seed: u64) -> Self {
        let mut flow = FlowConfig::edge_tpu_like();
        flow.eval_samples = 20;
        flow.calib_samples = 4;
        flow.lapq = agequant_quant::LapqRefineConfig::off();
        FleetConfig {
            chips,
            seed,
            epoch_years: 0.5,
            bucket_mv: 10.0,
            constraint_factor: 1.0,
            network: None,
            flow,
            memory: None,
            autopilot: None,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] naming the bad knob.
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.chips == 0 {
            return Err(FleetError::InvalidConfig(
                "fleet needs at least one chip".into(),
            ));
        }
        if !(self.epoch_years > 0.0 && self.epoch_years.is_finite()) {
            return Err(FleetError::InvalidConfig(format!(
                "epoch length {} years must be positive",
                self.epoch_years
            )));
        }
        if !(self.bucket_mv > 0.0 && self.bucket_mv.is_finite()) {
            return Err(FleetError::InvalidConfig(format!(
                "bucket width {} mV must be positive",
                self.bucket_mv
            )));
        }
        if !(self.constraint_factor > 0.0 && self.constraint_factor.is_finite()) {
            return Err(FleetError::InvalidConfig(format!(
                "constraint factor {} must be positive",
                self.constraint_factor
            )));
        }
        if let Some(memory) = &self.memory {
            let violations = memory.violations();
            if !violations.is_empty() {
                return Err(FleetError::InvalidConfig(format!(
                    "memory config: {}",
                    violations.join("; ")
                )));
            }
        }
        if let Some(autopilot) = &self.autopilot {
            let violations = autopilot.violations();
            if !violations.is_empty() {
                return Err(FleetError::InvalidConfig(format!(
                    "autopilot config: {}",
                    violations.join("; ")
                )));
            }
        }
        self.flow.validate().map_err(FleetError::Flow)
    }

    /// The checkpoint format version this configuration's states carry:
    /// [`CHECKPOINT_FORMAT_AUTOPILOT`] when the autopilot is enabled,
    /// [`CHECKPOINT_FORMAT_MEM`] when only the memory axis is, and
    /// [`CHECKPOINT_FORMAT`] otherwise — so a fleet with neither
    /// feature keeps writing pre-feature checkpoints byte for byte.
    #[must_use]
    pub fn checkpoint_format(&self) -> u32 {
        if self.autopilot.is_some() {
            CHECKPOINT_FORMAT_AUTOPILOT
        } else if self.memory.is_some() {
            CHECKPOINT_FORMAT_MEM
        } else {
            CHECKPOINT_FORMAT
        }
    }
}

/// Current checkpoint format version for memory-disabled fleets.
/// Format 1 (pre-versioning) stored each chip's power-law NBTI
/// kinetics directly; format 2 stores the chip's full degradation
/// [`ModelSpec`]. [`FleetState::from_json`] migrates format-1 trees on
/// load.
pub const CHECKPOINT_FORMAT: u32 = 2;

/// Checkpoint format version of a fleet with the weight-memory axis
/// enabled: format 2 plus a per-chip memory-state record. A format-2
/// checkpoint loads as a fleet with no memory state (the pre-memory
/// migration), and a memory-disabled fleet keeps writing format 2, so
/// the two formats never mix in one file.
pub const CHECKPOINT_FORMAT_MEM: u32 = 3;

/// Checkpoint format version of a closed-loop (autopilot) fleet:
/// format 3 plus the fleet-level telemetry budget ledger and a
/// per-chip pilot-state record. The per-chip memory block stays
/// present (flagged empty when the memory axis is off), so format 4
/// composes with either memory setting; pre-autopilot checkpoints
/// load with no pilot state and enroll their chips fresh when the
/// resumed fleet is armed ([`FleetSim::arm_autopilot`]).
pub const CHECKPOINT_FORMAT_AUTOPILOT: u32 = 4;

/// The complete serializable state of a fleet run: configuration,
/// epoch counter, RNG state, and every chip. Checkpointing this and
/// restoring it resumes the run bit-identically.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct FleetState {
    /// Checkpoint format version ([`CHECKPOINT_FORMAT`]); stamped on
    /// every state this crate constructs or migrates.
    pub format: Option<u32>,
    /// The configuration the run was started with.
    pub config: FleetConfig,
    /// The last completed epoch.
    pub epoch: u64,
    /// RNG state after chip sampling (carried for future stochastic
    /// extensions; epoch stepping itself draws nothing).
    pub rng: FleetRng,
    /// Every chip, in id order.
    pub chips: Vec<Chip>,
    /// The fleet-level telemetry budget ledger; `Some` exactly when
    /// the autopilot is enabled ([`FleetConfig::autopilot`]).
    pub autopilot: Option<BudgetState>,
}

impl FleetState {
    /// Parses a legacy JSON checkpoint (any format vintage: the text
    /// form written before every checkpoint became a binary frame),
    /// migrating a format-1 tree on the way. `agequant-fleet migrate`
    /// is the one caller: it converts such a file into a binary frame,
    /// the only checkpoint format the runtime reads or writes.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Malformed`] when the text is not a valid
    /// checkpoint.
    pub fn from_json(text: &str) -> Result<Self, FleetError> {
        let mut tree: Value = serde_json::from_str(text)
            .map_err(|e| FleetError::Malformed(format!("checkpoint: {e}")))?;
        migrate_checkpoint(&mut tree)?;
        FleetState::from_value(&tree).map_err(|e| FleetError::Malformed(format!("checkpoint: {e}")))
    }
}

/// A numeric JSON leaf as `f64`, however the writer encoded it.
#[allow(clippy::cast_precision_loss)]
fn value_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

/// Rewrites a format-1 checkpoint tree in place: chips that carry a
/// bare `nbti` kinetics record get an equivalent `model` (the
/// power-law prefactor inverted back into the profile's end-of-life
/// shift at the format-1 nominal lifetime), and the tree is stamped
/// with the current format version. Format-2 trees pass through
/// untouched; shape errors are left for `FleetState::from_value` to
/// report unless the legacy record itself is malformed.
fn migrate_checkpoint(tree: &mut Value) -> Result<(), FleetError> {
    let Value::Map(state) = tree else {
        return Ok(());
    };
    let had_format = state.iter().any(|(key, _)| key == "format");
    let Some(chips) = state
        .iter_mut()
        .find(|(key, _)| key == "chips")
        .map(|(_, v)| v)
    else {
        return Ok(());
    };
    let Value::Seq(chips) = chips else {
        return Ok(());
    };
    let mut migrated = false;
    for chip in chips.iter_mut() {
        let Value::Map(entries) = chip else { continue };
        let Some(pos) = entries.iter().position(|(key, _)| key == "nbti") else {
            continue;
        };
        let Value::Map(nbti) = &entries[pos].1 else {
            return Err(FleetError::Malformed(
                "checkpoint: legacy chip `nbti` is not a map".into(),
            ));
        };
        let field = |name: &str| {
            nbti.iter()
                .find(|(key, _)| key == name)
                .and_then(|(_, v)| value_f64(v))
                .ok_or_else(|| {
                    FleetError::Malformed(format!("checkpoint: legacy chip nbti lacks `{name}`"))
                })
        };
        let prefactor_v = field("prefactor_v")?;
        let exponent = field("exponent")?;
        let duty_cycle = field("duty_cycle")?;
        let base = TechProfile::INTEL14NM;
        // Format 1 derived `prefactor = eol / lifetime^n` at the
        // nominal 10-year lifetime; invert it to recover the chip's
        // sampled end-of-life shift.
        let eol_shift_v = prefactor_v * base.lifetime_years.powf(exponent);
        let model = ModelSpec::Nbti(NbtiPowerLaw {
            profile: TechProfile {
                eol_shift_v,
                exponent,
                ..base
            },
            duty_cycle,
        });
        entries[pos] = ("model".to_string(), model.to_value());
        migrated = true;
    }
    if migrated && !had_format {
        state.insert(0, ("format".to_string(), CHECKPOINT_FORMAT.to_value()));
    }
    Ok(())
}

/// The config's chip count as a `usize`, or a typed capacity error on
/// platforms whose address space cannot hold it.
fn checked_chip_count(config: &FleetConfig) -> Result<usize, FleetError> {
    usize::try_from(config.chips).map_err(|_| {
        FleetError::Capacity(format!(
            "fleet of {} chips exceeds this platform's address space",
            config.chips
        ))
    })
}

/// How many shards a fleet splits into when the caller does not say:
/// one per available core, so the physics pass saturates the box.
fn default_shard_count() -> usize {
    agequant_check::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Contiguous shard sizes for `chips` over `shards` shards: as even as
/// possible, the remainder spread over the leading shards. The
/// partition never changes observable behavior — decisions run in
/// shard-major (= id) order regardless — it only shapes the parallel
/// physics fan-out.
fn partition(chips: usize, shards: usize) -> Vec<usize> {
    let shards = shards.clamp(1, chips.max(1));
    let base = chips / shards;
    let rem = chips % shards;
    (0..shards).map(|i| base + usize::from(i < rem)).collect()
}

/// The running fleet: sharded struct-of-arrays population plus the
/// decision core (the shared [`Decider`] over the memoizing engine).
#[derive(Debug)]
pub struct FleetSim {
    decider: Arc<Decider>,
    config: FleetConfig,
    epoch: u64,
    /// The fleet-level RNG positioned after chip sampling — what
    /// checkpoints carry (carried for future stochastic extensions;
    /// epoch stepping itself draws nothing).
    rng: FleetRng,
    shards: Vec<FleetShard>,
    /// The telemetry budget ledger; `Some` exactly when
    /// `config.autopilot` is.
    budget: Option<BudgetState>,
}

impl FleetSim {
    /// Builds a fresh fleet with one shard per available core: samples
    /// every chip from `config.seed`, then serves each its epoch-0
    /// plan (all chips start fresh, so this is a single
    /// characterization shared fleet-wide).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] / [`FleetError::Flow`] on
    /// bad configuration. An infeasible epoch-0 constraint is *not* an
    /// error: the fleet degrades to guardband mode and journals it.
    pub fn new(config: FleetConfig) -> Result<Self, FleetError> {
        Self::new_sharded(config, default_shard_count())
    }

    /// Like [`FleetSim::new`] with an explicit shard count (clamped to
    /// `1..=chips`). Every observable output — checkpoints, journal
    /// order, summaries, cache counters — is bit-identical across
    /// shard counts; the count only shapes the parallel physics pass.
    ///
    /// # Errors
    ///
    /// See [`FleetSim::new`].
    pub fn new_sharded(config: FleetConfig, shards: usize) -> Result<Self, FleetError> {
        config.validate()?;
        let decider = Arc::new(Decider::from_config(&config)?);
        Self::sample_fleet(config, decider, shards)
    }

    /// Shared fresh-fleet construction: positions each shard's RNG
    /// substream by replaying the sampling draw counts, samples shards
    /// (in parallel when there are several), and serves epoch-0 plans.
    fn sample_fleet(
        config: FleetConfig,
        decider: Arc<Decider>,
        shards: usize,
    ) -> Result<Self, FleetError> {
        let chip_count = checked_chip_count(&config)?;
        let parts = partition(chip_count, shards);
        let model = config.flow.model_spec();
        let mut rng = FleetRng::seed_from_u64(config.seed);
        // Locate each shard's substream inside the single fleet stream
        // by replaying the draws of the chips before it (draw counts
        // vary per chip, so there is no fixed stride to jump by). The
        // replayed stream lands exactly where single-stream sampling
        // would, so checkpoints stay bit-identical.
        let mut starts = Vec::with_capacity(parts.len());
        let mut base = 0u32;
        for &count in &parts {
            let count = u32::try_from(count).expect("partition fits the chip count");
            starts.push((base, count, rng.clone()));
            // The last shard's own substream ends where the fleet
            // stream resumes, so nothing skips past it.
            if starts.len() < parts.len() {
                for _ in 0..count {
                    Chip::skip_sample_draws(&mut rng);
                }
            }
            base += count;
        }
        let (shards, mut ends): (Vec<_>, Vec<_>) = par_map(&starts, |(base, count, start)| {
            FleetShard::sample(*base, *count, &model, start.clone())
        })
        .into_iter()
        .unzip();
        let rng = ends.pop().expect("a partition has a shard");
        let mut sim = FleetSim {
            decider,
            config,
            epoch: 0,
            rng,
            shards,
            budget: None,
        };
        if sim.config.memory.is_some() {
            // Fresh chips start with zero stress on both polarities;
            // no RNG draws, so the sampling stream stays untouched.
            for shard in &mut sim.shards {
                shard.init_memory();
            }
        }
        sim.enroll();
        sim.plan_initial()?;
        Ok(sim)
    }

    /// Restores a fleet from a checkpointed state with one shard per
    /// available core. The engine's caches start cold (they are
    /// memoization, not state); everything observable resumes
    /// bit-identically.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] / [`FleetError::Flow`] if
    /// the embedded configuration no longer validates,
    /// [`FleetError::Malformed`] if the state is internally
    /// inconsistent, or [`FleetError::Capacity`] if the chip count
    /// exceeds this platform.
    pub fn resume(state: FleetState) -> Result<Self, FleetError> {
        Self::resume_sharded(state, default_shard_count())
    }

    /// Like [`FleetSim::resume`] with an explicit shard count.
    ///
    /// # Errors
    ///
    /// See [`FleetSim::resume`].
    pub fn resume_sharded(state: FleetState, shards: usize) -> Result<Self, FleetError> {
        state.config.validate()?;
        let decider = Arc::new(Decider::from_config(&state.config)?);
        let expected = checked_chip_count(&state.config)?;
        if state.chips.len() != expected {
            return Err(FleetError::Malformed(format!(
                "checkpoint holds {} chips, config says {}",
                state.chips.len(),
                state.config.chips
            )));
        }
        let mut chips = state.chips.into_iter();
        let mut sim = FleetSim {
            decider,
            shards: partition(expected, shards)
                .into_iter()
                .map(|count| FleetShard::from_chips(chips.by_ref().take(count)))
                .collect(),
            // A resumed closed-loop fleet continues its checkpointed ledger.
            budget: state.autopilot.filter(|_| state.config.autopilot.is_some()),
            config: state.config,
            epoch: state.epoch,
            rng: state.rng,
        };
        sim.enroll();
        Ok(sim)
    }

    /// A fresh fleet sharing an existing decision core: samples every
    /// chip from the decider's configured seed and serves epoch-0
    /// plans through the shared engine cache.
    ///
    /// # Errors
    ///
    /// Propagates non-degradable flow errors from initial planning.
    pub fn new_with_decider(decider: Arc<Decider>) -> Result<Self, FleetError> {
        let config = decider.config().clone();
        Self::sample_fleet(config, decider, default_shard_count())
    }

    /// Serves the epoch-0 decision to every chip (all start in bucket
    /// 0 with ΔVth = 0), in shard-major (= id) order.
    fn plan_initial(&mut self) -> Result<(), FleetError> {
        for shard in &mut self.shards {
            for i in 0..shard.len() {
                shard.replan(&self.decider, i, 0, 0)?;
            }
        }
        Ok(())
    }

    /// Advances the fleet one epoch: evaluates every chip's ΔVth (the
    /// pure physics pass, fanned out per shard), then replans exactly
    /// the chips that crossed into a new bucket — serially, in
    /// shard-major order, so decision order and cache counters match
    /// an unsharded run exactly — and last runs the memory pass, per
    /// shard in parallel. A closed-loop fleet steps through
    /// `step_autopilot` instead: parallel per-shard passes around a
    /// serial spine of the ledger and the grants' first touches.
    ///
    /// # Errors
    ///
    /// Propagates non-degradable flow errors; infeasible compression
    /// degrades the affected chips instead of failing.
    pub fn step(&mut self) -> Result<(), FleetError> {
        let epoch = self.epoch + 1;
        #[allow(clippy::cast_precision_loss)]
        let years = epoch as f64 * self.config.epoch_years;
        if let Some(autopilot) = self.config.autopilot.clone() {
            self.step_autopilot(&autopilot, epoch, years)?;
            self.epoch = epoch;
            return Ok(());
        }
        let bucket_mv = self.config.bucket_mv;
        let crossings = par_map(&self.shards, |shard| shard.crossings(years, bucket_mv));
        for (shard, crossed) in self.shards.iter_mut().zip(crossings) {
            for (i, new_bucket) in crossed {
                shard.cross(&self.decider, i, new_bucket, epoch)?;
            }
        }
        if let Some(memory) = &self.config.memory {
            // The memory pass runs after the epoch's replans, so the
            // stress a chip accrues this epoch is shaped by the plan
            // it actually executes. Pure threshold arithmetic — no
            // engine, no RNG — on each chip's own columns, journaled
            // into its own shard, so it runs per shard in parallel.
            let (cell, epoch_years) = (memory.cell.calibrated(), self.config.epoch_years);
            par_map_mut(&mut self.shards, |shard| {
                shard.step_memory(memory, &cell, epoch, epoch_years);
            });
        }
        self.epoch = epoch;
        Ok(())
    }

    /// One closed-loop epoch. Physics never pauses — ΔVth keeps
    /// aging and memory stress accrues for every chip — but
    /// *observation* is rationed: only chips whose pilot is due
    /// request a telemetry message from the fleet budget, and only a
    /// granted sample can reveal a bucket crossing, trigger a memory
    /// action, or move the regime machine. Grants are processed in
    /// (regime priority, last-sample epoch, chip id) order with no
    /// RNG draws, so the ledger, the journal, and every decision are
    /// bit-identical across shard counts. The least-recently-sampled
    /// chip in a class takes its tokens first: a chip the budget
    /// deferred gains seniority with every epoch it waits, so budget
    /// pressure spreads staleness across the class instead of
    /// starving whichever chips happen to sort last.
    ///
    /// The epoch runs as four passes. Passes 1 and 3 touch only one
    /// chip's own columns and run per shard in parallel; pass 2, the
    /// ledger, runs serially; pass 4 keeps only first touches serial:
    ///
    /// 1. *accrue and rank* (per shard): memory wear, then every due
    ///    chip with the class and sample history it held before this
    ///    epoch's samples, so priority cannot depend on order, ranked
    ///    by (class, last-sample epoch, index);
    /// 2. *ledger* (serial): each shard's ranked run splits into
    ///    segments of one (class, last-sample epoch). Sorting the
    ///    segments, lower shard first on a tie, places every due chip
    ///    in the (class, last-sample epoch, id) order of an unsharded
    ///    run, and the ledger takes one budget request per place in
    ///    that order. A grant's place is its rank;
    /// 3. *sample* (per shard): each deferred chip's sample slips to the
    ///    next epoch, journaled. Each granted chip is probed (ground
    ///    truth, memory verdict), and its grant — crossing and
    ///    decision, memory action, regime machine, Watch prefetch or
    ///    Intervene push — is settled against a view of the decider's
    ///    decided buckets and committed, or kept when it needs a bucket
    ///    the view lacks;
    /// 4. *first touches* (in rounds): the lowest-ranked kept grant on
    ///    any shard settles through the live decider. Every grant
    ///    ranked before it was committed from known keys, so it decides
    ///    its new keys exactly when the serial loop did. Then every
    ///    shard commits, in parallel, the kept grants the new view
    ///    settles. Each round decides at least one key.
    ///
    /// A grant touches only its own chip and its shard's journal, and
    /// the merged journal sorts by (epoch, chip), so the order in which
    /// shards commit never shows; each shard counts the plan hits of
    /// the grants it settled against a view once per pass or round. A
    /// decider error on the serial path ends the step with the epoch
    /// partly applied: grants ranked after the failing one may already
    /// be committed, on its shard and on the others.
    fn step_autopilot(
        &mut self,
        autopilot: &AutopilotConfig,
        epoch: u64,
        years: f64,
    ) -> Result<(), FleetError> {
        let memory = self.config.memory.as_ref();
        let cell = memory.map(|memory| memory.cell.calibrated());
        let at = SampleEpoch {
            autopilot,
            epoch,
            years,
            bucket_mv: self.config.bucket_mv,
            memory: memory.zip(cell.as_ref()),
        };
        let epoch_years = self.config.epoch_years;
        // Pass 1. Wear never waits for a sample: stress accrues every
        // epoch; only the *decisions* (re-encode, degrade) wait for a
        // granted observation.
        let due = par_map_mut(&mut self.shards, |shard| {
            if let Some(memory) = memory {
                shard.accrue_memory(memory, epoch_years);
            }
            shard.due_chips(epoch, at.bucket_mv)
        });

        // Pass 2. Sorting the shards' runs of one (class, last-sample
        // epoch), lower shard first on a tie, gives the order of an
        // unsharded run: (class, last-sample epoch, id).
        let mut segments: Vec<(usize, &[DueChip])> = due
            .iter()
            .enumerate()
            .flat_map(|(s, run)| {
                run.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1))
                    .map(move |segment| (s, segment))
            })
            .collect();
        segments.sort_unstable_by_key(|&(s, segment)| (Reverse(segment[0].0), segment[0].1, s));
        let mut budget = self.budget.take().expect("autopilot fleets carry a budget");
        autopilot.refill(&mut budget);
        let mut granted: Vec<Vec<Granted>> = vec![Vec::new(); due.len()];
        let mut deferred: Vec<Vec<(usize, Regime)>> = vec![Vec::new(); due.len()];
        let chips = segments.iter().flat_map(|&(s, segment)| {
            segment
                .iter()
                .map(move |&(class, _, index)| (s, class, index))
        });
        for (rank, (s, class, index)) in chips.enumerate() {
            match autopilot.request(&mut budget, class) {
                Grant::Granted => granted[s].push(Granted {
                    rank,
                    index,
                    class,
                    tokens_left: budget.tokens,
                }),
                Grant::Deferred => deferred[s].push((index, class)),
            }
        }
        self.budget = Some(budget);

        // Pass 3.
        let decided = self.decider.decided_buckets();
        let mut work: Vec<_> = self
            .shards
            .iter_mut()
            .zip(granted.iter().zip(&deferred))
            .collect();
        let (mut undecided, hits): (Vec<_>, Vec<_>) =
            par_map_mut(&mut work, |(shard, (grants, deferred))| {
                shard.defer_samples(deferred, epoch);
                shard.sample_granted(&at, grants, &decided)
            })
            .into_iter()
            .unzip();
        let decider = &self.decider;
        for hits in hits {
            decider.count_plan_hits(hits);
        }

        // Pass 4.
        loop {
            let first_touch = undecided
                .iter()
                .enumerate()
                .filter_map(|(s, probes)| Some((probes.first()?.rank(), s)))
                .min();
            let Some((_, s)) = first_touch else {
                break;
            };
            let probe = undecided[s].remove(0);
            let shard = &mut self.shards[s];
            let settled = shard
                .settle(&at, &probe, |bucket| {
                    decider.decide_bucket(bucket).map(Some)
                })?
                .expect("the live decider decides every key");
            shard.commit(settled, epoch);
            let decided = decider.decided_buckets();
            let mut work: Vec<_> = self.shards.iter_mut().zip(&mut undecided).collect();
            let hits = par_map_mut(&mut work, |(shard, probes)| {
                shard.commit_decided(&at, probes, &decided)
            });
            for hits in hits {
                decider.count_plan_hits(hits);
            }
        }
        Ok(())
    }

    /// Chips currently running a compressed plan whose *ground-truth*
    /// bucket is at or past `infeasible_from` — chips that crossed the
    /// degrade threshold without the controller noticing. The
    /// autopilot's acceptance bar is zero of these at every epoch, and
    /// `tests/autopilot.rs` holds it there at 4096 chips. A pure column
    /// scan: no decider involvement, so auditing cannot perturb cache
    /// counters or the characterization record.
    #[must_use]
    pub fn undetected_degrades(&self, infeasible_from: u64) -> usize {
        #[allow(clippy::cast_precision_loss)]
        let years = self.epoch as f64 * self.config.epoch_years;
        let bucket_mv = self.config.bucket_mv;
        self.shards
            .iter()
            .map(|shard| {
                (0..shard.len())
                    .filter(|&i| {
                        !shard.is_guardband(i)
                            && shard.observe(i, years, bucket_mv).1 >= infeasible_from
                    })
                    .count()
            })
            .sum()
    }

    /// The telemetry budget ledger, when the autopilot is armed.
    #[must_use]
    pub fn budget(&self) -> Option<&BudgetState> {
        self.budget.as_ref()
    }

    /// Arms the closed loop: installs `autopilot` into the config,
    /// enrolls every chip that does not already carry pilot state, and
    /// starts the budget ledger if none exists. Idempotent — re-arming
    /// keeps existing pilot state and the ledger, only swapping the
    /// thresholds. This is serve's `POST /v1/autopilot/enroll` and how
    /// `agequant-fleet autopilot --resume` migrates a pre-autopilot
    /// checkpoint: resume it, then arm it, and the next save writes
    /// format 4 while the physics continue bit-identically.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] when the autopilot
    /// thresholds are unphysical, with each violation spelled out.
    pub fn arm_autopilot(&mut self, autopilot: AutopilotConfig) -> Result<(), FleetError> {
        let violations = autopilot.violations();
        if !violations.is_empty() {
            return Err(FleetError::InvalidConfig(format!(
                "autopilot config: {}",
                violations.join("; ")
            )));
        }
        self.config.autopilot = Some(autopilot);
        self.enroll();
        Ok(())
    }

    /// Enrolls the closed loop's chips when the config arms it: every
    /// chip without pilot state as [`PilotState::FRESH`] (Calm, due
    /// now), and a ledger with a full burst bucket if none was
    /// carried. Draws nothing from the RNG.
    ///
    /// [`PilotState::FRESH`]: agequant_autopilot::PilotState::FRESH
    fn enroll(&mut self) {
        let Some(autopilot) = &self.config.autopilot else {
            return;
        };
        self.budget
            .get_or_insert_with(|| BudgetState::fresh(autopilot));
        for shard in &mut self.shards {
            shard.init_autopilot();
        }
    }

    /// Feeds a measured-vs-model telemetry residual into chip `idx`'s
    /// rate estimator. The absolute residual folds into the pilot's
    /// residual EWMA with the configured `ewma_alpha`, where it
    /// inflates the effective aging rate (weighted by
    /// `residual_weight`) — a chip whose reports keep disagreeing
    /// with the model escalates sooner and is sampled more often. A
    /// no-op when the autopilot is not armed or the chip is not
    /// enrolled; non-finite residuals are discarded.
    pub fn report_residual(&mut self, idx: usize, residual_mv: f64) {
        let Some(autopilot) = &self.config.autopilot else {
            return;
        };
        if !residual_mv.is_finite() {
            return;
        }
        let alpha = autopilot.ewma_alpha;
        if let Some(pilot) = self
            .locate(idx)
            .and_then(|(s, i)| self.shards[s].pilot_mut(i))
        {
            pilot.residual_mv = alpha * residual_mv.abs() + (1.0 - alpha) * pilot.residual_mv;
        }
    }

    /// The shard holding the chip with fleet index `idx` (its position
    /// in id order) and the chip's index in it, or `None` past the end.
    fn locate(&self, mut idx: usize) -> Option<(usize, usize)> {
        for (s, shard) in self.shards.iter().enumerate() {
            if idx < shard.len() {
                return Some((s, idx));
            }
            idx -= shard.len();
        }
        None
    }

    /// Runs `epochs` further epochs.
    ///
    /// # Errors
    ///
    /// Propagates the first [`FleetError`] of a failing step.
    pub fn run(&mut self, epochs: u64) -> Result<(), FleetError> {
        for _ in 0..epochs {
            self.step()?;
        }
        Ok(())
    }

    /// Materializes the complete checkpointable state: every chip in
    /// id order, the fleet RNG, and the current epoch. Bit-identical
    /// for any shard count.
    #[must_use]
    pub fn to_state(&self) -> FleetState {
        let mut chips = Vec::with_capacity(self.chip_count());
        for shard in &self.shards {
            for i in 0..shard.len() {
                chips.push(shard.chip(i));
            }
        }
        FleetState {
            format: Some(self.config.checkpoint_format()),
            config: self.config.clone(),
            epoch: self.epoch,
            rng: self.rng.clone(),
            chips,
            autopilot: self.budget,
        }
    }

    /// Encodes the binary checkpoint frame straight from the shards'
    /// struct-of-arrays columns, borrowing every chip field instead of
    /// cloning it. Byte-identical to `self.to_state().to_binary()` —
    /// both run the same encoder — but skips materializing a fat
    /// `Vec<Chip>` of the whole fleet first, which at a million chips
    /// is most of the save time.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Capacity`] if a table in the state
    /// exceeds the format's index width (practically unreachable).
    pub fn checkpoint_binary(&self) -> Result<Vec<u8>, FleetError> {
        crate::checkpoint::encode_frame(
            &self.config,
            self.epoch,
            &self.rng,
            self.budget.as_ref(),
            self.chip_views(),
            self.chip_count(),
        )
    }

    /// Every chip's checkpointable fields, borrowed from the shard
    /// columns in id order.
    fn chip_views(&self) -> impl Iterator<Item = crate::checkpoint::ChipView<'_>> + Clone {
        self.shards
            .iter()
            .flat_map(|shard| (0..shard.len()).map(move |i| shard.chip_view(i)))
    }

    /// The run's configuration.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The last completed epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total chips across all shards.
    #[must_use]
    pub fn chip_count(&self) -> usize {
        self.shards.iter().map(FleetShard::len).sum()
    }

    /// Materializes the chip with fleet index `idx` (its position in
    /// id order), or `None` past the end.
    #[must_use]
    pub fn chip(&self, idx: usize) -> Option<Chip> {
        self.locate(idx).map(|(s, i)| self.shards[s].chip(i))
    }

    /// The events journaled since this sim was built or resumed, or
    /// since the last [`FleetSim::flush_journal`], merged across
    /// shards into the order an unsharded run emits them: epoch-major,
    /// then chip-major — id order, the order decisions are applied in.
    /// A resumed sim journals only post-resume events, so appending
    /// them to the original journal file reconstructs the full history.
    #[must_use]
    pub fn journal(&self) -> Vec<JournalEvent> {
        let mut merged: Vec<JournalEvent> = self
            .shards
            .iter()
            .flat_map(|shard| shard.journal().iter().copied())
            .collect();
        // A stable sort keeps each chip's own events in push order (a
        // chip lives in exactly one shard). Sorting by chip, not shard,
        // keeps the order shard-count-invariant: each shard journals
        // its MAC pass before its memory pass, so a chip with both a
        // MAC and a memory event in one epoch would otherwise
        // interleave differently at different shard counts.
        merged.sort_by_key(|event| (event.epoch, event.chip));
        merged
    }

    /// Hands the held journal to its host: appends it to the
    /// JSON-lines file at `path`, then forgets it, so the next
    /// [`FleetSim::journal`] holds only what later epochs journal and
    /// a host's fleet holds the events since its last flush, not its
    /// whole uptime. Nothing is opened when no event is held. A failed
    /// append keeps the events for the next flush; with no `path` they
    /// are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Io`] if the file cannot be opened or
    /// appended to.
    pub fn flush_journal(&mut self, path: Option<&Path>) -> Result<(), FleetError> {
        if let Some(path) = path {
            let events = self.journal();
            if !events.is_empty() {
                let io = |e: std::io::Error| FleetError::Io(format!("{}: {e}", path.display()));
                OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(io)?
                    .write_all(crate::journal::to_jsonl(&events).as_bytes())
                    .map_err(io)?;
            }
        }
        for shard in &mut self.shards {
            shard.clear_journal();
        }
        Ok(())
    }

    /// The shared decision core.
    #[must_use]
    pub fn decider(&self) -> &Arc<Decider> {
        &self.decider
    }

    /// The underlying decision flow.
    #[must_use]
    pub fn flow(&self) -> &AgingAwareQuantizer {
        self.decider.flow()
    }

    /// The engine's cache counters for this sim instance.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.decider.flow().engine().stats()
    }

    /// The engine's cache counters split by degradation-model key.
    #[must_use]
    pub fn cache_stats_by_model(&self) -> BTreeMap<String, CacheStats> {
        self.decider.flow().engine().stats_by_model()
    }

    /// The distinct aging buckets fully characterized by this sim's
    /// decision core (feasible or proven infeasible), in
    /// first-encounter order. With a fixed constraint this is exactly
    /// the set of distinct `(bucket, constraint)` pairs — and
    /// therefore exactly the engine's plan-cache miss count.
    #[must_use]
    pub fn buckets_planned(&self) -> Vec<u64> {
        self.decider.buckets_planned()
    }

    /// The timing constraint every plan is held to, ps.
    #[must_use]
    pub fn constraint_ps(&self) -> f64 {
        self.decider.constraint_ps()
    }

    /// The fallback clock period of a degraded chip, ps.
    #[must_use]
    pub fn guardband_period_ps(&self) -> f64 {
        self.decider.guardband_period_ps()
    }

    /// The fleet-level summary of the current state, including this
    /// instance's live cache statistics.
    #[must_use]
    pub fn summary(&self) -> FleetSummary {
        let mut summary = FleetSummary::from_views(
            &self.config,
            self.epoch,
            self.budget.as_ref(),
            self.chip_views(),
            Some(self.cache_stats()),
        );
        summary.cache_by_model = Some(
            self.cache_stats_by_model()
                .into_iter()
                .map(|(model, stats)| ModelCacheSummary {
                    model,
                    cache: stats.into(),
                })
                .collect(),
        );
        summary
    }
}

#[cfg(test)]
mod tests {
    use agequant_aging::DegradationModel;

    use super::*;
    use crate::chip::ChipMode;

    fn tiny_config() -> FleetConfig {
        let mut config = FleetConfig::new(8, 13);
        config.epoch_years = 2.5;
        config
    }

    #[test]
    fn fresh_fleet_starts_uncompressed_in_bucket_zero() {
        let sim = FleetSim::new(tiny_config()).expect("valid config");
        let state = sim.to_state();
        assert_eq!(state.epoch, 0);
        for chip in &state.chips {
            assert_eq!(chip.bucket, 0);
            assert_eq!(chip.mode, ChipMode::Compressed);
            let plan = chip.plan.expect("planned at epoch 0");
            assert!(plan.plan.compression.is_uncompressed());
        }
        // One characterization served the whole fleet.
        assert_eq!(sim.buckets_planned(), &[0]);
        assert_eq!(sim.cache_stats().plan_misses, 1);
    }

    #[test]
    fn stepping_advances_buckets_monotonically() {
        let mut sim = FleetSim::new(tiny_config()).expect("valid config");
        let mut last: Vec<u64> = sim.to_state().chips.iter().map(|c| c.bucket).collect();
        for _ in 0..4 {
            sim.step().expect("step");
            for (chip, prev) in sim.to_state().chips.iter().zip(&last) {
                assert!(chip.bucket >= *prev, "buckets never regress");
            }
            last = sim.to_state().chips.iter().map(|c| c.bucket).collect();
        }
        assert_eq!(sim.epoch(), 4);
        // 10 years under mixed missions: at least one chip aged past
        // bucket 0, and every aged compressed chip holds a real plan.
        let state = sim.to_state();
        assert!(state.chips.iter().any(|c| c.bucket > 0));
        for chip in &state.chips {
            if chip.mode == ChipMode::Compressed && chip.bucket > 0 {
                let plan = chip.plan.expect("replanned");
                assert_eq!(plan.bucket, chip.bucket);
                assert!(plan.plan.compressed_delay_ps <= sim.constraint_ps() + 1e-9);
            }
        }
    }

    #[test]
    fn shard_direct_checkpoint_matches_the_state_path_byte_for_byte() {
        // The fast path encodes straight from shard columns; the slow
        // path materializes a Vec<Chip> first. A multi-shard sim with a
        // few epochs of divergent plans must produce identical frames
        // either way — same plan-interning order, same chip order.
        let mut config = FleetConfig::new(64, 29);
        config.epoch_years = 2.5;
        let mut sim = FleetSim::new_sharded(config, 4).expect("valid config");
        sim.run(3).expect("simulates");
        assert_eq!(
            sim.checkpoint_binary().expect("shard-direct encode"),
            sim.to_state().to_binary().expect("state-path encode"),
        );
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = FleetConfig::new(0, 1);
        assert!(matches!(
            FleetSim::new(c.clone()),
            Err(FleetError::InvalidConfig(_))
        ));
        c.chips = 4;
        c.bucket_mv = 0.0;
        assert!(FleetSim::new(c).is_err());
    }

    #[test]
    fn resume_rejects_chip_count_mismatch() {
        let sim = FleetSim::new(tiny_config()).expect("valid config");
        let mut state = sim.to_state();
        state.chips.pop();
        assert!(matches!(
            FleetSim::resume(state),
            Err(FleetError::Malformed(_))
        ));
    }

    /// A format-1 checkpoint (written before chips carried a full
    /// [`ModelSpec`]) migrates on load: the legacy per-chip `nbti`
    /// kinetics record becomes an equivalent NBTI model spec, and the
    /// migrated state matches a fresh re-simulation of the same run on
    /// every behavioral field. The recovered profile inverts the old
    /// stored prefactor, so its end-of-life shift may differ from the
    /// resampled one by float round-off — compared with a tight
    /// tolerance, never re-derived.
    #[test]
    fn format_one_checkpoints_migrate_on_load() {
        let legacy = include_str!("../tests/fixtures/checkpoint-v1.json");
        let migrated = FleetState::from_json(legacy).expect("legacy checkpoint migrates");
        assert_eq!(migrated.format, Some(CHECKPOINT_FORMAT));

        // Re-simulate the run the fixture was captured from:
        // `agequant-fleet run --chips 8 --epochs 3 --seed 2021`.
        let mut sim = FleetSim::new(FleetConfig::new(8, 2021)).expect("valid config");
        sim.run(3).expect("simulates");
        let fresh = sim.to_state();

        assert_eq!(migrated.config, fresh.config);
        assert_eq!(migrated.epoch, fresh.epoch);
        assert_eq!(migrated.rng, fresh.rng);
        assert_eq!(migrated.chips.len(), fresh.chips.len());
        for (m, f) in migrated.chips.iter().zip(&fresh.chips) {
            assert_eq!(m.id, f.id);
            assert_eq!(m.kind, f.kind);
            assert_eq!(m.profile, f.profile);
            assert_eq!(m.bucket, f.bucket);
            assert_eq!(m.mode, f.mode);
            assert_eq!(m.plan, f.plan);
            assert_eq!(m.model.kind_name(), "nbti");
            let mp = m.model.profile();
            let fp = f.model.profile();
            assert_eq!(mp.exponent.to_bits(), fp.exponent.to_bits());
            assert!(
                (mp.eol_shift_v - fp.eol_shift_v).abs() < 1e-15,
                "chip {}: {} vs {}",
                m.id,
                mp.eol_shift_v,
                fp.eol_shift_v
            );
            assert_eq!(mp.vdd, fp.vdd);
            assert_eq!(mp.lifetime_years, fp.lifetime_years);
        }

        // The migrated state resumes and keeps simulating.
        let mut resumed = FleetSim::resume(migrated.clone()).expect("resumes");
        resumed.step().expect("steps");
        assert_eq!(resumed.epoch(), migrated.epoch + 1);

        // And a saved migrated state is already format 2: re-loading
        // it is a pure round-trip, no second migration.
        let frame = migrated.to_binary().expect("encodes");
        let round = FleetState::load(&frame).expect("round-trips");
        assert_eq!(round, migrated);
    }

    /// Format-2 checkpoint trees pass through the migration untouched.
    #[test]
    fn format_two_trees_are_not_migrated() {
        let text = include_str!("../tests/fixtures/checkpoint-v2.json");
        let tree: Value = serde_json::from_str(text).expect("fixture parses");
        let mut migrated = tree.clone();
        migrate_checkpoint(&mut migrated).expect("migrates");
        assert_eq!(migrated, tree);
        let state = FleetState::from_json(text).expect("fixture loads");
        assert_eq!(state.format, Some(CHECKPOINT_FORMAT));
    }

    /// After a flush, the journal holds exactly the events an
    /// uncleared twin journals in the later epochs, in the same merged
    /// order, at one shard and at several.
    #[test]
    fn a_cleared_journal_holds_exactly_the_later_epochs() {
        let mut config = FleetConfig::new(24, 11);
        config.epoch_years = 1.5;
        config.memory = Some(MemoryConfig::demo());
        config.autopilot = Some(AutopilotConfig::demo());
        for shards in [1, 3] {
            let mut sim = FleetSim::new_sharded(config.clone(), shards).expect("valid config");
            let mut twin = FleetSim::new_sharded(config.clone(), shards).expect("valid config");
            sim.run(4).expect("simulates");
            twin.run(4).expect("simulates");
            sim.flush_journal(None).expect("clears");
            assert!(sim.journal().is_empty());
            sim.run(6).expect("simulates");
            twin.run(6).expect("simulates");
            let later: Vec<JournalEvent> = twin
                .journal()
                .into_iter()
                .filter(|event| event.epoch > 4)
                .collect();
            assert!(!later.is_empty(), "{shards} shards");
            assert_eq!(sim.journal(), later, "{shards} shards");
        }
    }

    /// A scratch directory unique to one test in this process.
    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("agequant-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    /// An autopilot fleet journals its cadence grants every epoch.
    fn autopilot_fleet() -> FleetSim {
        let mut config = FleetConfig::new(8, 7);
        config.autopilot = Some(AutopilotConfig::demo());
        FleetSim::new_sharded(config, 3).expect("valid config")
    }

    /// Every flush leaves the fleet holding no events, with a journal
    /// file or without one, and the file gains each event once: it
    /// ends equal to the whole journal of a twin fleet that never
    /// clears.
    #[test]
    fn every_flush_releases_the_hosted_journal() {
        let dir = scratch_dir("flush");
        let path = dir.join("journal.jsonl");
        for file in [None, Some(path.as_path())] {
            if let Some(file) = file {
                std::fs::write(file, "").expect("journal file");
            }
            let mut sim = autopilot_fleet();
            let mut twin = autopilot_fleet();
            sim.flush_journal(file).expect("flushes epoch 0");
            assert!(sim.journal().is_empty());
            while sim.epoch() < 40 {
                sim.step().expect("steps");
                twin.step().expect("steps");
                sim.flush_journal(file).expect("flushes");
                assert!(sim.journal().is_empty(), "epoch {} held", sim.epoch());
            }
            if let Some(file) = file {
                let text = std::fs::read_to_string(file).expect("journal file");
                assert_eq!(text, crate::journal::to_jsonl(&twin.journal()));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A flush whose append fails reports it and keeps the events; the
    /// next flush that can write appends each of them exactly once.
    #[test]
    fn a_failed_flush_keeps_its_events_for_the_next() {
        let dir = scratch_dir("flush-retry");
        let path = dir.join("journal.jsonl");
        let mut sim = autopilot_fleet();
        let mut twin = autopilot_fleet();
        sim.run(3).expect("simulates");
        twin.run(3).expect("simulates");
        assert!(sim.flush_journal(Some(&dir)).is_err());
        assert_eq!(sim.journal(), twin.journal(), "the failed flush kept them");
        sim.run(2).expect("simulates");
        twin.run(2).expect("simulates");
        assert!(sim.flush_journal(Some(&dir)).is_err());
        sim.flush_journal(Some(&path)).expect("flushes");
        assert!(sim.journal().is_empty());
        let text = std::fs::read_to_string(&path).expect("journal file");
        assert_eq!(text, crate::journal::to_jsonl(&twin.journal()));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The shard partition covers every chip for any requested count,
    /// including degenerate requests.
    #[test]
    fn partitions_are_contiguous_and_complete() {
        for (chips, shards) in [(1, 1), (7, 2), (8, 8), (8, 64), (1000, 3), (5, 0)] {
            let parts = partition(chips, shards);
            assert_eq!(parts.iter().sum::<usize>(), chips, "{chips}/{shards}");
            assert!(!parts.is_empty());
            assert!(parts.iter().all(|&p| p > 0), "{chips}/{shards}: {parts:?}");
            assert!(parts.len() <= chips.max(1));
        }
    }
}
