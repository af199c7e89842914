//! The struct-of-arrays fleet shard.
//!
//! At a million chips the `Vec<Chip>` layout pays for itself in cache
//! misses: each epoch's physics pass touches only a chip's kinetics,
//! mission acceleration, and bucket, yet drags the full fat struct
//! (model spec, mission phases, plan) through the cache with it. A
//! [`FleetShard`] splits the population into parallel arrays — the hot
//! physics fields (`accel`, `kinetics`, `bucket`, `mode`) contiguous
//! and scanned linearly, the cold identity fields (model spec, mission
//! profile, plan) in side tables touched only when a chip is
//! materialized or replanned.
//!
//! Each shard owns a contiguous id range and its own journal segment.
//! A fresh shard samples its chips from its own [`FleetRng`] substream
//! (positioned by replaying the sampling draw counts of the chips
//! before it, so the sampled fleet is bit-identical to the
//! single-stream construction); the substream lives only while
//! sampling. Shards age independently — the physics pass is pure per
//! chip. Every decider call that can decide a new key runs on the
//! simulator's serial path, in the order of an unsharded run, which
//! keeps the engine's cache counters and the decider's memo order
//! identical to it.
//!
//! Every per-chip rule has one home here: a bucket crossing
//! ([`FleetShard::cross`]), a replan ([`FleetShard::replan`]), the
//! memory verdict, and a granted telemetry sample. A grant takes two
//! steps. [`FleetShard::settle`] reads the shard and a decision lookup
//! and computes all the grant does, or reports it undecided when the
//! lookup lacks a key; [`FleetShard::commit`] writes a settled grant
//! to the chip's columns and journal. The closed loop probes and
//! settles each shard's grants against the decider's bucket-indexed
//! view in parallel ([`FleetShard::sample_granted`], then
//! [`FleetShard::commit_decided`] for grants kept back), and a grant
//! that needs a key nobody has decided settles through the live
//! decider instead, on the serial path, by the same two steps.
//!
//! `kinetics` additionally pre-resolves each chip's [`ModelSpec`] into
//! a [`HotKinetics`] value: the NBTI power-law calibration and the HCI
//! closed form are computed once per chip instead of once per
//! chip-epoch, bit-identically to evaluating the spec directly (the
//! surrogate table keeps delegating to the spec).

use std::cmp::Reverse;
use std::convert::Infallible;

use agequant_aging::{MissionProfile, ModelSpec, NbtiModel, VthShift};
use agequant_autopilot::{AutopilotConfig, Observation, PilotState, Regime};
use agequant_mem::{CalibratedCell, MemoryConfig};

use crate::chip::{Chip, ChipMemState, ChipMode, ChipPlan, MissionKind};
use crate::decide::{Decider, Decision};
use crate::journal::{EventKind, JournalEvent};
use crate::rng::FleetRng;
use crate::FleetError;

/// What the memory verdict concluded about one chip's weight-memory
/// health — the second decision axis, orthogonal to the MAC timing
/// [`Decision`]. A chip can pass timing with a comfortable compression
/// plan and still need its weight memory re-encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryAction {
    /// Re-encode the chip's weight memory: toggle the stored polarity
    /// so NBTI stress moves to the complementary cell side.
    Reencode,
    /// The worst-bit failure probability crossed the degrade threshold
    /// and no re-encode can help (budget exhausted, or the complement
    /// side is already the worse one): declare the memory axis
    /// degraded.
    Degrade,
}

/// A chip's degradation kinetics, pre-resolved for the hot physics
/// loop. Every variant reproduces `ModelSpec::shift_at` bit for bit.
#[derive(Debug, Clone)]
enum HotKinetics {
    /// NBTI power law with the calibration already folded in.
    Nbti(NbtiModel),
    /// The HCI closed form `EOL · a · √(t / L)` with its three
    /// constants unpacked.
    Hci {
        eol_shift_v: f64,
        lifetime_years: f64,
        activity: f64,
    },
    /// No fast path (surrogate tables): evaluate the spec directly.
    Cold,
}

impl HotKinetics {
    fn of(model: &ModelSpec) -> HotKinetics {
        match model {
            ModelSpec::Nbti(m) => HotKinetics::Nbti(m.profile.nbti().with_duty_cycle(m.duty_cycle)),
            ModelSpec::Hci(m) => HotKinetics::Hci {
                eol_shift_v: m.profile.eol_shift_v,
                lifetime_years: m.profile.lifetime_years,
                activity: m.activity,
            },
            ModelSpec::Surrogate(_) => HotKinetics::Cold,
        }
    }

    /// ΔVth after `t` effective stress years; `model` backs the cold
    /// path. Mirrors the exact expression order of the spec's own
    /// `shift_at` impls so the result is bit-identical.
    fn shift_at(&self, model: &ModelSpec, t: f64) -> VthShift {
        use agequant_aging::DegradationModel;
        match self {
            HotKinetics::Nbti(kinetics) => kinetics.vth_shift_at(t),
            HotKinetics::Hci {
                eol_shift_v,
                lifetime_years,
                activity,
            } => {
                let scaled = (t / lifetime_years).sqrt();
                VthShift::from_volts(eol_shift_v * activity * scaled)
            }
            HotKinetics::Cold => model.shift_at(t),
        }
    }
}

/// A chip due for a telemetry sample, as snapshotted before any of the
/// epoch's samples: the priority class it requests under, the epoch of
/// its last sample, and its index in the shard.
pub(crate) type DueChip = (Regime, u64, usize);

/// A telemetry sample the budget ledger granted, as the ledger hands it
/// to the chip's shard.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Granted {
    /// The grant's place in the epoch's fleet-wide grant order.
    pub(crate) rank: usize,
    /// The chip's index in its shard.
    pub(crate) index: usize,
    /// The priority class the grant was issued under.
    pub(crate) class: Regime,
    /// The ledger's tokens left after the grant.
    pub(crate) tokens_left: u64,
}

/// What every granted sample of one closed-loop epoch shares.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SampleEpoch<'a> {
    /// The autopilot's thresholds.
    pub(crate) autopilot: &'a AutopilotConfig,
    /// The epoch being stepped.
    pub(crate) epoch: u64,
    /// Deployment years at the end of the epoch.
    pub(crate) years: f64,
    /// Width of one aging bucket, mV.
    pub(crate) bucket_mv: f64,
    /// The memory config and its once-calibrated cell, when the fleet
    /// tracks memory.
    pub(crate) memory: Option<(&'a MemoryConfig, &'a CalibratedCell)>,
}

/// What a granted telemetry sample reads from the chip's own columns.
/// Probes are pure, so the simulator computes them per shard in
/// parallel.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Probe {
    /// The grant the sample was taken under.
    grant: Granted,
    /// Ground-truth ΔVth, mV.
    mv: f64,
    /// The bucket `mv` truly sits in.
    true_bucket: u64,
    /// The chip's memory verdict: the action the sample orders, if
    /// any, and the memory pressure in `[0, 1]` left after it.
    memory: (Option<MemoryAction>, f64),
}

impl Probe {
    /// The grant's place in the epoch's fleet-wide grant order.
    pub(crate) fn rank(&self) -> usize {
        self.grant.rank
    }
}

/// A granted sample settled against known decisions
/// ([`FleetShard::settle`]): everything [`FleetShard::commit`] writes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Settled {
    grant: Granted,
    /// The revealed crossing: the bucket reached, and its decision
    /// (`None` for a guardbanded chip, which only tracks its bucket).
    crossing: Option<(u64, Option<Decision>)>,
    /// The memory action the sample orders.
    memory: Option<MemoryAction>,
    /// The pilot state with the observation folded in.
    pilot: PilotState,
    /// The regime change the observation caused.
    transition: Option<(Regime, Regime)>,
    /// The effective aging rate the regime machine stepped on, mV per
    /// epoch.
    rate_mv_per_epoch: f64,
    /// Headroom to the planned bucket's upper edge, mV.
    margin_mv: f64,
    /// The Intervene push's decision for the projected bucket.
    push: Option<Decision>,
    /// Feasible decisions read, the Watch prefetch's included: one plan
    /// hit each.
    plan_hits: u64,
}

/// A contiguous id range of the fleet in struct-of-arrays layout:
/// hot physics fields in their own arrays, cold identity fields in
/// side tables, plus the shard's journal segment.
#[derive(Debug)]
#[cfg_attr(test, derive(Clone))]
pub(crate) struct FleetShard {
    // Hot: scanned every epoch by the physics pass.
    accel: Vec<f64>,
    kinetics: Vec<HotKinetics>,
    bucket: Vec<u64>,
    mode: Vec<ChipMode>,
    /// The weight truncation β of the chip's `plan` (0 without one),
    /// written wherever `plan` is, so the memory pass reads one byte
    /// per chip instead of the plan.
    beta: Vec<u8>,
    // Cold: touched on materialization and replans only.
    id: Vec<u32>,
    kind: Vec<MissionKind>,
    model: Vec<ModelSpec>,
    profile: Vec<MissionProfile>,
    plan: Vec<Option<ChipPlan>>,
    mem: Vec<Option<ChipMemState>>,
    pilot: Vec<Option<PilotState>>,
    journal: Vec<JournalEvent>,
}

/// The weight truncation β a chip on `plan` runs at: 0 without one.
fn plan_beta(plan: Option<&ChipPlan>) -> u8 {
    plan.map_or(0, |p| p.plan.compression.beta())
}

impl FleetShard {
    /// Builds a shard from its chips in id order (checkpointed chips
    /// are preserved verbatim, ids included).
    pub(crate) fn from_chips(chips: impl ExactSizeIterator<Item = Chip>) -> Self {
        let n = chips.len();
        let mut shard = FleetShard {
            accel: Vec::with_capacity(n),
            kinetics: Vec::with_capacity(n),
            bucket: Vec::with_capacity(n),
            mode: Vec::with_capacity(n),
            beta: Vec::with_capacity(n),
            id: Vec::with_capacity(n),
            kind: Vec::with_capacity(n),
            model: Vec::with_capacity(n),
            profile: Vec::with_capacity(n),
            plan: Vec::with_capacity(n),
            mem: Vec::with_capacity(n),
            pilot: Vec::with_capacity(n),
            journal: Vec::new(),
        };
        for chip in chips {
            shard.accel.push(chip.profile.acceleration());
            shard.kinetics.push(HotKinetics::of(&chip.model));
            shard.bucket.push(chip.bucket);
            shard.mode.push(chip.mode);
            shard.id.push(chip.id);
            shard.kind.push(chip.kind);
            shard.model.push(chip.model);
            shard.profile.push(chip.profile);
            shard.plan.push(chip.plan);
            shard.beta.push(plan_beta(chip.plan.as_ref()));
            shard.mem.push(chip.mem);
            shard.pilot.push(chip.pilot);
        }
        shard
    }

    /// Samples `count` fresh chips with ids `base..base + count` from
    /// `rng` (the shard's substream, pre-positioned by the caller), and
    /// returns the substream positioned after their draws.
    pub(crate) fn sample(
        base: u32,
        count: u32,
        config_model: &ModelSpec,
        mut rng: FleetRng,
    ) -> (Self, FleetRng) {
        let chips = (0..count).map(|offset| Chip::sample(base + offset, config_model, &mut rng));
        (FleetShard::from_chips(chips), rng)
    }

    /// Number of chips in the shard.
    pub(crate) fn len(&self) -> usize {
        self.bucket.len()
    }

    /// The shard's journal segment: this shard's chips' events since
    /// the last [`FleetShard::clear_journal`], in emission order.
    pub(crate) fn journal(&self) -> &[JournalEvent] {
        &self.journal
    }

    /// Forgets the journal segment, keeping its allocation for the
    /// events still to come.
    pub(crate) fn clear_journal(&mut self) {
        self.journal.clear();
    }

    /// Materializes chip `i` back into the fat representation.
    pub(crate) fn chip(&self, i: usize) -> Chip {
        Chip {
            id: self.id[i],
            kind: self.kind[i],
            model: self.model[i].clone(),
            profile: self.profile[i].clone(),
            bucket: self.bucket[i],
            mode: self.mode[i],
            plan: self.plan[i],
            mem: self.mem[i],
            pilot: self.pilot[i],
        }
    }

    /// Borrows chip `i`'s checkpointable fields straight from the
    /// columns — no clones, which is what makes the shard-direct save
    /// path cheap at fleet scale.
    pub(crate) fn chip_view(&self, i: usize) -> crate::checkpoint::ChipView<'_> {
        crate::checkpoint::ChipView {
            id: self.id[i],
            kind: self.kind[i],
            model: &self.model[i],
            profile: &self.profile[i],
            bucket: self.bucket[i],
            mode: self.mode[i],
            plan: self.plan[i].as_ref(),
            mem: self.mem[i],
            pilot: self.pilot[i],
        }
    }

    /// Arms the memory axis: every chip starts with a fresh
    /// [`ChipMemState`]. Draws nothing from the RNG, so the sampling
    /// stream is untouched.
    pub(crate) fn init_memory(&mut self) {
        for slot in &mut self.mem {
            *slot = Some(ChipMemState::FRESH);
        }
    }

    /// Arms the autopilot: every chip not already enrolled gets a
    /// fresh [`PilotState`] (Calm, due immediately); chips that carry
    /// pilot state (a re-arm, or a resumed checkpoint) keep it. Draws
    /// nothing from the RNG, so the sampling stream is untouched.
    pub(crate) fn init_autopilot(&mut self) {
        for slot in &mut self.pilot {
            if slot.is_none() {
                *slot = Some(PilotState::FRESH);
            }
        }
    }

    /// Chip `i`'s pilot state, when the autopilot is armed.
    pub(crate) fn pilot_mut(&mut self, i: usize) -> Option<&mut PilotState> {
        self.pilot[i].as_mut()
    }

    /// One ground-truth observation of chip `i` at `years` of
    /// deployment — what a telemetry sample of the chip would report:
    /// its ΔVth in mV and the aging bucket that shift truly sits in
    /// (computed from the un-rounded shift; [`FleetShard::crossings`]
    /// reads the same).
    pub(crate) fn observe(&self, i: usize, years: f64, bucket_mv: f64) -> (f64, u64) {
        let t = self.accel[i] * years;
        let shift = self.kinetics[i].shift_at(&self.model[i], t);
        (shift.millivolts(), Chip::bucket_of(shift, bucket_mv))
    }

    /// Appends one event to the shard's journal segment.
    fn push_event(&mut self, event: JournalEvent) {
        self.journal.push(event);
    }

    /// One epoch of weight-memory aging for every chip: accrues SRAM
    /// stress exposure on the currently stressed polarity (shaped by
    /// the active plan's weight truncation β and the chip's mission
    /// acceleration), then applies each chip's memory verdict under
    /// `cell`, `config.cell` calibrated once for the pass.
    pub(crate) fn step_memory(
        &mut self,
        config: &MemoryConfig,
        cell: &CalibratedCell,
        epoch: u64,
        epoch_years: f64,
    ) {
        self.accrue_memory(config, epoch_years);
        for i in 0..self.len() {
            if let (Some(action), _) = self.memory_verdict(i, config, cell) {
                self.apply_memory_action(epoch, i, action);
            }
        }
    }

    /// The memory verdict on chip `i`: the action its worst-bit failure
    /// probability orders, and the memory pressure in `[0, 1]` left
    /// after it. `Degrade` past the degrade threshold (the probability
    /// is monotone in exposure, so no re-encode can take it back);
    /// `Reencode` past the re-encode threshold when a toggle would move
    /// at least `reencode_gap_years` of stress onto the less-worn side.
    /// A chip whose memory degrades now, already had, or is not tracked
    /// reports zero pressure: a failed axis must not pin the chip in
    /// Intervene forever.
    fn memory_verdict(
        &self,
        i: usize,
        config: &MemoryConfig,
        cell: &CalibratedCell,
    ) -> (Option<MemoryAction>, f64) {
        let Some(state) = self.mem[i].filter(|state| !state.degraded) else {
            return (None, 0.0);
        };
        let prob = cell.failure_prob_at_exposure(state.worst_stress_years());
        if prob >= config.degrade_threshold {
            return (Some(MemoryAction::Degrade), 0.0);
        }
        let pressure = (prob / config.degrade_threshold).clamp(0.0, 1.0);
        // A re-encode only helps while the accruing side leads the spare
        // side by a material margin — right after a toggle the spare side
        // holds the maximum, and flipping again before the gap re-opens
        // would churn the budget for no levelling gain. The gap is what
        // spaces flips into a periodic schedule.
        let useful_reencode = state.reencodes < config.max_reencodes
            && state.stress_active_years - state.stress_spare_years >= config.reencode_gap_years;
        if prob >= config.reencode_threshold && useful_reencode {
            return (Some(MemoryAction::Reencode), pressure);
        }
        (None, pressure)
    }

    /// The pure physics half of the memory axis: accrues one epoch of
    /// SRAM stress exposure for every chip. Kept separate from the
    /// decision half so the autopilot can defer memory *actions* to
    /// sample time while the wear itself never pauses.
    pub(crate) fn accrue_memory(&mut self, config: &MemoryConfig, epoch_years: f64) {
        // The stress duty per β, computed on first use in this pass.
        let mut duty_by_beta = [None; 1 << u8::BITS];
        for i in 0..self.len() {
            let Some(state) = self.mem[i].as_mut() else {
                continue;
            };
            let beta = self.beta[i];
            let duty = *duty_by_beta[usize::from(beta)]
                .get_or_insert_with(|| config.cell.stress_duty(config.asymmetry_for_beta(beta)));
            state.stress_active_years += duty * self.accel[i] * epoch_years;
        }
    }

    /// The decision half of the memory axis for one chip: applies
    /// `action`, journaling the re-encode or memory degradation.
    fn apply_memory_action(&mut self, epoch: u64, i: usize, action: MemoryAction) {
        let Some(state) = self.mem[i].as_mut() else {
            return;
        };
        let kind = match action {
            MemoryAction::Reencode => {
                state.reencode();
                EventKind::Reencoded {
                    count: state.reencodes,
                }
            }
            MemoryAction::Degrade => {
                state.degraded = true;
                EventKind::MemoryDegraded {
                    reencodes: state.reencodes,
                }
            }
        };
        self.push_event(JournalEvent {
            epoch,
            chip: self.id[i],
            kind,
        });
    }

    /// Every enrolled chip due for a sample at `epoch`, with the
    /// priority class it requests under, in rank order: classes
    /// descending, then the least recently sampled first, then index
    /// order. A chip whose own last-known rate projects it past its
    /// recorded bucket's edge has likely already crossed while
    /// waiting, and a chip that has never taken a real reading (ΔVth
    /// is strictly positive once any time has passed) cannot be
    /// rationed on knowledge it does not have. Both request at
    /// Intervene priority regardless of their resting regime, so
    /// sustained budget pressure can delay quiet chips but never park
    /// a chip on a stale plan across a boundary, and every enrolled
    /// chip gets its baseline read.
    pub(crate) fn due_chips(&self, epoch: u64, bucket_mv: f64) -> Vec<DueChip> {
        let mut due = Vec::new();
        for (i, pilot) in self.pilot.iter().enumerate() {
            let pilot = pilot.expect("autopilot fleets enroll every chip");
            if !pilot.due(epoch) {
                continue;
            }
            #[allow(clippy::cast_precision_loss)]
            let projected_mv = pilot.last_mv
                + pilot.rate_mv_per_epoch * epoch.saturating_sub(pilot.last_epoch) as f64;
            let never_measured =
                epoch >= 1 && pilot.last_mv <= 0.0 && pilot.rate_mv_per_epoch <= 0.0;
            #[allow(clippy::cast_precision_loss)]
            let overrun = !self.is_guardband(i)
                && (never_measured
                    || projected_mv >= (self.bucket[i].saturating_add(1)) as f64 * bucket_mv);
            let class = if overrun {
                Regime::Intervene
            } else {
                pilot.regime
            };
            due.push((class, pilot.last_epoch, i));
        }
        // Stable, so index order holds within a (class, last sample)
        // run; the few distinct keys make this cheaper than sorting on
        // the index too.
        due.sort_by_key(|&(class, last_epoch, _)| (Reverse(class), last_epoch));
        due
    }

    /// Reads what a granted sample of chip `grant.index` at the end of
    /// epoch `at` reveals (see [`Probe`]): its ground truth and, when
    /// the fleet tracks memory, its memory verdict.
    pub(crate) fn probe(&self, grant: Granted, at: &SampleEpoch) -> Probe {
        let i = grant.index;
        let (mv, true_bucket) = self.observe(i, at.years, at.bucket_mv);
        Probe {
            grant,
            mv,
            true_bucket,
            memory: at.memory.map_or((None, 0.0), |(config, cell)| {
                self.memory_verdict(i, config, cell)
            }),
        }
    }

    /// Slips each deferred chip's sample to the next epoch and journals
    /// the deferral, so starvation is auditable, never silent.
    pub(crate) fn defer_samples(&mut self, deferred: &[(usize, Regime)], epoch: u64) {
        for &(i, regime) in deferred {
            self.pilot[i]
                .as_mut()
                .expect("due chip has a pilot")
                .next_epoch = epoch + 1;
            self.push_event(JournalEvent {
                epoch,
                chip: self.id[i],
                kind: EventKind::CadenceDeferred { regime },
            });
        }
    }

    /// The pure physics pass: every chip whose ΔVth at `years` crosses
    /// into a higher bucket, as `(index, new_bucket)` in index order.
    /// Safe to run concurrently across shards.
    pub(crate) fn crossings(&self, years: f64, bucket_mv: f64) -> Vec<(usize, u64)> {
        (0..self.len())
            .map(|i| (i, self.observe(i, years, bucket_mv).1))
            .filter(|&(i, bucket)| bucket > self.bucket[i])
            .collect()
    }

    pub(crate) fn is_guardband(&self, i: usize) -> bool {
        self.mode[i] == ChipMode::Guardband
    }

    /// Chip `i` crossed into bucket `to` at `epoch`: journals the
    /// crossing, then replans the chip. A guardbanded chip only tracks
    /// its bucket — infeasibility is monotone in ΔVth, so no later
    /// bucket can rescue it.
    pub(crate) fn cross(
        &mut self,
        decider: &Decider,
        i: usize,
        to: u64,
        epoch: u64,
    ) -> Result<(), FleetError> {
        let decision = if self.is_guardband(i) {
            None
        } else {
            Some(decider.decide_bucket(to)?)
        };
        self.commit_crossing(i, to, decision, epoch);
        Ok(())
    }

    /// Journals chip `i`'s crossing into bucket `to`, then applies
    /// `decision`, the decision for `to`; `None` (a guardbanded chip)
    /// only moves the chip to `to`.
    fn commit_crossing(&mut self, i: usize, to: u64, decision: Option<Decision>, epoch: u64) {
        self.push_event(JournalEvent {
            epoch,
            chip: self.id[i],
            kind: EventKind::BucketCrossed {
                from: self.bucket[i],
                to,
            },
        });
        match decision {
            Some(decision) => self.apply_decision(i, decision, epoch),
            None => self.bucket[i] = to,
        }
    }

    /// Serves chip `i` the decision for `bucket` and applies it.
    pub(crate) fn replan(
        &mut self,
        decider: &Decider,
        i: usize,
        bucket: u64,
        epoch: u64,
    ) -> Result<(), FleetError> {
        let decision = decider.decide_bucket(bucket)?;
        self.apply_decision(i, decision, epoch);
        Ok(())
    }

    /// Moves chip `i` to `decision`'s bucket and applies the decision,
    /// journaling the new plan or the degradation to the guardbanded
    /// clock.
    fn apply_decision(&mut self, i: usize, decision: Decision, epoch: u64) {
        let bucket = decision.bucket();
        self.bucket[i] = bucket;
        let kind = match decision {
            Decision::Plan(plan) => {
                self.mode[i] = ChipMode::Compressed;
                self.plan[i] = Some(plan);
                self.beta[i] = plan_beta(Some(&plan));
                EventKind::Replanned {
                    bucket,
                    alpha: plan.plan.compression.alpha(),
                    beta: plan.plan.compression.beta(),
                    padding: plan.plan.padding,
                    method: plan.method,
                }
            }
            Decision::Degrade { .. } => {
                self.mode[i] = ChipMode::Guardband;
                self.plan[i] = None;
                self.beta[i] = plan_beta(None);
                EventKind::Degraded { bucket }
            }
        };
        self.push_event(JournalEvent {
            epoch,
            chip: self.id[i],
            kind,
        });
    }

    /// Settles one granted telemetry sample without touching the shard:
    /// reacts to anything the sample's [`Probe`] revealed (bucket
    /// crossing, memory action), folds the observation into a copy of
    /// the pilot state, and takes the new regime's proactive posture —
    /// Watch prefetches the next bucket's decision, Intervene pushes the
    /// projected bucket's plan *before* the boundary is reached.
    ///
    /// `lookup` answers each decision the grant needs, in that order.
    /// An answer of `Ok(None)` (a key `lookup` has not decided) settles
    /// the whole grant to `None`, undecided, without asking further.
    pub(crate) fn settle<E>(
        &self,
        at: &SampleEpoch,
        probe: &Probe,
        mut lookup: impl FnMut(u64) -> Result<Option<Decision>, E>,
    ) -> Result<Option<Settled>, E> {
        let SampleEpoch {
            autopilot,
            epoch,
            bucket_mv,
            ..
        } = *at;
        let Probe {
            grant,
            mv,
            true_bucket,
            memory: (memory, mem_pressure),
        } = *probe;
        let i = grant.index;
        let mut plan_hits = 0;
        let mut decide = |bucket| {
            let decision = lookup(bucket)?;
            plan_hits += u64::from(matches!(decision, Some(Decision::Plan(_))));
            Ok(decision)
        };
        let (mut bucket, mut guardband) = (self.bucket[i], self.is_guardband(i));
        // A revealed crossing is handled exactly as the always-on
        // path handles one.
        let crossing = if true_bucket > bucket {
            let decision = if guardband {
                None
            } else {
                let Some(decision) = decide(true_bucket)? else {
                    return Ok(None);
                };
                guardband = matches!(decision, Decision::Degrade { .. });
                Some(decision)
            };
            bucket = true_bucket;
            Some((true_bucket, decision))
        } else {
            None
        };
        // Headroom to the *planned* bucket's upper edge. A guardbanded
        // chip has nothing left to protect on the timing axis, so its
        // boundary is reported infinitely far; memory pressure alone
        // can still escalate it.
        #[allow(clippy::cast_precision_loss)]
        let margin_mv = if guardband {
            f64::INFINITY
        } else {
            ((bucket.saturating_add(1)) as f64 * bucket_mv - mv).max(0.0)
        };
        let mut pilot = self.pilot[i].expect("sampled chip has a pilot");
        let transition = autopilot.observe(
            &mut pilot,
            &Observation {
                epoch,
                mv,
                margin_mv,
                residual_mv: None,
                mem_pressure,
            },
        );
        // The same effective rate `observe` stepped the machine on —
        // journaled so AP002 can replay the pure transition.
        let rate_mv_per_epoch = autopilot.effective_rate(&pilot, mem_pressure);
        let push = match pilot.regime {
            Regime::Watch if !guardband => {
                // Prefetch the next bucket's plan: the decision is
                // discarded, but deciding it ahead of the crossing
                // makes the eventual crossing a memo hit.
                if decide(bucket.saturating_add(1))?.is_none() {
                    return Ok(None);
                }
                None
            }
            Regime::Intervene if !guardband => {
                // Proactive plan push: project ΔVth over the Intervene
                // horizon (or to the next sample, whichever is
                // farther); if the chip will have crossed by then,
                // serve the projected bucket's plan *now* so the chip
                // never runs on a stale plan across the boundary and
                // needs no epoch-by-epoch escort through it. The push
                // is capped one bucket ahead of the ground truth —
                // pre-positioning the next plan, not extrapolating an
                // EWMA arbitrarily far. An infeasible projection
                // degrades the chip before the threshold, not after.
                let lookahead = pilot
                    .next_epoch
                    .saturating_sub(epoch)
                    .max(u64::from(autopilot.intervene_horizon_epochs));
                #[allow(clippy::cast_precision_loss)]
                let projected_mv = mv + rate_mv_per_epoch * lookahead as f64;
                let projected = Chip::bucket_of(VthShift::from_millivolts(projected_mv), bucket_mv)
                    .min(true_bucket.saturating_add(1));
                if projected > bucket {
                    let Some(decision) = decide(projected)? else {
                        return Ok(None);
                    };
                    Some(decision)
                } else {
                    None
                }
            }
            _ => None,
        };
        Ok(Some(Settled {
            grant,
            crossing,
            memory,
            pilot,
            transition,
            rate_mv_per_epoch,
            margin_mv,
            push,
            plan_hits,
        }))
    }

    /// Applies a settled grant to its chip, journaling in the order the
    /// grant acts: the crossing with its replan or degradation, the
    /// memory action, the cadence grant, the regime change, and last
    /// the Intervene push.
    pub(crate) fn commit(&mut self, settled: Settled, epoch: u64) {
        let i = settled.grant.index;
        if let Some((to, decision)) = settled.crossing {
            self.commit_crossing(i, to, decision, epoch);
        }
        if let Some(action) = settled.memory {
            self.apply_memory_action(epoch, i, action);
        }
        self.pilot[i] = Some(settled.pilot);
        // The journaled regime is the priority class the grant was
        // issued under — an overrun-escalated Calm chip's message
        // rode the Intervene overdraft, and the ledger audit (AP002)
        // holds token-funded grants, not overdraft grants, to the
        // per-epoch budget.
        let chip = self.id[i];
        self.push_event(JournalEvent {
            epoch,
            chip,
            kind: EventKind::CadenceGranted {
                regime: settled.grant.class,
                next_epoch: settled.pilot.next_epoch,
                tokens_left: settled.grant.tokens_left,
            },
        });
        if let Some((from, to)) = settled.transition {
            self.push_event(JournalEvent {
                epoch,
                chip,
                kind: EventKind::RegimeChanged {
                    from,
                    to,
                    rate_mv_per_epoch: settled.rate_mv_per_epoch,
                    margin_mv: settled.margin_mv,
                },
            });
        }
        if let Some(decision) = settled.push {
            self.apply_decision(i, decision, epoch);
        }
    }

    /// Probes each of `grants`, in order, and commits every one that
    /// settles against `decided` (see [`FleetShard::commit_decided`]).
    /// Returns the probes of the undecided ones, in order, and the plan
    /// hits the committed grants read.
    pub(crate) fn sample_granted(
        &mut self,
        at: &SampleEpoch,
        grants: &[Granted],
        decided: &[Option<Decision>],
    ) -> (Vec<Probe>, u64) {
        let (mut undecided, mut plan_hits) = (Vec::new(), 0);
        for &grant in grants {
            let probe = self.probe(grant, at);
            match self.commit_if_decided(at, &probe, decided) {
                Some(hits) => plan_hits += hits,
                None => undecided.push(probe),
            }
        }
        (undecided, plan_hits)
    }

    /// Settles each of `probes` against `decided`, the decider's
    /// bucket-indexed view ([`Decider::decided_buckets`]), commits in
    /// order every grant that settles, and keeps the undecided ones, in
    /// order. Returns the plan hits the committed grants read.
    pub(crate) fn commit_decided(
        &mut self,
        at: &SampleEpoch,
        probes: &mut Vec<Probe>,
        decided: &[Option<Decision>],
    ) -> u64 {
        let mut plan_hits = 0;
        probes.retain(|probe| match self.commit_if_decided(at, probe, decided) {
            Some(hits) => {
                plan_hits += hits;
                false
            }
            None => true,
        });
        plan_hits
    }

    /// Commits `probe`'s grant if it settles against `decided`, and
    /// returns the plan hits it read; `None` leaves the shard untouched.
    fn commit_if_decided(
        &mut self,
        at: &SampleEpoch,
        probe: &Probe,
        decided: &[Option<Decision>],
    ) -> Option<u64> {
        let lookup = |bucket: u64| {
            let at = usize::try_from(bucket).ok();
            Ok::<_, Infallible>(at.and_then(|at| decided.get(at).copied().flatten()))
        };
        let Ok(settled) = self.settle(at, probe, lookup);
        let settled = settled?;
        let plan_hits = settled.plan_hits;
        self.commit(settled, at.epoch);
        Some(plan_hits)
    }
}

#[cfg(test)]
mod tests {
    use agequant_aging::{DegradationModel, TechProfile};

    use super::*;
    use crate::FleetConfig;

    /// The hot-kinetics fast paths must be bit-identical to evaluating
    /// the model spec directly — that is the whole equivalence
    /// contract of the SoA layout.
    #[test]
    fn hot_kinetics_match_the_spec_bit_for_bit() {
        let mut rng = FleetRng::seed_from_u64(404);
        let specs = [
            ModelSpec::default(),
            ModelSpec::hci(TechProfile::INTEL14NM, 0.7),
            ModelSpec::surrogate_demo(),
        ];
        for spec in &specs {
            // Exercise perturbed profiles too, the fleet's actual use.
            for _ in 0..32 {
                let chip = Chip::sample(0, spec, &mut rng);
                let hot = HotKinetics::of(&chip.model);
                for t in [0.0, 0.1, 0.5, 1.7, 4.0, 9.99, 25.0] {
                    assert_eq!(
                        hot.shift_at(&chip.model, t).volts().to_bits(),
                        chip.model.shift_at(t).volts().to_bits(),
                        "{} diverges at t = {t}",
                        chip.model.model_key()
                    );
                }
            }
        }
    }

    #[test]
    fn materialized_chips_round_trip_through_the_soa_layout() {
        let model = ModelSpec::default();
        let mut rng = FleetRng::seed_from_u64(77);
        let chips: Vec<Chip> = (10..26)
            .map(|id| Chip::sample(id, &model, &mut rng))
            .collect();
        let shard = FleetShard::from_chips(chips.clone().into_iter());
        assert_eq!(shard.len(), chips.len());
        for (i, chip) in chips.iter().enumerate() {
            assert_eq!(&shard.chip(i), chip);
        }
    }

    #[test]
    fn crossings_report_exactly_the_chips_that_aged_a_bucket() {
        let model = ModelSpec::default();
        let mut rng = FleetRng::seed_from_u64(5);
        let chips: Vec<Chip> = (0..64)
            .map(|id| Chip::sample(id, &model, &mut rng))
            .collect();
        let shard = FleetShard::from_chips(chips.clone().into_iter());
        let (years, bucket_mv) = (5.0, 10.0);
        let crossed = shard.crossings(years, bucket_mv);
        assert!(!crossed.is_empty(), "5 years ages someone past 10 mV");
        let expected: Vec<(usize, u64)> = chips
            .iter()
            .enumerate()
            .filter_map(|(i, chip)| {
                let b = Chip::bucket_of(chip.shift_at(years), bucket_mv);
                (b > chip.bucket).then_some((i, b))
            })
            .collect();
        assert_eq!(crossed, expected);
    }

    const BUCKET_MV: f64 = 10.0;
    const EPOCH: u64 = 10;

    /// A one-chip shard at bucket 0, enrolled with `pilot`.
    fn pilot_shard(pilot: PilotState) -> FleetShard {
        let mut rng = FleetRng::seed_from_u64(9);
        let chip = Chip::sample(0, &ModelSpec::default(), &mut rng);
        let mut shard = FleetShard::from_chips(std::iter::once(chip));
        shard.pilot[0] = Some(pilot);
        shard
    }

    /// A Calm pilot last sampled the epoch before at `last_mv`, with
    /// EWMA rate `rate_mv_per_epoch`.
    fn pilot(last_mv: f64, rate_mv_per_epoch: f64) -> PilotState {
        PilotState {
            last_mv,
            rate_mv_per_epoch,
            last_epoch: EPOCH - 1,
            next_epoch: EPOCH,
            ..PilotState::FRESH
        }
    }

    /// A granted sample of the shard's one chip, reading `mv`.
    fn probe_at(mv: f64) -> Probe {
        Probe {
            grant: Granted {
                rank: 0,
                index: 0,
                class: Regime::Calm,
                tokens_left: 7,
            },
            mv,
            true_bucket: Chip::bucket_of(VthShift::from_millivolts(mv), BUCKET_MV),
            memory: (None, 0.0),
        }
    }

    /// Epoch `EPOCH` of a fleet without the memory axis.
    fn sample_epoch(autopilot: &AutopilotConfig) -> SampleEpoch<'_> {
        SampleEpoch {
            autopilot,
            epoch: EPOCH,
            years: 1.0,
            bucket_mv: BUCKET_MV,
            memory: None,
        }
    }

    fn kinds(shard: &FleetShard) -> Vec<EventKind> {
        shard.journal().iter().map(|event| event.kind).collect()
    }

    /// A grant whose key the view has not decided settles to nothing
    /// and leaves the chip's columns, its pilot and the journal as
    /// they were.
    #[test]
    fn an_undecided_grant_settles_to_nothing_and_touches_nothing() {
        let autopilot = AutopilotConfig::demo();
        let decider = Decider::from_config(&FleetConfig::new(1, 7)).expect("valid config");
        let mut shard = pilot_shard(pilot(20.0, 0.1));
        shard.replan(&decider, 0, 0, 0).expect("decides");
        let (chip, journal_len) = (shard.chip(0), shard.journal().len());
        // The sample reveals a crossing into bucket 2, which only the
        // live decider could decide.
        let mut probes = vec![probe_at(21.0)];
        let decided = decider.decided_buckets();
        let hits = shard.commit_decided(&sample_epoch(&autopilot), &mut probes, &decided);
        assert_eq!((hits, probes.len()), (0, 1), "kept for the live decider");
        assert_eq!(shard.chip(0), chip);
        assert_eq!(shard.journal().len(), journal_len);
        assert_eq!(
            decider.buckets_planned(),
            vec![0],
            "the view decides nothing"
        );
    }

    /// Once the grant's keys are decided, settling against the
    /// decider's view and committing equals settling through the live
    /// decider — the same columns, journal and plan hits — for a
    /// crossing, a degrade, a Watch prefetch and an Intervene push.
    #[test]
    fn settling_against_the_view_equals_the_live_decider() {
        let autopilot = AutopilotConfig::demo();
        let tight = FleetConfig {
            constraint_factor: 0.3, // infeasible from bucket 0
            ..FleetConfig::new(1, 7)
        };
        let at = sample_epoch(&autopilot);
        let live = |shard: &mut FleetShard, decider: &Decider, probe: &Probe| {
            let settled = shard
                .settle(&at, probe, |bucket| decider.decide_bucket(bucket).map(Some))
                .expect("decides")
                .expect("the live decider decides every key");
            shard.commit(settled, EPOCH);
        };
        let cases = [
            // 1 mV in one epoch with 9 mV left: stays Calm.
            ("crossing", FleetConfig::new(1, 7), pilot(20.0, 0.1), 21.0),
            ("degrade", tight, pilot(20.0, 0.1), 21.0),
            // 5 mV left at 0.75 mV/epoch: inside the Watch horizon.
            ("watch", FleetConfig::new(1, 7), pilot(4.0, 0.5), 5.0),
            // 2 mV left at 1.5 mV/epoch: Intervene, projected past 10.
            ("intervene", FleetConfig::new(1, 7), pilot(6.0, 1.0), 8.0),
        ];
        for (name, config, pilot, mv) in cases {
            let decider = Decider::from_config(&config).expect("valid config");
            let shard = pilot_shard(pilot);
            let probe = probe_at(mv);
            // First touches: the live decider decides the grant's keys.
            let mut first = shard.clone();
            live(&mut first, &decider, &probe);
            let engine = decider.flow().engine();
            let before = engine.stats().plan_hits;
            let mut repeat = shard.clone();
            live(&mut repeat, &decider, &probe);
            let live_hits = engine.stats().plan_hits - before;

            let mut viewed = shard.clone();
            let mut probes = vec![probe];
            let decided = decider.decided_buckets();
            let hits = viewed.commit_decided(&at, &mut probes, &decided);
            assert!(probes.is_empty(), "{name}: settled against the view");
            assert_eq!(hits, live_hits, "{name}: plan hits");
            for other in [&first, &repeat] {
                assert_eq!(viewed.chip(0), other.chip(0), "{name}: columns");
                assert_eq!(viewed.journal(), other.journal(), "{name}: journal");
            }

            let events = kinds(&viewed);
            let regime = viewed.chip(0).pilot.expect("enrolled").regime;
            match name {
                "crossing" => {
                    assert!(matches!(
                        events[..2],
                        [
                            EventKind::BucketCrossed { from: 0, to: 2 },
                            EventKind::Replanned { bucket: 2, .. }
                        ]
                    ));
                    assert_eq!(regime, Regime::Calm);
                }
                "degrade" => {
                    assert!(matches!(
                        events[..2],
                        [
                            EventKind::BucketCrossed { from: 0, to: 2 },
                            EventKind::Degraded { bucket: 2 }
                        ]
                    ));
                    assert!(viewed.is_guardband(0));
                }
                "watch" => {
                    assert_eq!(regime, Regime::Watch);
                    assert_eq!(decider.buckets_planned(), vec![1], "the prefetched key");
                    assert_eq!(hits, 1, "the prefetch reads one plan");
                }
                _ => {
                    assert_eq!(regime, Regime::Intervene);
                    assert!(matches!(
                        events.last(),
                        Some(EventKind::Replanned { bucket: 1, .. })
                    ));
                }
            }
        }
    }
}
