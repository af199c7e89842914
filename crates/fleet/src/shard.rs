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
//! chip — while decisions stay strictly serialized in shard order by
//! the simulator, which keeps the engine's cache counters and the
//! decider's memo order identical to an unsharded run.
//!
//! Every per-chip rule has one home here: a bucket crossing
//! ([`FleetShard::cross`]), a replan ([`FleetShard::replan`]), the
//! memory verdict, and a granted telemetry sample
//! ([`FleetShard::apply_grant`]).
//!
//! `kinetics` additionally pre-resolves each chip's [`ModelSpec`] into
//! a [`HotKinetics`] value: the NBTI power-law calibration and the HCI
//! closed form are computed once per chip instead of once per
//! chip-epoch, bit-identically to evaluating the spec directly (the
//! surrogate table keeps delegating to the spec).

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

/// What a granted telemetry sample reads from the chip's own columns.
/// Probes are pure, so the simulator computes them per shard in
/// parallel and applies them serially.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Probe {
    /// The chip's index in its shard.
    index: usize,
    /// Ground-truth ΔVth, mV.
    mv: f64,
    /// The bucket `mv` truly sits in.
    true_bucket: u64,
    /// The chip's memory verdict: the action the sample orders, if
    /// any, and the memory pressure in `[0, 1]` left after it.
    memory: (Option<MemoryAction>, f64),
}

/// A contiguous id range of the fleet in struct-of-arrays layout:
/// hot physics fields in their own arrays, cold identity fields in
/// side tables, plus the shard's journal segment.
#[derive(Debug)]
pub(crate) struct FleetShard {
    // Hot: scanned every epoch by the physics pass.
    accel: Vec<f64>,
    kinetics: Vec<HotKinetics>,
    bucket: Vec<u64>,
    mode: Vec<ChipMode>,
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
        for i in 0..self.len() {
            let Some(state) = self.mem[i].as_mut() else {
                continue;
            };
            let beta = self.plan[i].map_or(0, |p| p.plan.compression.beta());
            let asymmetry = config.asymmetry_for_beta(beta);
            state.stress_active_years +=
                config.cell.stress_duty(asymmetry) * self.accel[i] * epoch_years;
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

    /// Every enrolled chip due for a sample at `epoch`, in index order,
    /// with the priority class it requests under. A chip whose own
    /// last-known rate projects it past its recorded bucket's edge has
    /// likely already crossed while waiting, and a chip that has never
    /// taken a real reading (ΔVth is strictly positive once any time
    /// has passed) cannot be rationed on knowledge it does not have.
    /// Both request at Intervene priority regardless of their resting
    /// regime, so sustained budget pressure can delay quiet chips but
    /// never park a chip on a stale plan across a boundary, and every
    /// enrolled chip gets its baseline read.
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
        due
    }

    /// Reads what a granted sample of chip `i` at `years` reveals (see
    /// [`Probe`]): its ground truth and, when the fleet tracks memory,
    /// its memory verdict under the config and its once-calibrated
    /// cell.
    pub(crate) fn probe(
        &self,
        i: usize,
        years: f64,
        bucket_mv: f64,
        memory: Option<(&MemoryConfig, &CalibratedCell)>,
    ) -> Probe {
        let (mv, true_bucket) = self.observe(i, years, bucket_mv);
        Probe {
            index: i,
            mv,
            true_bucket,
            memory: memory.map_or((None, 0.0), |(config, cell)| {
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
        self.push_event(JournalEvent {
            epoch,
            chip: self.id[i],
            kind: EventKind::BucketCrossed {
                from: self.bucket[i],
                to,
            },
        });
        if self.is_guardband(i) {
            self.bucket[i] = to;
            return Ok(());
        }
        self.replan(decider, i, to, epoch)
    }

    /// Serves chip `i` the decision for `bucket` and applies it,
    /// journaling the new plan or the degradation to the guardbanded
    /// clock.
    pub(crate) fn replan(
        &mut self,
        decider: &Decider,
        i: usize,
        bucket: u64,
        epoch: u64,
    ) -> Result<(), FleetError> {
        let decision = decider.decide_bucket(bucket)?;
        self.bucket[i] = bucket;
        let kind = match decision {
            Decision::Plan(plan) => {
                self.mode[i] = ChipMode::Compressed;
                self.plan[i] = Some(plan);
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
                EventKind::Degraded { bucket }
            }
        };
        self.push_event(JournalEvent {
            epoch,
            chip: self.id[i],
            kind,
        });
        Ok(())
    }

    /// Applies one granted telemetry sample: reacts to anything the
    /// sample's [`Probe`] revealed (bucket crossing, memory action),
    /// folds the observation into the pilot state, and takes the new
    /// regime's proactive posture — Watch prefetches the next bucket's
    /// plan into the engine cache, Intervene pushes the projected
    /// bucket's plan *before* the boundary is reached.
    pub(crate) fn apply_grant(
        &mut self,
        decider: &Decider,
        autopilot: &AutopilotConfig,
        probe: Probe,
        epoch: u64,
        tokens_left: u64,
        class: Regime,
    ) -> Result<(), FleetError> {
        let Probe {
            index: i,
            mv,
            true_bucket,
            memory: (memory, mem_pressure),
        } = probe;
        let bucket_mv = decider.config().bucket_mv;
        // A revealed crossing is handled exactly as the always-on
        // path handles one.
        if true_bucket > self.bucket[i] {
            self.cross(decider, i, true_bucket, epoch)?;
        }
        if let Some(action) = memory {
            self.apply_memory_action(epoch, i, action);
        }
        // Headroom to the *planned* bucket's upper edge. A guardbanded
        // chip has nothing left to protect on the timing axis, so its
        // boundary is reported infinitely far; memory pressure alone
        // can still escalate it.
        #[allow(clippy::cast_precision_loss)]
        let margin_mv = if self.is_guardband(i) {
            f64::INFINITY
        } else {
            ((self.bucket[i].saturating_add(1)) as f64 * bucket_mv - mv).max(0.0)
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
        self.pilot[i] = Some(pilot);
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
                regime: class,
                next_epoch: pilot.next_epoch,
                tokens_left,
            },
        });
        // The same effective rate `observe` stepped the machine on —
        // journaled so AP002 can replay the pure transition.
        let rate = autopilot.effective_rate(&pilot, mem_pressure);
        if let Some((from, to)) = transition {
            self.push_event(JournalEvent {
                epoch,
                chip,
                kind: EventKind::RegimeChanged {
                    from,
                    to,
                    rate_mv_per_epoch: rate,
                    margin_mv,
                },
            });
        }
        match pilot.regime {
            Regime::Watch if !self.is_guardband(i) => {
                // Prefetch the next bucket's plan: the decision is
                // discarded, but the characterization warms the engine
                // cache so the eventual crossing is a cache hit.
                decider.decide_bucket(self.bucket[i].saturating_add(1))?;
            }
            Regime::Intervene if !self.is_guardband(i) => {
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
                let projected_mv = mv + rate * lookahead as f64;
                let projected = Chip::bucket_of(VthShift::from_millivolts(projected_mv), bucket_mv)
                    .min(true_bucket.saturating_add(1));
                if projected > self.bucket[i] {
                    self.replan(decider, i, projected, epoch)?;
                }
            }
            _ => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use agequant_aging::{DegradationModel, TechProfile};

    use super::*;

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
}
