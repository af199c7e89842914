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
//! Each shard owns a contiguous id range, its own [`FleetRng`]
//! substream (positioned by replaying the sampling draw counts of the
//! chips before it, so the sampled fleet is bit-identical to the
//! single-stream construction), and its own journal segment. Shards
//! age independently — the physics pass is pure per chip — while
//! decisions stay strictly serialized in shard order by the
//! simulator, which keeps the engine's cache counters and the
//! decider's memo order identical to an unsharded run.
//!
//! `kinetics` additionally pre-resolves each chip's [`ModelSpec`] into
//! a [`HotKinetics`] value: the NBTI power-law calibration and the HCI
//! closed form are computed once per chip instead of once per
//! chip-epoch, bit-identically to evaluating the spec directly (the
//! surrogate table keeps delegating to the spec).

use agequant_aging::{MissionProfile, ModelSpec, NbtiModel, VthShift};
use agequant_autopilot::{PilotState, Regime};
use agequant_mem::MemoryConfig;

use crate::chip::{Chip, ChipMemState, ChipMode, ChipPlan, MissionKind};
use crate::decide::{memory_action_at, Decider, Decision, MemoryAction};
use crate::journal::{EventKind, JournalEvent};
use crate::rng::FleetRng;

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

/// What a granted telemetry sample reads from the chip's own columns:
/// the ground-truth ΔVth and its bucket, and the memory axis's action
/// with the memory pressure left after it. Probes are pure, so the
/// simulator computes them per shard in parallel and applies them
/// serially.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Probe {
    /// The chip's index in its shard.
    pub(crate) index: usize,
    /// Ground-truth ΔVth, mV.
    pub(crate) mv: f64,
    /// The bucket `mv` truly sits in.
    pub(crate) true_bucket: u64,
    /// The memory action the sample orders, if any.
    pub(crate) memory: Option<MemoryAction>,
    /// Memory pressure after that action, in `[0, 1]`.
    pub(crate) mem_pressure: f64,
}

/// A contiguous id range of the fleet in struct-of-arrays layout:
/// hot physics fields in their own arrays, cold identity fields in
/// side tables, plus the shard's RNG substream and journal segment.
#[derive(Debug)]
pub(crate) struct FleetShard {
    rng: FleetRng,
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
    fn with_capacity(capacity: usize, rng: FleetRng) -> Self {
        FleetShard {
            rng,
            accel: Vec::with_capacity(capacity),
            kinetics: Vec::with_capacity(capacity),
            bucket: Vec::with_capacity(capacity),
            mode: Vec::with_capacity(capacity),
            id: Vec::with_capacity(capacity),
            kind: Vec::with_capacity(capacity),
            model: Vec::with_capacity(capacity),
            profile: Vec::with_capacity(capacity),
            plan: Vec::with_capacity(capacity),
            mem: Vec::with_capacity(capacity),
            pilot: Vec::with_capacity(capacity),
            journal: Vec::new(),
        }
    }

    fn push(&mut self, chip: Chip) {
        self.accel.push(chip.profile.acceleration());
        self.kinetics.push(HotKinetics::of(&chip.model));
        self.bucket.push(chip.bucket);
        self.mode.push(chip.mode);
        self.id.push(chip.id);
        self.kind.push(chip.kind);
        self.model.push(chip.model);
        self.profile.push(chip.profile);
        self.plan.push(chip.plan);
        self.mem.push(chip.mem);
        self.pilot.push(chip.pilot);
    }

    /// Samples `count` fresh chips with ids `base..base + count` from
    /// `rng` (the shard's substream, pre-positioned by the caller).
    pub(crate) fn sample(
        base: u32,
        count: u32,
        config_model: &ModelSpec,
        mut rng: FleetRng,
    ) -> Self {
        let mut shard = FleetShard::with_capacity(count as usize, rng.clone());
        for offset in 0..count {
            let chip = Chip::sample(base + offset, config_model, &mut rng);
            shard.push(chip);
        }
        shard.rng = rng;
        shard
    }

    /// Rebuilds a shard from checkpointed chips (preserved verbatim,
    /// ids included) and its recomputed RNG substream.
    pub(crate) fn from_chips(chips: Vec<Chip>, rng: FleetRng) -> Self {
        let mut shard = FleetShard::with_capacity(chips.len(), rng);
        for chip in chips {
            shard.push(chip);
        }
        shard
    }

    /// Number of chips in the shard.
    pub(crate) fn len(&self) -> usize {
        self.bucket.len()
    }

    /// The shard's RNG substream, positioned after its sampling draws.
    pub(crate) fn substream(&self) -> &FleetRng {
        &self.rng
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
    pub(crate) fn pilot(&self, i: usize) -> Option<PilotState> {
        self.pilot[i]
    }

    /// Stores chip `i`'s updated pilot state.
    pub(crate) fn set_pilot(&mut self, i: usize, pilot: PilotState) {
        self.pilot[i] = Some(pilot);
    }

    /// Chip `i`'s fleet-unique id.
    pub(crate) fn chip_id(&self, i: usize) -> u32 {
        self.id[i]
    }

    /// Chip `i`'s current (planned) aging bucket.
    pub(crate) fn bucket(&self, i: usize) -> u64 {
        self.bucket[i]
    }

    /// One ground-truth observation of chip `i` at `years` of
    /// deployment — what a telemetry sample of the chip would report:
    /// its ΔVth in mV and the aging bucket that shift truly sits in
    /// (computed from the un-rounded shift, exactly as
    /// [`FleetShard::crossings`] computes it).
    pub(crate) fn observe(&self, i: usize, years: f64, bucket_mv: f64) -> (f64, u64) {
        let t = self.accel[i] * years;
        let shift = self.kinetics[i].shift_at(&self.model[i], t);
        (shift.millivolts(), Chip::bucket_of(shift, bucket_mv))
    }

    /// Appends one event to the shard's journal segment.
    pub(crate) fn push_event(&mut self, event: JournalEvent) {
        self.journal.push(event);
    }

    /// One epoch of weight-memory aging for every chip: accrues SRAM
    /// stress exposure on the currently stressed polarity (shaped by
    /// the active plan's weight truncation β and the chip's mission
    /// acceleration), then applies the decider's memory action —
    /// journaling re-encodes and memory degradations.
    pub(crate) fn step_memory(
        &mut self,
        decider: &Decider,
        config: &MemoryConfig,
        epoch: u64,
        epoch_years: f64,
    ) {
        self.accrue_memory(config, epoch_years);
        for i in 0..self.len() {
            if let Some(action) = self.mem[i].and_then(|state| decider.memory_action(&state)) {
                self.apply_memory_action(epoch, i, action);
            }
        }
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
    pub(crate) fn apply_memory_action(&mut self, epoch: u64, i: usize, action: MemoryAction) {
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
    /// [`Probe`]). The worst-bit failure probability is evaluated once
    /// and serves both the memory action and the pressure; a chip whose
    /// memory degrades on this sample, or already had, reports zero
    /// pressure — a failed axis has nothing left to protect, so it must
    /// not pin the chip in Intervene forever.
    pub(crate) fn probe(
        &self,
        i: usize,
        years: f64,
        bucket_mv: f64,
        memory: Option<&MemoryConfig>,
    ) -> Probe {
        let (mv, true_bucket) = self.observe(i, years, bucket_mv);
        let (action, mem_pressure) = match (memory, &self.mem[i]) {
            (Some(config), Some(state)) if !state.degraded => {
                let prob = config
                    .cell
                    .failure_prob_at_exposure(state.worst_stress_years());
                let action = memory_action_at(config, state, prob);
                let pressure = if action == Some(MemoryAction::Degrade) {
                    0.0
                } else {
                    (prob / config.degrade_threshold).clamp(0.0, 1.0)
                };
                (action, pressure)
            }
            _ => (None, 0.0),
        };
        Probe {
            index: i,
            mv,
            true_bucket,
            memory: action,
            mem_pressure,
        }
    }

    /// Slips each deferred chip's sample to the next epoch and journals
    /// the deferral, so starvation is auditable, never silent.
    pub(crate) fn defer_samples(&mut self, deferred: &[(usize, Regime)], epoch: u64) {
        for &(i, regime) in deferred {
            let mut pilot = self.pilot[i].expect("due chip has a pilot");
            pilot.next_epoch = epoch + 1;
            self.pilot[i] = Some(pilot);
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
        let mut out = Vec::new();
        for i in 0..self.len() {
            let t = self.accel[i] * years;
            let shift = self.kinetics[i].shift_at(&self.model[i], t);
            let new_bucket = Chip::bucket_of(shift, bucket_mv);
            if new_bucket > self.bucket[i] {
                out.push((i, new_bucket));
            }
        }
        out
    }

    pub(crate) fn is_guardband(&self, i: usize) -> bool {
        self.mode[i] == ChipMode::Guardband
    }

    pub(crate) fn set_bucket(&mut self, i: usize, bucket: u64) {
        self.bucket[i] = bucket;
    }

    /// Journals chip `i` crossing from its current bucket to `to`.
    pub(crate) fn record_crossing(&mut self, i: usize, to: u64, epoch: u64) {
        self.push_event(JournalEvent {
            epoch,
            chip: self.id[i],
            kind: EventKind::BucketCrossed {
                from: self.bucket[i],
                to,
            },
        });
    }

    /// Applies a served decision to chip `i` at `bucket`, journaling
    /// the outcome — the SoA equivalent of the fat-struct
    /// `apply_decision`.
    pub(crate) fn apply_decision(
        &mut self,
        i: usize,
        bucket: u64,
        epoch: u64,
        decision: &Decision,
    ) {
        self.bucket[i] = bucket;
        match decision {
            Decision::Plan(plan) => {
                self.push_event(JournalEvent {
                    epoch,
                    chip: self.id[i],
                    kind: EventKind::Replanned {
                        bucket,
                        alpha: plan.plan.compression.alpha(),
                        beta: plan.plan.compression.beta(),
                        padding: plan.plan.padding,
                        method: plan.method,
                    },
                });
                self.mode[i] = ChipMode::Compressed;
                self.plan[i] = Some(*plan);
            }
            Decision::Degrade { .. } => {
                self.push_event(JournalEvent {
                    epoch,
                    chip: self.id[i],
                    kind: EventKind::Degraded { bucket },
                });
                self.mode[i] = ChipMode::Guardband;
                self.plan[i] = None;
            }
        }
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
        let shard = FleetShard::from_chips(chips.clone(), rng);
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
        let shard = FleetShard::from_chips(chips.clone(), rng);
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
