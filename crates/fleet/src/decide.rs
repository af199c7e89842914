//! The shared compression-decision core.
//!
//! [`Decider`] is the single implementation of the paper's online
//! decision rule — quantize a chip's ΔVth into an aging bucket, serve
//! the bucket's cached `(α, β, padding, method)` plan, degrade to the
//! guardbanded clock when no compression closes timing — factored out
//! of [`FleetSim`] so the simulator and the `agequant-serve` network
//! server answer from literally the same code and cannot drift.
//!
//! The decider is `Send + Sync`: the underlying [`EvalEngine`] caches
//! are concurrent, and the decider's memos sit behind one mutex so
//! racing server workers agree on every outcome. One memo maps
//! `(bucket, constraint bits)` to the whole [`Decision`], so a repeated
//! key costs one memo lock and one lookup; a feasible repeat counts the
//! plan hit its skipped engine round trip would have counted
//! ([`EvalEngine::count_plan_hits`]). A new key asks the engine, which
//! shares one grid scan across every constraint at a ΔVth, then method
//! selection, memoized per [`BitWidths`] on the flow's calibration
//! context for the decider's network: a new constraint on a known
//! level and bit-width pair is decided without running STA or
//! evaluating a network, and a new pair reruns only the clip searches
//! its weight or activation width has not seen.
//!
//! The closed-loop fleet reads repeats without the lock: before an
//! epoch's grants and after each first touch, [`Decider::decided_buckets`]
//! copies the default constraint's decisions into a bucket-indexed
//! view, the shards settle every grant whose keys the view holds in
//! parallel, and each shard counts the plan hits of the grants it
//! committed in one [`Decider::count_plan_hits`] call. Only a key the
//! view lacks — a first touch — reaches [`Decider::decide_bucket`], in
//! grant order.
//!
//! [`FleetSim`]: crate::FleetSim

use std::collections::HashMap;

use agequant_check::sync::{Arc, Mutex};

use agequant_aging::VthShift;
use agequant_core::{AgingAwareQuantizer, EvalEngine, FlowError};
use agequant_nn::Model;
use agequant_quant::{BitWidths, QuantMethod};
use agequant_sta::GuardbandModel;

use crate::chip::{Chip, ChipPlan};
use crate::sim::FleetConfig;
use crate::FleetError;

/// What the decision core concluded for one chip state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// A feasible compression plan (and, when method selection is
    /// enabled, the best quantization method with its accuracy loss).
    Plan(ChipPlan),
    /// No compression closes timing in this bucket: the chip falls
    /// back to the conventional guardbanded clock, permanently —
    /// infeasibility is monotone in ΔVth.
    Degrade {
        /// The bucket proven infeasible.
        bucket: u64,
    },
}

impl Decision {
    /// The aging bucket this decision was made for.
    #[must_use]
    pub fn bucket(&self) -> u64 {
        match self {
            Decision::Plan(plan) => plan.bucket,
            Decision::Degrade { bucket } => *bucket,
        }
    }

    /// The plan, when the decision is feasible.
    #[must_use]
    pub fn plan(&self) -> Option<&ChipPlan> {
        match self {
            Decision::Plan(plan) => Some(plan),
            Decision::Degrade { .. } => None,
        }
    }
}

/// Decider-side memoization: everything the decision rule remembers
/// beyond the engine's own caches, behind one mutex.
#[derive(Debug, Default)]
struct Memos {
    /// Every decision made, per `(bucket, constraint bits)`. The first
    /// one stored for a key is the one every later call returns.
    decisions: HashMap<(u64, u64), Decision>,
    /// Method selection per bit-width pair — the engine caches STA,
    /// not model evaluation, and selection reads nothing of a plan but
    /// its [`BitWidths`], so the memo is bounded by the grid's `(α, β)`
    /// pairs, not by the number of constraints asked.
    methods: HashMap<BitWidths, Option<(QuantMethod, f64)>>,
    /// The bucket of each new key of `decisions`, in the order they
    /// were stored (the observable [`Decider::buckets_planned`] view).
    planned_order: Vec<u64>,
    /// Lazily built evaluation network for method selection; the flow
    /// memoizes its calibration context across selections.
    model: Option<Model>,
}

/// The buckets [`Decider::decided_buckets`] covers, which bounds the
/// view's allocation whatever bucket a caller once asked for. At the
/// default 10 mV grid that is 40 V of ΔVth; a decision past it is left
/// out of the view, so a grant that needs one takes the serial path.
const VIEW_BUCKETS: usize = 1 << 12;

/// The compression-decision core shared by [`FleetSim`] and the
/// network server.
///
/// Construction derives the timing constraint and guardband fallback
/// clock from a [`FleetConfig`] exactly as the simulator always has;
/// [`Decider::decide_bucket`] then maps any aging bucket to a
/// [`Decision`].
///
/// [`FleetSim`]: crate::FleetSim
#[derive(Debug)]
pub struct Decider {
    flow: AgingAwareQuantizer,
    config: FleetConfig,
    constraint_ps: f64,
    guardband_period_ps: f64,
    memos: Mutex<Memos>,
}

// Server workers share one decider behind an `Arc`; pin the threading
// contract at the definition so a regression is a local compile error.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Decider>();
};

impl Decider {
    /// Builds the decision core for `config`: constructs the flow and
    /// derives the timing constraint and guardband fallback clock.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] / [`FleetError::Flow`] on
    /// bad configuration.
    pub fn from_config(config: &FleetConfig) -> Result<Self, FleetError> {
        let engine = Arc::new(EvalEngine::new(config.flow.process.clone()));
        Self::with_engine(config, engine)
    }

    /// Builds the decision core on a caller-supplied engine, so several
    /// deciders — one per degradation model, say — share one set of
    /// caches. Cache entries are keyed by model, so sharing is safe and
    /// the per-model counters stay separable.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] / [`FleetError::Flow`] on
    /// bad configuration.
    pub fn with_engine(config: &FleetConfig, engine: Arc<EvalEngine>) -> Result<Self, FleetError> {
        config.validate()?;
        let flow = AgingAwareQuantizer::with_engine(config.flow.clone(), engine)?;
        let constraint_ps = flow.fresh_critical_path_ps() * config.constraint_factor;
        let guardband_period_ps =
            GuardbandModel::for_scenario(flow.fresh_critical_path_ps(), &config.flow.scenario)
                .guardbanded_period_ps();
        Ok(Decider {
            flow,
            config: config.clone(),
            constraint_ps,
            guardband_period_ps,
            memos: Mutex::new(Memos::default()),
        })
    }

    /// The configuration this decider was built from.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The underlying aging-aware quantization flow.
    #[must_use]
    pub fn flow(&self) -> &AgingAwareQuantizer {
        &self.flow
    }

    /// The default timing constraint every plan is held to, ps.
    #[must_use]
    pub fn constraint_ps(&self) -> f64 {
        self.constraint_ps
    }

    /// The fallback clock period of a degraded chip, ps.
    #[must_use]
    pub fn guardband_period_ps(&self) -> f64 {
        self.guardband_period_ps
    }

    /// The quantized shift a bucket is planned at: its lower edge —
    /// the paper's discrete aging levels generalized to an arbitrary
    /// grid. Every chip in a bucket asks the engine for exactly this
    /// shift, which is what turns fleet-scale (and server-scale)
    /// replanning into a cache workload.
    #[must_use]
    pub fn bucket_shift(&self, bucket: u64) -> VthShift {
        #[allow(clippy::cast_precision_loss)]
        VthShift::from_millivolts(bucket as f64 * self.config.bucket_mv)
    }

    /// The aging bucket a raw ΔVth falls into, on this decider's grid.
    #[must_use]
    pub fn bucket_of(&self, shift: VthShift) -> u64 {
        Chip::bucket_of(shift, self.config.bucket_mv)
    }

    /// The decision for an aging bucket under the default constraint.
    ///
    /// # Errors
    ///
    /// Propagates non-degradable flow errors.
    pub fn decide_bucket(&self, bucket: u64) -> Result<Decision, FleetError> {
        self.decide_bucket_at(bucket, self.constraint_ps)
    }

    /// The decision for an aging bucket under an explicit timing
    /// constraint (the server's per-request `constraint_factor`).
    /// Decisions and the characterization record are keyed on
    /// `(bucket, constraint bits)`, so non-default constraints never
    /// contaminate the fleet's record; method selection is shared by
    /// every key whose plan has the same bit widths. When workers race
    /// a new key, the first decision stored wins; a call that fails
    /// stores and records nothing.
    ///
    /// # Errors
    ///
    /// Propagates non-degradable flow errors.
    ///
    /// # Panics
    ///
    /// Panics if the internal memo lock was poisoned by a panicking
    /// caller.
    pub fn decide_bucket_at(
        &self,
        bucket: u64,
        constraint_ps: f64,
    ) -> Result<Decision, FleetError> {
        let key = (bucket, constraint_ps.to_bits());
        let memo = self
            .memos
            .lock()
            .expect("unpoisoned memos")
            .decisions
            .get(&key)
            .copied();
        if let Some(decision) = memo {
            if decision.plan().is_some() {
                self.flow.engine().count_plan_hits(self.flow.model_key(), 1);
            }
            return Ok(decision);
        }
        let plan = match self
            .flow
            .compression_for_constraint(self.bucket_shift(bucket), constraint_ps)
        {
            Ok(plan) => Some(plan),
            Err(FlowError::NoFeasibleCompression { .. }) => None,
            Err(other) => return Err(FleetError::Flow(other)),
        };
        let mut memos = self.memos.lock().expect("unpoisoned memos");
        if let Some(decision) = memos.decisions.get(&key) {
            return Ok(*decision);
        }
        let decision = match plan {
            Some(plan) => {
                let method = self.select_method_for(&mut memos, plan)?;
                Decision::Plan(ChipPlan {
                    bucket,
                    plan,
                    method: method.map(|(m, _)| m),
                    accuracy_loss_pct: method.map(|(_, loss)| loss),
                })
            }
            None => Decision::Degrade { bucket },
        };
        memos.decisions.insert(key, decision);
        memos.planned_order.push(bucket);
        Ok(decision)
    }

    /// Method selection for `plan`'s bit widths, memoized decider-side
    /// per [`BitWidths`] (quantizing and evaluating a network costs far
    /// more than an STA scan, and the engine caches only the latter),
    /// on the flow's memoized calibration context (see
    /// [`AgingAwareQuantizer::select_method`]), so every selection
    /// after the first reuses the splits, the FP32 pass and the clip
    /// searches of earlier widths. `None` when selection is
    /// disabled or the configured threshold is unmet. Runs under the
    /// memo lock so racing workers never duplicate a model evaluation.
    fn select_method_for(
        &self,
        memos: &mut Memos,
        plan: agequant_core::CompressionPlan,
    ) -> Result<Option<(QuantMethod, f64)>, FleetError> {
        let Some(arch) = self.config.network else {
            return Ok(None);
        };
        let bits = plan.bit_widths();
        if let Some(memo) = memos.methods.get(&bits) {
            return Ok(*memo);
        }
        let model = memos
            .model
            .get_or_insert_with(|| arch.build(self.config.flow.model_seed));
        let method = match self.flow.select_method(model, plan) {
            Ok(outcome) => Some((outcome.method, outcome.accuracy_loss_pct)),
            Err(FlowError::ThresholdUnmet { .. }) => None,
            Err(other) => return Err(FleetError::Flow(other)),
        };
        memos.methods.insert(bits, method);
        Ok(method)
    }

    /// Every decision made so far under the default constraint for a
    /// bucket below [`VIEW_BUCKETS`], indexed by bucket (`None` for a
    /// bucket not yet decided), read under one memo lock. A read-only
    /// snapshot: it counts no hit and records nothing, so a caller that
    /// answers repeats from it counts their plan hits itself
    /// ([`Decider::count_plan_hits`]).
    ///
    /// # Panics
    ///
    /// Panics if the internal memo lock was poisoned.
    #[must_use]
    pub(crate) fn decided_buckets(&self) -> Vec<Option<Decision>> {
        let bits = self.constraint_ps.to_bits();
        let memos = self.memos.lock().expect("unpoisoned memos");
        let mut decided = Vec::new();
        for (&(bucket, constraint), decision) in &memos.decisions {
            let at = usize::try_from(bucket).unwrap_or(usize::MAX);
            if constraint == bits && at < VIEW_BUCKETS {
                if at >= decided.len() {
                    decided.resize(at + 1, None);
                }
                decided[at] = Some(*decision);
            }
        }
        decided
    }

    /// Counts `n` plan hits for this decider's model: the repeats a
    /// caller answered from [`Decider::decided_buckets`] instead of
    /// [`Decider::decide_bucket`], which would have counted one each.
    pub(crate) fn count_plan_hits(&self, n: u64) {
        self.flow.engine().count_plan_hits(self.flow.model_key(), n);
    }

    /// The smallest bucket proven infeasible under the default
    /// constraint, if any — the degrade threshold as this decider has
    /// learned it. A pure memo read: consulting it never characterizes
    /// a bucket, so audits built on it (the autopilot's
    /// undetected-degrade check) cannot perturb cache counters or the
    /// characterization record.
    ///
    /// # Panics
    ///
    /// Panics if the internal memo lock was poisoned.
    #[must_use]
    pub fn min_infeasible_bucket(&self) -> Option<u64> {
        let bits = self.constraint_ps.to_bits();
        self.memos
            .lock()
            .expect("unpoisoned memos")
            .decisions
            .iter()
            .filter(|(&(_, constraint), decision)| {
                constraint == bits && matches!(decision, Decision::Degrade { .. })
            })
            .map(|(&(bucket, _), _)| bucket)
            .min()
    }

    /// The distinct aging buckets fully characterized by this decider
    /// instance (feasible or proven infeasible), in first-encounter
    /// order. With a fixed constraint this is exactly the set of
    /// distinct `(bucket, constraint)` pairs — and therefore exactly
    /// the engine's plan-cache miss count.
    ///
    /// # Panics
    ///
    /// Panics if the internal memo lock was poisoned.
    #[must_use]
    pub fn buckets_planned(&self) -> Vec<u64> {
        self.memos
            .lock()
            .expect("unpoisoned memos")
            .planned_order
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use agequant_check::sync::Arc;

    use agequant_core::CacheStats;

    use super::*;
    use crate::{ChipMode, FleetSim};

    #[test]
    fn decider_and_sim_serve_identical_plans() {
        let mut config = FleetConfig::new(8, 13);
        config.epoch_years = 2.5;
        let mut sim = FleetSim::new(config.clone()).expect("valid config");
        sim.run(3).expect("simulates");

        // An independent decider must reproduce every chip's held plan
        // bit-identically from the chip's bucket alone.
        let decider = Decider::from_config(&config).expect("valid config");
        for chip in &sim.to_state().chips {
            let decision = decider.decide_bucket(chip.bucket).expect("decides");
            match (chip.mode, decision) {
                (ChipMode::Compressed, Decision::Plan(plan)) => {
                    assert_eq!(Some(plan), chip.plan, "chip {} diverged", chip.id);
                }
                (ChipMode::Guardband, Decision::Degrade { bucket }) => {
                    assert_eq!(bucket, chip.bucket);
                }
                (mode, decision) => panic!("chip {} in {mode:?} got {decision:?}", chip.id),
            }
        }
    }

    #[test]
    fn degraded_chips_are_never_replanned() {
        let mut config = FleetConfig::new(4, 5);
        config.constraint_factor = 0.3; // infeasible from bucket 0
        config.epoch_years = 2.5;
        let decider = Arc::new(Decider::from_config(&config).expect("valid config"));
        let mut sim =
            FleetSim::new_with_decider(Arc::clone(&decider)).expect("degrades, does not error");
        assert!(sim
            .to_state()
            .chips
            .iter()
            .all(|chip| chip.mode == ChipMode::Guardband));
        let planned = decider.buckets_planned();
        sim.run(4).expect("simulates");
        // Infeasibility is monotone in ΔVth: a degraded chip only
        // tracks its aged bucket, and no later bucket is characterized.
        for chip in &sim.to_state().chips {
            assert_eq!(chip.mode, ChipMode::Guardband);
            assert!(chip.plan.is_none());
            assert_eq!(chip.bucket, decider.bucket_of(chip.shift_at(10.0)));
        }
        assert!(sim.to_state().chips.iter().any(|chip| chip.bucket > 0));
        assert_eq!(decider.buckets_planned(), planned);
    }

    /// A decider whose memos and engine are warm from other keys must
    /// decide every key exactly like a fresh decider that sees only
    /// that key: sharing the grid scan across constraints and the
    /// method selection across keys with the same bit widths changes
    /// no decision.
    #[test]
    fn warm_decider_decides_like_fresh_ones() {
        let mut config = FleetConfig::new(1, 2021);
        config.network = Some(agequant_nn::NetArch::SqueezeNet11);
        config.bucket_mv = 5.0;
        // Buckets across 0–50 mV, each revisited under a second
        // constraint factor; bucket 0 plans (0, 0) under both.
        let keys: [(u64, f64); 12] = [
            (0, 1.0),
            (2, 1.0),
            (0, 1.2),
            (4, 1.09),
            (2, 0.8),
            (6, 1.0),
            (4, 0.6),
            (8, 0.8),
            (6, 1.2),
            (10, 1.0),
            (8, 1.0),
            (10, 0.6),
        ];
        let warm = Decider::from_config(&config).expect("valid config");
        let decisions: Vec<Decision> = keys
            .iter()
            .map(|&(bucket, factor)| {
                warm.decide_bucket_at(bucket, warm.constraint_ps() * factor)
                    .expect("decides")
            })
            .collect();
        for (&(bucket, factor), warm_decision) in keys.iter().zip(&decisions) {
            let fresh = Decider::from_config(&config).expect("valid config");
            let fresh_decision = fresh
                .decide_bucket_at(bucket, fresh.constraint_ps() * factor)
                .expect("decides");
            assert_eq!(
                fresh_decision, *warm_decision,
                "bucket {bucket} at ×{factor} diverged from a fresh decider"
            );
        }

        let plans: Vec<&ChipPlan> = decisions.iter().filter_map(Decision::plan).collect();
        assert_eq!(plans.len(), keys.len(), "every key is feasible");
        let mut shared_pairs = 0;
        for (i, a) in plans.iter().enumerate() {
            for b in &plans[i + 1..] {
                if a.plan.compression == b.plan.compression {
                    shared_pairs += 1;
                    assert!(a.method.is_some(), "selection is enabled");
                    assert_eq!(a.method, b.method);
                    assert_eq!(
                        a.accuracy_loss_pct.map(f64::to_bits),
                        b.accuracy_loss_pct.map(f64::to_bits)
                    );
                }
            }
        }
        assert!(shared_pairs > 0, "no two keys share an (α, β)");
    }

    /// A repeated key is answered from the decision memo yet counts
    /// what the engine round trip it skips counted: a feasible repeat
    /// adds exactly one plan hit, for the decider's model, and a key
    /// proven infeasible (never cached by the engine, so never asked
    /// again) touches no counter. Neither extends the record.
    #[test]
    fn repeats_count_what_the_skipped_engine_round_trip_counted() {
        let decider = Decider::from_config(&FleetConfig::new(2, 7)).expect("valid config");
        let (flow, engine) = (decider.flow(), decider.flow().engine());
        let (default, tight) = (decider.constraint_ps(), decider.constraint_ps() * 0.3);
        let decide = |constraint| decider.decide_bucket_at(2, constraint).expect("decides");
        let one_more_hit = |stats: CacheStats| CacheStats {
            plan_hits: stats.plan_hits + 1,
            ..stats
        };
        let feasible = decide(default);
        assert_eq!(decide(tight), Decision::Degrade { bucket: 2 });
        assert_eq!(decider.buckets_planned(), vec![2, 2]);

        let before = engine.stats();
        let plan = flow.compression_for_constraint(decider.bucket_shift(2), default);
        assert_eq!(plan.ok().as_ref(), feasible.plan().map(|p| &p.plan));
        assert_eq!(engine.stats(), one_more_hit(before), "the round trip");

        let (before, model) = (engine.stats(), engine.stats_by_model()[flow.model_key()]);
        assert_eq!(decide(default), feasible);
        assert_eq!(engine.stats(), one_more_hit(before));
        assert_eq!(
            engine.stats_by_model()[flow.model_key()],
            one_more_hit(model)
        );
        let before = engine.stats();
        assert_eq!(decide(tight), Decision::Degrade { bucket: 2 });
        assert_eq!(engine.stats(), before);
        assert_eq!(decider.buckets_planned(), vec![2, 2]);
        assert_eq!(decider.min_infeasible_bucket(), None, "not the default key");
    }

    #[test]
    fn non_default_constraints_do_not_contaminate_the_record() {
        let config = FleetConfig::new(2, 7);
        let decider = Decider::from_config(&config).expect("valid config");
        decider.decide_bucket(0).expect("decides");
        // A tighter ad-hoc constraint on the same bucket is a separate
        // memo entry, not a rewrite of the fleet's decision.
        decider
            .decide_bucket_at(0, decider.constraint_ps() * 0.5)
            .expect("decides");
        let default_again = decider.decide_bucket(0).expect("decides");
        assert!(matches!(default_again, Decision::Plan(_)));
        assert_eq!(decider.buckets_planned(), vec![0, 0]);
    }
}
