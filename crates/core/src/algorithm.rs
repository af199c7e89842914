//! Algorithm 1: aging-aware quantization.
//!
//! Every per-aging-level entry point has two faces: the default
//! methods run on the shared [`EvalEngine`] (memoized characterization
//! and load vectors, plan cache, `par_map`-parallel scans), while the
//! `*_serial` methods preserve the original uncached single-threaded
//! reference implementation. The two are bit-identical — see
//! `crates/core/tests/equivalence.rs`.

use std::borrow::Cow;

use agequant_check::par_map;
use agequant_check::sync::{Arc, Mutex};

use agequant_aging::{DegradationModel, DelayDerating, ModelSpec, VthShift};
use agequant_netlist::mac::MacCircuit;
use agequant_nn::{Model, NetArch, SyntheticDataset};
use agequant_quant::{BitWidths, CalibContext, QuantMethod};
use agequant_sta::{mac_case_on, CaseAssignment, Compression, Padding, Sta};
use serde::{Deserialize, Serialize};

use crate::{EvalEngine, FlowConfig, FlowError};

/// One timing-feasible compression point found by the STA scan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FeasiblePoint {
    /// The `(α, β)` compression.
    pub compression: Compression,
    /// The padding under which it meets timing.
    pub padding: Padding,
    /// The aged critical path under this case, ps.
    pub delay_ps: f64,
}

/// The outcome of Algorithm 1 lines 2–5 for one aging level: the
/// minimum-norm compression whose aged critical path meets the fresh
/// clock.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompressionPlan {
    /// The aging level planned for.
    pub shift: VthShift,
    /// The selected `(α, β)`.
    pub compression: Compression,
    /// The selected padding.
    pub padding: Padding,
    /// Aged critical path under the selected case, ps.
    pub compressed_delay_ps: f64,
    /// The timing constraint used (fresh critical path), ps.
    pub constraint_ps: f64,
    /// Number of feasible `(compression, padding)` points found.
    pub feasible_points: usize,
}

impl CompressionPlan {
    /// The bit widths this plan induces (Section 5's rule).
    pub fn bit_widths(&self) -> BitWidths {
        BitWidths::for_compression(self.compression.alpha(), self.compression.beta())
    }
}

/// The outcome of the full Algorithm 1 for one network at one aging
/// level: compression plan plus the selected quantization method.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelOutcome {
    /// The network evaluated.
    pub network: String,
    /// The compression plan applied.
    pub plan: CompressionPlan,
    /// The selected method (best accuracy, or first meeting the
    /// threshold).
    pub method: QuantMethod,
    /// Accuracy loss of the selected method vs FP32, percent.
    pub accuracy_loss_pct: f64,
    /// Loss of every method tried, in library order.
    pub method_losses: Vec<(QuantMethod, f64)>,
}

/// The aging-aware quantization flow (Algorithm 1 + Fig. 3).
///
/// Construction synthesizes the MAC, runs fresh STA to fix the clock
/// (zero-slack, no guardband), and validates the configuration; the
/// per-aging-level entry points then scan compressions and select
/// quantization methods. See the [crate docs](crate) for an example.
#[derive(Debug, Clone)]
pub struct AgingAwareQuantizer {
    config: FlowConfig,
    mac: MacCircuit,
    fresh_cp_ps: f64,
    /// The degradation model the flow plans under (the config's
    /// selection, default power-law NBTI), with its cache identity and
    /// delay derating resolved once at construction.
    model: ModelSpec,
    model_key: String,
    derating: DelayDerating,
    /// Shared across clones: the caches are keyed on (model, ΔVth)
    /// and, for plans, the constraint, which is sound because `mac`
    /// and `config` are immutable after construction.
    engine: Arc<EvalEngine>,
    /// The calibration context of the last network
    /// [`select_method`](Self::select_method) was given, reused while
    /// callers pass an equal model. Shared across clones like
    /// `engine`, and sound for the same reason: a context depends on
    /// nothing but the model and the config's splits.
    calibration: Arc<Mutex<Option<CalibContext<'static>>>>,
}

impl AgingAwareQuantizer {
    /// Builds the flow: synthesizes the MAC and fixes the fresh clock.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidConfig`] if the configuration fails
    /// validation.
    pub fn new(config: FlowConfig) -> Result<Self, FlowError> {
        let engine = Arc::new(EvalEngine::new(config.process.clone()));
        Self::with_engine(config, engine)
    }

    /// Like [`new`](Self::new), but on a caller-provided engine — the
    /// decision server uses this to share one engine (and its caches)
    /// across quantizers for different degradation models. The engine's
    /// caches are keyed on the model, so sharing is always sound as
    /// long as the engine was built over the same process library and
    /// MAC netlist.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidConfig`] if the configuration fails
    /// validation.
    pub fn with_engine(config: FlowConfig, engine: Arc<EvalEngine>) -> Result<Self, FlowError> {
        config.validate()?;
        let mac = MacCircuit::with_adders(
            config.mac.geometry,
            config.mac.arch,
            config.mac.mult_adder,
            config.mac.acc_adder,
        )
        .map_err(FlowError::InvalidConfig)?;
        let model = config.model_spec();
        let model_key = model.model_key();
        let derating = model.derating();
        let fresh_lib = engine.library(&model_key, &derating, VthShift::FRESH);
        let fresh_loads = engine.sta_loads(&model_key, &derating, mac.netlist(), VthShift::FRESH);
        let fresh_cp_ps = Sta::with_loads(mac.netlist(), &fresh_lib, &fresh_loads)
            .analyze_uncompressed()
            .critical_path_ps;
        Ok(AgingAwareQuantizer {
            config,
            mac,
            fresh_cp_ps,
            model,
            model_key,
            derating,
            engine,
            calibration: Arc::default(),
        })
    }

    /// The flow's configuration.
    #[must_use]
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// The degradation model the flow plans under.
    #[must_use]
    pub fn model(&self) -> &ModelSpec {
        &self.model
    }

    /// The model's stable cache key (see
    /// [`DegradationModel::model_key`]).
    #[must_use]
    pub fn model_key(&self) -> &str {
        &self.model_key
    }

    /// The model's delay derating, resolved once at construction.
    #[must_use]
    pub fn derating(&self) -> &DelayDerating {
        &self.derating
    }

    /// The memoized evaluation engine backing this flow.
    #[must_use]
    pub fn engine(&self) -> &EvalEngine {
        &self.engine
    }

    /// The synthesized MAC.
    #[must_use]
    pub fn mac(&self) -> &MacCircuit {
        &self.mac
    }

    /// The fresh (zero-slack) critical path that serves as the clock
    /// constraint for the whole lifetime, ps.
    #[must_use]
    pub fn fresh_critical_path_ps(&self) -> f64 {
        self.fresh_cp_ps
    }

    /// The aged, uncompressed critical path at `shift`, ps — the
    /// baseline of Fig. 4a. Library and load vector come from the
    /// engine cache.
    #[must_use]
    pub fn baseline_delay_ps(&self, shift: VthShift) -> f64 {
        let lib = self.engine.library(&self.model_key, &self.derating, shift);
        let loads =
            self.engine
                .sta_loads(&self.model_key, &self.derating, self.mac.netlist(), shift);
        Sta::with_loads(self.mac.netlist(), &lib, &loads)
            .analyze_uncompressed()
            .critical_path_ps
    }

    /// The valid `(compression, padding)` scan order of the grid:
    /// compressions in [`Compression::grid`] order, paddings in
    /// [`Padding::ALL`] order within each. Both execution strategies
    /// evaluate exactly this sequence.
    fn grid_cases(&self) -> Vec<(Compression, Padding)> {
        let mut cases = Vec::new();
        for compression in Compression::grid(self.config.grid_max) {
            if compression.validate(self.mac.geometry()).is_err() {
                continue;
            }
            for padding in Padding::ALL {
                cases.push((compression, padding));
            }
        }
        cases
    }

    /// One STA point of the grid scan.
    fn scan_case(&self, sta: &Sta<'_>, compression: Compression, padding: Padding) -> f64 {
        let case: CaseAssignment = mac_case_on(
            self.mac.netlist(),
            self.mac.geometry(),
            compression,
            padding,
        )
        .expect("grid cases are valid for the flow's MAC");
        sta.analyze(&case).critical_path_ps
    }

    /// The full `(α, β)` grid under both paddings at `shift`: the aged
    /// critical path of every valid case, in scan order, unfiltered
    /// (Algorithm 1 lines 2–4 before the timing check).
    ///
    /// The scan is memoized per `(model, ΔVth)` on the engine, so every
    /// timing constraint asked at one level shares it. On a miss the
    /// characterized library and the load vector come from the engine,
    /// one STA session serves the whole grid, and the independent case
    /// analyses fan out through [`par_map`], which preserves scan
    /// order.
    #[must_use]
    pub fn grid_scan(&self, shift: VthShift) -> Arc<[FeasiblePoint]> {
        self.engine.grid_scan(&self.model_key, shift, || {
            let lib = self.engine.library(&self.model_key, &self.derating, shift);
            let loads =
                self.engine
                    .sta_loads(&self.model_key, &self.derating, self.mac.netlist(), shift);
            let sta = Sta::with_loads(self.mac.netlist(), &lib, &loads);
            par_map(&self.grid_cases(), |&(compression, padding)| {
                FeasiblePoint {
                    compression,
                    padding,
                    delay_ps: self.scan_case(&sta, compression, padding),
                }
            })
        })
    }

    /// Every point of the `(α, β)` grid under both paddings at `shift`
    /// whose aged critical path meets `constraint_ps` (Algorithm 1
    /// lines 2–4 generalized to an arbitrary constraint), in scan
    /// order.
    ///
    /// Filters the memoized [`grid_scan`](Self::grid_scan), so the
    /// result is bit-identical to
    /// [`feasible_compressions_serial`](Self::feasible_compressions_serial).
    #[must_use]
    pub fn feasible_compressions(&self, shift: VthShift, constraint_ps: f64) -> Vec<FeasiblePoint> {
        self.grid_scan(shift)
            .iter()
            .filter(|p| p.delay_ps <= constraint_ps + 1e-9)
            .copied()
            .collect()
    }

    /// The original single-threaded, uncached grid scan: characterizes
    /// the library and rebuilds the STA session on every call, then
    /// walks the grid in order. Kept as the reference implementation
    /// the equivalence suite and the engine speed test compare against.
    #[must_use]
    pub fn feasible_compressions_serial(
        &self,
        shift: VthShift,
        constraint_ps: f64,
    ) -> Vec<FeasiblePoint> {
        let lib = self.config.process.characterize(&self.derating, shift);
        let sta = Sta::new(self.mac.netlist(), &lib);
        let mut points = Vec::new();
        for (compression, padding) in self.grid_cases() {
            let delay_ps = self.scan_case(&sta, compression, padding);
            if delay_ps <= constraint_ps + 1e-9 {
                points.push(FeasiblePoint {
                    compression,
                    padding,
                    delay_ps,
                });
            }
        }
        points
    }

    /// Algorithm 1 lines 2–5: the minimum-norm feasible compression at
    /// `shift` against the fresh clock. Ties prefer the smaller α
    /// (highest activation precision, following ACIQ's observation),
    /// then the faster padding.
    ///
    /// # Errors
    ///
    /// [`FlowError::NoFeasibleCompression`] if even the maximum
    /// compression misses timing.
    pub fn compression_for(&self, shift: VthShift) -> Result<CompressionPlan, FlowError> {
        self.compression_for_constraint(shift, self.fresh_cp_ps)
    }

    /// Like [`compression_for`](Self::compression_for) with an explicit
    /// timing constraint — used for the partial-guardband study
    /// (Section 7: "(3,1) compression and only 9% guardband").
    ///
    /// A repeated `(shift, constraint)` is a plan-cache hit; a new
    /// constraint at a level already scanned selects from the cached
    /// [`grid_scan`](Self::grid_scan) without running STA.
    ///
    /// # Errors
    ///
    /// [`FlowError::NoFeasibleCompression`] if nothing meets the
    /// constraint.
    pub fn compression_for_constraint(
        &self,
        shift: VthShift,
        constraint_ps: f64,
    ) -> Result<CompressionPlan, FlowError> {
        if let Some(plan) = self
            .engine
            .cached_plan(&self.model_key, shift, constraint_ps)
        {
            return Ok(plan);
        }
        let points = self.feasible_compressions(shift, constraint_ps);
        let plan = Self::select_plan(&points, shift, constraint_ps)?;
        self.engine
            .store_plan(&self.model_key, shift, constraint_ps, plan);
        Ok(plan)
    }

    /// The original uncached single-threaded Algorithm 1 lines 2–5,
    /// kept as the equivalence reference for
    /// [`compression_for_constraint`](Self::compression_for_constraint).
    ///
    /// # Errors
    ///
    /// [`FlowError::NoFeasibleCompression`] if nothing meets the
    /// constraint.
    pub fn compression_for_constraint_serial(
        &self,
        shift: VthShift,
        constraint_ps: f64,
    ) -> Result<CompressionPlan, FlowError> {
        let points = self.feasible_compressions_serial(shift, constraint_ps);
        Self::select_plan(&points, shift, constraint_ps)
    }

    /// Algorithm 1 line 5: picks the plan from the feasible set. Pure
    /// selection — both execution strategies funnel through it.
    fn select_plan(
        points: &[FeasiblePoint],
        shift: VthShift,
        constraint_ps: f64,
    ) -> Result<CompressionPlan, FlowError> {
        let min_norm = points
            .iter()
            .map(|p| p.compression.magnitude())
            .fold(f64::INFINITY, f64::min);
        // Minimum Euclidean norm (the paper's surrogate), with a
        // near-tie band: among points within +0.5 of the minimal norm,
        // prefer the *balanced* compression (smallest |α − β|), then
        // the smaller α, then the faster padding. For exact ties this
        // coincides with the paper's "smallest α" rule; the band
        // additionally steers away from extreme single-operand
        // compressions whose accuracy cost the symmetric norm
        // under-estimates (the same observation — cited from ACIQ —
        // that motivates the paper's own tie-break).
        let best = points
            .iter()
            .filter(|p| p.compression.magnitude() <= min_norm + 0.5)
            .min_by(|a, b| {
                let key = |p: &FeasiblePoint| {
                    (
                        i16::from(p.compression.alpha()) - i16::from(p.compression.beta()),
                        p.compression.alpha(),
                        p.delay_ps,
                    )
                };
                let balance = |p: &FeasiblePoint| {
                    let (d, alpha, delay) = key(p);
                    (d.unsigned_abs(), alpha, delay)
                };
                balance(a)
                    .partial_cmp(&balance(b))
                    .expect("delays are finite")
            })
            .copied()
            .ok_or(FlowError::NoFeasibleCompression {
                shift,
                constraint_ps,
            })?;
        Ok(CompressionPlan {
            shift,
            compression: best.compression,
            padding: best.padding,
            compressed_delay_ps: best.delay_ps,
            constraint_ps,
            feasible_points: points.len(),
        })
    }

    /// The flow's dataset, generated **once** from `data_seed`:
    /// `calib_samples + eval_samples` images drawn from a single noise
    /// stream. [`splits`](Self::splits) carves it into the disjoint
    /// calibration and evaluation sets. (The seed implementation
    /// generated the evaluation set a second time from `data_seed ^ 1`
    /// and discarded this stream's evaluation tail; the one-stream
    /// split keeps the sets disjoint without the wasted generation.)
    #[must_use]
    pub fn dataset(&self) -> SyntheticDataset {
        SyntheticDataset::generate(
            self.config.eval_samples + self.config.calib_samples,
            self.config.data_seed,
        )
    }

    /// The `(calibration, evaluation)` split of
    /// [`dataset`](Self::dataset): the first `calib_samples` images
    /// calibrate quantization statistics, the remaining `eval_samples`
    /// measure accuracy. Disjoint by construction — no image is seen
    /// by both calibration and evaluation.
    #[must_use]
    pub fn splits(&self) -> (SyntheticDataset, SyntheticDataset) {
        self.dataset().split_at(self.config.calib_samples)
    }

    /// The calibration context Algorithm 1's method selection reads
    /// for `model`: the flow's [`splits`](Self::splits), the FP32
    /// reference predictions on the evaluation split, the calibration
    /// statistics, and a memo of clip searches that grows with every
    /// bit-width pair selected on it. Build it once per network and
    /// pass it to [`select_method_in`](Self::select_method_in) for each
    /// plan; [`select_method`](Self::select_method) keeps one for the
    /// last model it was given.
    #[must_use]
    pub fn calibrate<'m>(&self, model: Cow<'m, Model>) -> CalibContext<'m> {
        let (calib, eval) = self.splits();
        CalibContext::new(model, calib).evaluating(eval)
    }

    /// Algorithm 1 lines 6–9 for an already-planned compression:
    /// quantize `model` with every library method at the plan's bit
    /// widths and select per the threshold policy.
    ///
    /// Runs [`select_method_in`](Self::select_method_in) on the flow's
    /// memoized [`calibrate`](Self::calibrate) context: a call with a
    /// model equal to the previous call's reuses its splits, FP32
    /// pass, calibration statistics and clip searches; any other model
    /// replaces the memo with a fresh context. Concurrent callers hold
    /// the memo's lock only to take or return the context, never while
    /// selecting: one that finds the memo taken calibrates its own.
    /// Bit-identical to
    /// [`select_method_serial`](Self::select_method_serial).
    ///
    /// # Errors
    ///
    /// [`FlowError::ThresholdUnmet`] when a threshold is configured and
    /// no method satisfies it.
    ///
    /// # Panics
    ///
    /// Panics if the calibration memo's lock was poisoned.
    pub fn select_method(
        &self,
        model: &Model,
        plan: CompressionPlan,
    ) -> Result<ModelOutcome, FlowError> {
        let memo = || {
            self.calibration
                .lock()
                .expect("unpoisoned calibration memo")
        };
        let mut context = memo()
            .take()
            .filter(|context| context.model() == model)
            .unwrap_or_else(|| self.calibrate(Cow::Owned(model.clone())));
        let outcome = self.select_method_in(&mut context, plan);
        *memo() = Some(context);
        outcome
    }

    /// Algorithm 1 lines 6–9 on a calibration context built by this
    /// flow's [`calibrate`](Self::calibrate), in two parallel phases.
    /// First, the clip searches the plan's bit widths need and the
    /// context has not run yet fan out through one [`par_map`], a job
    /// per layer's activation clip or per chunk of a layer's weight
    /// channels. Then the per-method quantize-and-evaluate runs fan
    /// out through [`par_map`] from the cached statistics and clips;
    /// the threshold policy is applied to the ordered loss list,
    /// reproducing the serial early exit exactly: with a threshold
    /// set, the reported `method_losses` end at the first method
    /// meeting it.
    ///
    /// # Errors
    ///
    /// [`FlowError::ThresholdUnmet`] when a threshold is configured and
    /// no method satisfies it.
    pub fn select_method_in(
        &self,
        context: &mut CalibContext<'_>,
        plan: CompressionPlan,
    ) -> Result<ModelOutcome, FlowError> {
        let bits = plan.bit_widths();
        context.search_clips(&QuantMethod::ALL, bits);
        let context = &*context;
        let method_losses = par_map(&QuantMethod::ALL, |&method| {
            let quantized = context.quantize(method, bits, &self.config.lapq);
            (method, context.loss_pct(&quantized))
        });
        Self::resolve_methods(
            context.model().name(),
            plan,
            method_losses,
            self.config.threshold_pct,
        )
    }

    /// Lines 6–9 as a serial method loop with the true early exit on
    /// the threshold: each method's clip searches run inline, in
    /// library order, on a fresh context that memoizes none of them.
    /// Kept as the equivalence reference for
    /// [`select_method`](Self::select_method) and
    /// [`select_method_in`](Self::select_method_in).
    ///
    /// # Errors
    ///
    /// [`FlowError::ThresholdUnmet`] when a threshold is configured and
    /// no method satisfies it.
    pub fn select_method_serial(
        &self,
        model: &Model,
        plan: CompressionPlan,
    ) -> Result<ModelOutcome, FlowError> {
        let context = self.calibrate(Cow::Borrowed(model));
        let bits = plan.bit_widths();

        let mut method_losses = Vec::with_capacity(QuantMethod::ALL.len());
        for method in QuantMethod::ALL {
            let quantized = context.quantize(method, bits, &self.config.lapq);
            let loss = context.loss_pct(&quantized);
            method_losses.push((method, loss));
            if let Some(threshold) = self.config.threshold_pct {
                if loss <= threshold {
                    // Line 9: first method meeting the threshold wins.
                    break;
                }
            }
        }
        Self::resolve_methods(model.name(), plan, method_losses, self.config.threshold_pct)
    }

    /// Applies the threshold policy to the ordered per-method losses.
    ///
    /// With a threshold set, the *first* method (library order)
    /// meeting it wins and `method_losses` is truncated at that
    /// method — exactly the paper's line-9 early exit, so the
    /// parallel path (which evaluates every method) reports the same
    /// outcome the stop-early serial loop does. Without a threshold,
    /// the best loss wins, first method on exact ties.
    fn resolve_methods(
        network: &str,
        plan: CompressionPlan,
        mut method_losses: Vec<(QuantMethod, f64)>,
        threshold_pct: Option<f64>,
    ) -> Result<ModelOutcome, FlowError> {
        if let Some(threshold) = threshold_pct {
            return match method_losses.iter().position(|&(_, l)| l <= threshold) {
                Some(pos) => {
                    method_losses.truncate(pos + 1);
                    let (method, loss) = method_losses[pos];
                    Ok(ModelOutcome {
                        network: network.to_string(),
                        plan,
                        method,
                        accuracy_loss_pct: loss,
                        method_losses,
                    })
                }
                None => {
                    let best_loss_pct = method_losses
                        .iter()
                        .map(|&(_, l)| l)
                        .fold(f64::INFINITY, f64::min);
                    Err(FlowError::ThresholdUnmet {
                        best_loss_pct,
                        threshold_pct: threshold,
                    })
                }
            };
        }
        let (method, loss) = method_losses
            .iter()
            .copied()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("losses are finite"))
            .expect("at least one method evaluated");
        Ok(ModelOutcome {
            network: network.to_string(),
            plan,
            method,
            accuracy_loss_pct: loss,
            method_losses,
        })
    }

    /// The complete Algorithm 1 for one zoo network at one aging level.
    ///
    /// # Errors
    ///
    /// Propagates [`FlowError::NoFeasibleCompression`] and
    /// [`FlowError::ThresholdUnmet`].
    pub fn quantize_arch(&self, arch: NetArch, shift: VthShift) -> Result<ModelOutcome, FlowError> {
        let plan = self.compression_for(shift)?;
        let model = arch.build(self.config.model_seed);
        self.select_method(&model, plan)
    }
}

#[cfg(test)]
mod tests {
    use agequant_aging::AGING_SWEEP_MV;

    use super::*;

    fn flow() -> AgingAwareQuantizer {
        AgingAwareQuantizer::new(FlowConfig::edge_tpu_like()).expect("valid config")
    }

    #[test]
    fn fresh_chip_needs_no_compression() {
        let plan = flow().compression_for(VthShift::FRESH).expect("feasible");
        assert!(plan.compression.is_uncompressed());
        assert_eq!(plan.compressed_delay_ps, plan.constraint_ps);
    }

    #[test]
    fn compression_grows_with_aging() {
        let flow = flow();
        let mut last_norm = -1.0;
        for &mv in &AGING_SWEEP_MV {
            let plan = flow
                .compression_for(VthShift::from_millivolts(mv))
                .unwrap_or_else(|e| panic!("{mv} mV: {e}"));
            let norm = plan.compression.magnitude();
            assert!(
                norm >= last_norm,
                "norm should be monotone: {norm} after {last_norm} at {mv} mV"
            );
            last_norm = norm;
            // The plan must actually close timing.
            assert!(plan.compressed_delay_ps <= plan.constraint_ps + 1e-9);
        }
    }

    #[test]
    fn eol_requires_substantial_compression() {
        let plan = flow()
            .compression_for(VthShift::from_millivolts(50.0))
            .expect("feasible at end of life");
        assert!(
            u32::from(plan.compression.alpha()) + u32::from(plan.compression.beta()) >= 4,
            "EOL compression {} too mild",
            plan.compression
        );
    }

    #[test]
    fn partial_guardband_needs_less_compression() {
        let flow = flow();
        let eol = VthShift::from_millivolts(50.0);
        let strict = flow.compression_for(eol).expect("no guardband");
        let relaxed = flow
            .compression_for_constraint(eol, flow.fresh_critical_path_ps() * 1.09)
            .expect("9% guardband");
        assert!(relaxed.compression.magnitude() <= strict.compression.magnitude());
    }

    #[test]
    fn baseline_delay_matches_derating_scale() {
        let flow = flow();
        let fresh = flow.baseline_delay_ps(VthShift::FRESH);
        assert!((fresh - flow.fresh_critical_path_ps()).abs() < 1e-9);
        let eol = flow.baseline_delay_ps(VthShift::from_millivolts(50.0));
        let ratio = eol / fresh;
        // Cell-level sensitivities spread around the nominal 1.23.
        assert!((1.15..=1.35).contains(&ratio), "EOL ratio {ratio}");
    }

    #[test]
    fn infeasible_constraint_is_reported() {
        let flow = flow();
        let err = flow
            .compression_for_constraint(VthShift::from_millivolts(50.0), 1.0)
            .unwrap_err();
        assert!(matches!(err, FlowError::NoFeasibleCompression { .. }));
    }

    #[test]
    fn threshold_policy_returns_early_or_errors() {
        let mut config = FlowConfig::edge_tpu_like();
        config.eval_samples = 20;
        config.calib_samples = 4;
        config.lapq = agequant_quant::LapqRefineConfig::off();

        // Generous threshold: the first tried method should win.
        config.threshold_pct = Some(100.0);
        let flow = AgingAwareQuantizer::new(config.clone()).unwrap();
        let outcome = flow
            .quantize_arch(NetArch::AlexNet, VthShift::from_millivolts(10.0))
            .expect("threshold met");
        assert_eq!(outcome.method, QuantMethod::ALL[0]);
        assert_eq!(outcome.method_losses.len(), 1, "stopped at first method");

        // Impossible threshold: error.
        config.threshold_pct = Some(0.0);
        let flow = AgingAwareQuantizer::new(config).unwrap();
        let result = flow.quantize_arch(NetArch::SqueezeNet11, VthShift::from_millivolts(50.0));
        assert!(matches!(result, Err(FlowError::ThresholdUnmet { .. })));
    }

    #[test]
    fn full_algorithm_runs_for_one_network() {
        let mut config = FlowConfig::edge_tpu_like();
        config.eval_samples = 20;
        config.calib_samples = 4;
        config.lapq = agequant_quant::LapqRefineConfig::off();
        let flow = AgingAwareQuantizer::new(config).unwrap();
        let outcome = flow
            .quantize_arch(NetArch::AlexNet, VthShift::from_millivolts(20.0))
            .expect("algorithm completes");
        assert_eq!(outcome.method_losses.len(), QuantMethod::ALL.len());
        let best = outcome
            .method_losses
            .iter()
            .map(|&(_, l)| l)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(outcome.accuracy_loss_pct, best);
    }
}
