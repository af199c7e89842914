//! Provable equivalence of the evaluation engine: the memoized,
//! `par_map`-parallel paths must return **bit-identical** results to the
//! retained uncached serial reference paths, at every level of the
//! paper's aging sweep.

use std::borrow::Cow;
use std::sync::Arc;

use agequant_aging::{VthShift, AGING_SWEEP_MV};
use agequant_core::{AgingAwareQuantizer, CompressionPlan, FlowConfig};
use agequant_nn::NetArch;
use agequant_quant::{LapqRefineConfig, QuantMethod};
use agequant_sta::Compression;

fn flow() -> AgingAwareQuantizer {
    AgingAwareQuantizer::new(FlowConfig::edge_tpu_like()).expect("valid config")
}

fn quick_flow(threshold_pct: Option<f64>) -> AgingAwareQuantizer {
    let mut config = FlowConfig::edge_tpu_like();
    config.eval_samples = 20;
    config.calib_samples = 4;
    config.lapq = LapqRefineConfig::off();
    config.threshold_pct = threshold_pct;
    AgingAwareQuantizer::new(config).expect("valid config")
}

/// Timing constraints, as factors of the fresh critical path, asked at
/// every level: tighter and looser than the clock, and the paper's 9%
/// partial guardband. All of them share the level's one grid scan.
const CONSTRAINT_FACTORS: [f64; 5] = [0.6, 0.8, 1.0, 1.09, 1.2];

#[test]
fn feasible_points_bit_identical_across_sweep() {
    let flow = flow();
    let clock = flow.fresh_critical_path_ps();
    for &mv in &AGING_SWEEP_MV {
        let shift = VthShift::from_millivolts(mv);
        // The first factor scans the level cold; every later one is a
        // filter over the cached scan.
        for factor in CONSTRAINT_FACTORS {
            let constraint = clock * factor;
            let parallel = flow.feasible_compressions(shift, constraint);
            let serial = flow.feasible_compressions_serial(shift, constraint);
            // `FeasiblePoint` holds f64 delays; `==` is exact bit-level
            // agreement, not a tolerance comparison.
            assert_eq!(parallel, serial, "divergence at {mv} mV, ×{factor}");
            // A second engine pass (now warm) must also agree.
            assert_eq!(flow.feasible_compressions(shift, constraint), serial);
        }
        // The unfiltered scan is the loosest constraint's feasible set,
        // served as one shared allocation.
        let scan = flow.grid_scan(shift);
        assert!(Arc::ptr_eq(&scan, &flow.grid_scan(shift)));
        assert_eq!(
            scan.to_vec(),
            flow.feasible_compressions_serial(shift, f64::INFINITY),
            "unfiltered scan diverges at {mv} mV"
        );
    }
    let stats = flow.engine().stats();
    assert!(stats.library_hits > 0, "cache never hit: {stats:?}");
}

#[test]
fn plans_bit_identical_across_sweep() {
    let flow = flow();
    let clock = flow.fresh_critical_path_ps();
    for &mv in &AGING_SWEEP_MV {
        let shift = VthShift::from_millivolts(mv);
        for factor in CONSTRAINT_FACTORS {
            let constraint = clock * factor;
            // Compared as `Result`s: a factor no compression meets at
            // this level must fail identically on both paths.
            let serial = flow.compression_for_constraint_serial(shift, constraint);
            assert_eq!(
                flow.compression_for_constraint(shift, constraint),
                serial,
                "divergence at {mv} mV, ×{factor}"
            );
            // The plan-cache hit returns the identical plan.
            assert_eq!(flow.compression_for_constraint(shift, constraint), serial);
        }
        assert_eq!(
            flow.compression_for(shift),
            flow.compression_for_constraint_serial(shift, clock),
            "divergence at {mv} mV"
        );
    }
    let stats = flow.engine().stats();
    assert!(stats.plan_hits >= AGING_SWEEP_MV.len() as u64, "{stats:?}");
}

#[test]
fn infeasible_constraint_agrees_between_paths() {
    let flow = flow();
    let shift = VthShift::from_millivolts(50.0);
    let serial = flow
        .compression_for_constraint_serial(shift, 1.0)
        .unwrap_err();
    // Cold: the failing query itself scans the level.
    assert_eq!(
        flow.compression_for_constraint(shift, 1.0).unwrap_err(),
        serial
    );
    // Warm: a feasible query scanned the level, and the failing one is
    // now answered from that scan.
    flow.compression_for(shift).expect("feasible");
    assert_eq!(
        flow.compression_for_constraint(shift, 1.0).unwrap_err(),
        serial
    );
}

#[test]
fn model_outcomes_bit_identical_without_threshold() {
    let flow = quick_flow(None);
    let model = NetArch::AlexNet.build(flow.config().model_seed);
    for mv in [10.0, 50.0] {
        let plan = flow
            .compression_for(VthShift::from_millivolts(mv))
            .expect("feasible");
        let parallel = flow.select_method(&model, plan).expect("completes");
        let serial = flow.select_method_serial(&model, plan).expect("completes");
        assert_eq!(parallel, serial, "divergence at {mv} mV");
    }
}

#[test]
fn model_outcomes_bit_identical_with_threshold_early_exit() {
    // A generous threshold exercises the serial early exit: the
    // parallel path must truncate its loss list to the same prefix.
    let flow = quick_flow(Some(100.0));
    let model = NetArch::AlexNet.build(flow.config().model_seed);
    let plan = flow
        .compression_for(VthShift::from_millivolts(10.0))
        .expect("feasible");
    let parallel = flow.select_method(&model, plan).expect("threshold met");
    let serial = flow
        .select_method_serial(&model, plan)
        .expect("threshold met");
    assert_eq!(parallel, serial);
    assert_eq!(parallel.method_losses.len(), 1, "early exit reproduced");
}

#[test]
fn threshold_unmet_error_agrees_between_paths() {
    let flow = quick_flow(Some(0.0));
    let model = NetArch::SqueezeNet11.build(flow.config().model_seed);
    let plan = flow
        .compression_for(VthShift::from_millivolts(50.0))
        .expect("feasible");
    let parallel = flow.select_method(&model, plan).unwrap_err();
    let serial = flow.select_method_serial(&model, plan).unwrap_err();
    assert_eq!(parallel, serial);
}

/// The flow's calibration memo holds one network: a call with another
/// network, or with the same network under other weights, calibrates
/// afresh instead of reading the memoized statistics and clips.
#[test]
fn select_method_memo_follows_the_model_it_is_given() {
    let flow = quick_flow(None);
    let seed = flow.config().model_seed;
    let models = [
        NetArch::AlexNet.build(seed),
        NetArch::SqueezeNet11.build(seed),
        NetArch::AlexNet.build(seed ^ 1),
        NetArch::AlexNet.build(seed),
    ];
    let plan = flow
        .compression_for(VthShift::from_millivolts(30.0))
        .expect("feasible");
    let outcomes: Vec<_> = models
        .iter()
        .map(|model| {
            let memoized = flow.select_method(model, plan).expect("completes");
            let serial = flow.select_method_serial(model, plan).expect("completes");
            assert_eq!(memoized, serial, "{}", model.name());
            memoized
        })
        .collect();
    assert_ne!(
        outcomes[0].method_losses, outcomes[2].method_losses,
        "reseeded weights must show in the losses for the check to bite"
    );
}

/// The `(α, β)` sequence a warm calibration context selects over, as
/// bit widths `W(8−β) A(8−α)`: W5A7, then W5A6 (a weight width already
/// searched with a new activation width), W7A6 (the reverse), W5A7
/// again (every clip memoized) and W4A4 (both widths new).
const WARM_SEQUENCE: [(u8, u8); 5] = [(1, 3), (2, 3), (2, 1), (1, 3), (4, 4)];

/// Selects over [`WARM_SEQUENCE`] on one context built by `flow`, and
/// checks each outcome bit for bit against `select_method` (on the
/// flow's own memoized context, warming alongside), a fresh context and
/// `select_method_serial`. Returns the warm outcomes.
fn warm_context_agrees_with_one_shot_paths(
    flow: &AgingAwareQuantizer,
    arch: NetArch,
) -> Vec<Result<agequant_core::ModelOutcome, agequant_core::FlowError>> {
    let model = arch.build(flow.config().model_seed);
    let mut context = flow.calibrate(Cow::Borrowed(&model));
    let base = flow
        .compression_for(VthShift::from_millivolts(10.0))
        .expect("feasible");
    WARM_SEQUENCE
        .iter()
        .map(|&(alpha, beta)| {
            let plan = CompressionPlan {
                compression: Compression::new(alpha, beta),
                ..base
            };
            let warm = flow.select_method_in(&mut context, plan);
            let memoized = flow.select_method(&model, plan);
            assert_eq!(warm, memoized, "({alpha}, {beta}): warm vs memoized");
            let fresh = flow.select_method_in(&mut flow.calibrate(Cow::Borrowed(&model)), plan);
            assert_eq!(warm, fresh, "({alpha}, {beta}): warm vs fresh");
            let serial = flow.select_method_serial(&model, plan);
            assert_eq!(warm, serial, "({alpha}, {beta}): warm vs serial");
            warm
        })
        .collect()
}

#[test]
fn warm_context_bit_identical_without_refinement() {
    let outcomes = warm_context_agrees_with_one_shot_paths(&quick_flow(None), NetArch::AlexNet);
    for outcome in outcomes {
        let outcome = outcome.expect("no threshold, so a method is selected");
        assert_eq!(outcome.method_losses.len(), QuantMethod::ALL.len());
    }
}

#[test]
fn warm_context_bit_identical_with_light_refinement() {
    let mut config = FlowConfig::edge_tpu_like();
    config.eval_samples = 20;
    config.calib_samples = 4;
    config.lapq = LapqRefineConfig::light();
    let flow = AgingAwareQuantizer::new(config).expect("valid config");
    let outcomes = warm_context_agrees_with_one_shot_paths(&flow, NetArch::SqueezeNet11);
    assert!(outcomes.iter().all(Result::is_ok));
}

#[test]
fn warm_context_bit_identical_with_threshold_early_exit() {
    let outcomes =
        warm_context_agrees_with_one_shot_paths(&quick_flow(Some(100.0)), NetArch::AlexNet);
    for outcome in outcomes {
        let outcome = outcome.expect("every method meets a 100% threshold");
        assert_eq!(outcome.method_losses.len(), 1, "early exit reproduced");
    }
}

#[test]
fn warm_context_threshold_unmet_agrees() {
    let outcomes =
        warm_context_agrees_with_one_shot_paths(&quick_flow(Some(0.0)), NetArch::SqueezeNet11);
    assert!(
        outcomes
            .iter()
            .any(|o| matches!(o, Err(agequant_core::FlowError::ThresholdUnmet { .. }))),
        "no bit width of the sequence left the threshold unmet: {outcomes:?}"
    );
}

/// The engine's caches are `RwLock`-protected and the engine itself is
/// `Send + Sync`: N threads hammering the same ΔVth grid through one
/// shared engine must produce plans bit-identical to a serial
/// single-threaded reference, and the cache must end up with exactly
/// one characterization per distinct level (no duplicated misses, no
/// torn entries).
#[test]
fn concurrent_threads_bit_identical_to_serial() {
    // Serial reference: a private flow, one thread, uncached path.
    let reference = flow();
    let clock = reference.fresh_critical_path_ps();
    let serial: Vec<_> = AGING_SWEEP_MV
        .iter()
        .map(|&mv| {
            reference
                .compression_for_constraint_serial(VthShift::from_millivolts(mv), clock)
                .expect("feasible")
        })
        .collect();

    // Shared flow: every thread walks the full grid through the same
    // engine, so threads race on library, load, and plan caches.
    let shared = Arc::new(flow());
    let threads: u64 = 8;
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let flow = Arc::clone(&shared);
            std::thread::spawn(move || {
                AGING_SWEEP_MV
                    .iter()
                    .map(|&mv| {
                        flow.compression_for(VthShift::from_millivolts(mv))
                            .expect("feasible")
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for handle in handles {
        let plans = handle.join().expect("worker thread completes");
        assert_eq!(plans, serial, "concurrent plans diverge from serial");
    }

    // Double-checked locking collapses racing library misses: each
    // sweep level is characterized exactly once no matter how many
    // threads race on it. Plan lookups are check-then-store, so racing
    // threads may both record a miss for the same key, but every
    // lookup is accounted for and at least one miss per level is real.
    let stats = shared.engine().stats();
    assert_eq!(
        stats.library_misses,
        AGING_SWEEP_MV.len() as u64,
        "{stats:?}"
    );
    let len = AGING_SWEEP_MV.len() as u64;
    assert_eq!(
        stats.plan_hits + stats.plan_misses,
        threads * len,
        "{stats:?}"
    );
    assert!(stats.plan_misses >= len, "{stats:?}");
}

/// Two degradation models sharing one engine must never share cache
/// entries: every cache key carries the model's `model_key`, and the
/// hit/miss counters are kept per model. This is the satellite
/// guarantee behind the per-model `/metrics` series and
/// `FleetSummary` split.
#[test]
fn models_share_an_engine_but_never_cache_entries() {
    use agequant_aging::{ModelSpec, TechProfile};
    use agequant_core::EvalEngine;

    let config = FlowConfig::edge_tpu_like();
    let engine = Arc::new(EvalEngine::new(config.process.clone()));
    let nbti = AgingAwareQuantizer::with_engine(config.clone(), Arc::clone(&engine))
        .expect("valid config");
    let mut hci_config = config;
    hci_config.model = Some(ModelSpec::hci(TechProfile::INTEL14NM, 1.0));
    let hci =
        AgingAwareQuantizer::with_engine(hci_config, Arc::clone(&engine)).expect("valid config");
    assert_eq!(nbti.model_key(), "nbti");
    assert_eq!(hci.model_key(), "hci");

    for &mv in &AGING_SWEEP_MV {
        let shift = VthShift::from_millivolts(mv);
        let a = nbti.compression_for(shift).expect("feasible");
        let b = hci.compression_for(shift).expect("feasible");
        // Both models run the paper's 14 nm profile, so their delay
        // deratings — and therefore the plans — agree; what must NOT
        // be shared is the cache traffic that produced them.
        assert_eq!(a, b, "same profile must plan identically at {mv} mV");
    }

    let by_model = engine.stats_by_model();
    assert_eq!(
        by_model.keys().cloned().collect::<Vec<_>>(),
        ["hci", "nbti"],
        "exactly the two models' counters exist"
    );
    let len = AGING_SWEEP_MV.len() as u64;
    for key in ["nbti", "hci"] {
        let stats = by_model[key];
        // Each model characterized every sweep level itself: no entry
        // was borrowed from the other model's cache.
        assert_eq!(stats.library_misses, len, "{key}: {stats:?}");
        assert_eq!(stats.plan_misses, len, "{key}: {stats:?}");
        assert_eq!(stats.plan_hits, 0, "{key}: {stats:?}");
    }
    // The aggregate view is exactly the sum of the two models.
    let total = engine.stats();
    assert_eq!(total.library_misses, 2 * len);
    assert_eq!(total.plan_misses, 2 * len);
}

/// Regression pin for the ±0.5 near-tie band of Algorithm 1's plan
/// selection: among feasible points within +0.5 of the minimal norm,
/// the balanced compression wins, then the smaller α, then the faster
/// padding. These selections are observable behavior (Table 2) — a
/// change to the band logic must show up here, not silently reshuffle
/// the paper's reproduction.
#[test]
fn near_tie_band_selection_is_pinned() {
    let flow = flow();
    let expect: [(f64, u8, u8, &str); 5] = [
        // At 10 mV the minimal-norm feasible point is the unbalanced
        // (1, 3): no balanced point lies within the +0.5 band below
        // √10, so the band falls through to the norm winner.
        (10.0, 1, 3, "MSB"),
        // From 20 mV on the band picks balanced (α, α) points.
        (20.0, 3, 3, "MSB"),
        (30.0, 3, 3, "MSB"),
        (40.0, 4, 4, "MSB"),
        (50.0, 4, 4, "MSB"),
    ];
    for (mv, alpha, beta, padding) in expect {
        let plan = flow
            .compression_for(VthShift::from_millivolts(mv))
            .expect("feasible");
        assert_eq!(
            (
                plan.compression.alpha(),
                plan.compression.beta(),
                plan.padding.name()
            ),
            (alpha, beta, padding),
            "selection changed at {mv} mV (got ({}, {}) {})",
            plan.compression.alpha(),
            plan.compression.beta(),
            plan.padding.name()
        );
    }
}
