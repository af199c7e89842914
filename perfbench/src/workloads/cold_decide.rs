//! The `cold-decide` phase: uncached Algorithm 1 decisions, closed loop, one
//! caller.
//!
//! Each seeded draw `(network, ΔVth bucket, constraint)` goes through
//! `Decider::decide_bucket_at` on deciders whose `FleetConfig.network`
//! is set, so every decision characterizes (or reuses) a cell library,
//! scans the (α, β) grid and selects a quantization method. Buckets
//! come from the workload's half of the 0–50 mV sweep. No key
//! repeats: half the draws open a bucket the decider has never seen,
//! the other half revisit an earlier bucket under a new constraint,
//! which separates gains from caching from gains from raw speed.

use std::time::Instant;

use agequant_fleet::{Decider, Decision, FleetConfig};
use agequant_nn::NetArch;
use serde::Value;

use super::{secs, Params, Stage};
use crate::affinity;
use crate::report::Outcome;
use crate::rng::Rng;
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;

/// The zoo subset decided over: the three networks whose method
/// selection is cheapest (about 50–100 ms each on the reference box),
/// so a phase of ten-odd seconds holds over a hundred decisions.
pub const NETWORKS: [NetArch; 3] = [NetArch::SqueezeNet11, NetArch::AlexNet, NetArch::Vgg13];
/// Bucket width, mV: 1 mV buckets give each network 26 distinct
/// buckets in either half of the 0–50 mV sweep, enough fresh ones for
/// a run.
pub const BUCKET_MV: f64 = 1.0;
/// Top bucket of the sweep.
pub const MAX_BUCKET: u64 = 50;
/// Constraint factors (× fresh critical path) are drawn from this
/// range. Every draw in it is feasible over the 0–50 mV sweep, so each
/// decision runs method selection and `decide.degrade_share` reads 0.
pub const CONSTRAINT_RANGE: (f64, f64) = (0.6, 1.2);
/// Setups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Draws re-decided on a fresh decider after the measured loop.
pub const RECHECKS: usize = 3;
/// Draws generated up front; the loop consumes them until time runs
/// out.
pub const DRAWS: usize = 4096;

/// One decision to make.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Draw {
    /// Index into [`NETWORKS`].
    pub net: usize,
    /// Aging bucket.
    pub bucket: u64,
    /// Constraint as a factor of the fresh critical path.
    pub factor: f64,
    /// Whether the bucket is new to this network's decider.
    pub fresh_bucket: bool,
}

/// The buckets `stage` draws from, first and last: the lower or the
/// upper half of the sweep. The first is the setup's warm-up bucket.
#[must_use]
pub fn buckets(stage: Stage) -> (u64, u64) {
    let (lo, hi) = stage.sweep_share();
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let at = |share: f64| (share * MAX_BUCKET as f64).round() as u64;
    (at(lo), at(hi))
}

/// The seeded draw sequence. Networks rotate in a shuffled order per
/// round; even rounds open a fresh bucket (while any is left), odd
/// rounds revisit one. The stage's first bucket is taken by the
/// setup's warm-up.
#[must_use]
pub fn draws(seed: u64, stage: Stage, count: usize) -> Vec<Draw> {
    let (first, last) = buckets(stage);
    let mut rng = Rng::new(seed, 0xC01D);
    let mut unused: Vec<Vec<u64>> = NETWORKS
        .iter()
        .map(|_| {
            let mut buckets: Vec<u64> = (first + 1..=last).collect();
            rng.shuffle(&mut buckets);
            buckets
        })
        .collect();
    let mut used: Vec<Vec<u64>> = NETWORKS.iter().map(|_| vec![first]).collect();
    let mut order: Vec<usize> = (0..NETWORKS.len()).collect();
    let mut out = Vec::with_capacity(count);
    let mut round = 0usize;
    while out.len() < count {
        rng.shuffle(&mut order);
        for &net in &order {
            let fresh = round.is_multiple_of(2) && !unused[net].is_empty();
            let bucket = if fresh {
                let bucket = unused[net].pop().expect("checked non-empty");
                used[net].push(bucket);
                bucket
            } else {
                #[allow(clippy::cast_possible_truncation)]
                let pick = rng.below(used[net].len() as u64) as usize;
                used[net][pick]
            };
            let factor = rng.range(CONSTRAINT_RANGE.0, CONSTRAINT_RANGE.1);
            out.push(Draw {
                net,
                bucket,
                factor,
                fresh_bucket: fresh,
            });
        }
        round += 1;
    }
    out.truncate(count);
    out
}

fn config(seed: u64, arch: NetArch) -> FleetConfig {
    let mut config = FleetConfig::new(1, seed);
    config.network = Some(arch);
    config.bucket_mv = BUCKET_MV;
    config
}

/// Builds one decider per network and warms each with a decision on
/// the stage's first bucket, which builds its evaluation model.
///
/// # Panics
///
/// Panics if a zoo network's configuration fails to build.
pub fn setup(seed: u64, stage: Stage, tracer: &mut Tracer) -> Vec<Decider> {
    let (warm_up, _) = buckets(stage);
    NETWORKS
        .iter()
        .map(|&arch| {
            let decider = tracer.span("core.flow_new", 0, || {
                Decider::from_config(&config(seed, arch)).expect("zoo network configs are valid")
            });
            decider
                .decide_bucket_at(warm_up, decider.constraint_ps())
                .expect("warm-up decision");
            decider
        })
        .collect()
}

fn constraint_ps(decider: &Decider, draw: &Draw) -> f64 {
    decider.flow().fresh_critical_path_ps() * draw.factor
}

/// A decision's output check: a plan must meet its constraint.
fn check(decision: &Decision, constraint_ps: f64) -> Result<(), String> {
    match decision {
        Decision::Plan(plan)
            if plan.plan.compressed_delay_ps > constraint_ps + 1e-9
                || plan.plan.constraint_ps.to_bits() != constraint_ps.to_bits() =>
        {
            Err(format!(
                "plan for bucket {} takes {} ps against a {constraint_ps} ps constraint",
                plan.bucket, plan.plan.compressed_delay_ps
            ))
        }
        _ => Ok(()),
    }
}

/// One untraced decision, timed and checked; `None` if it failed.
fn decide_one(
    deciders: &[Decider],
    draw: &Draw,
    outcome: &mut Outcome,
) -> Option<(Draw, Decision, f64)> {
    let decider = &deciders[draw.net];
    let constraint = constraint_ps(decider, draw);
    outcome.attempted += 1;
    let t = Instant::now();
    let decided = decider.decide_bucket_at(draw.bucket, constraint);
    let ms = secs(t) * 1e3;
    match decided {
        Ok(decision) => {
            if let Err(e) = check(&decision, constraint) {
                outcome.fail(e);
            }
            Some((*draw, decision, ms))
        }
        Err(e) => {
            outcome.fail(format!("decide: {e}"));
            None
        }
    }
}

/// The untraced closed loop over `draws` until `seconds` pass.
/// Returns each completed draw's decision and wall ms.
pub fn decide_loop(
    deciders: &[Decider],
    draws: &[Draw],
    seconds: f64,
    outcome: &mut Outcome,
) -> Vec<(Draw, Decision, f64)> {
    let start = Instant::now();
    draws
        .iter()
        .take_while(|_| secs(start) < seconds)
        .filter_map(|draw| decide_one(deciders, draw, outcome))
        .collect()
}

/// Each draw decided twice in a row until `seconds` pass: untraced on
/// `untraced` (the real call path), then stage by stage on `traced`,
/// so both halves of the comparison see the same machine conditions.
pub fn paired(
    untraced: &[Decider],
    traced: &[Decider],
    models: &[agequant_nn::Model],
    draws: &[Draw],
    seconds: f64,
    outcome: &mut Outcome,
) -> (Vec<(Draw, Decision, f64)>, Tracer) {
    let start = Instant::now();
    let mut tracer = Tracer::new(true);
    let mut done = Vec::new();
    for (op, draw) in draws.iter().enumerate() {
        if secs(start) >= seconds {
            break;
        }
        done.extend(decide_one(untraced, draw, outcome));
        traced_decision(
            &traced[draw.net],
            &models[draw.net],
            draw,
            op as u64,
            &mut tracer,
        );
    }
    (done, tracer)
}

/// Re-decides a seeded sample of completed draws on fresh deciders;
/// each must match the measured decision exactly.
fn recheck(seed: u64, done: &[(Draw, Decision, f64)], outcome: &mut Outcome) {
    if done.is_empty() {
        return;
    }
    let mut rng = Rng::new(seed, 0xC4EC);
    let mut fresh: Vec<Option<Decider>> = NETWORKS.iter().map(|_| None).collect();
    for _ in 0..RECHECKS.min(done.len()) {
        #[allow(clippy::cast_possible_truncation)]
        let (draw, decision, _) = &done[rng.below(done.len() as u64) as usize];
        let decider = fresh[draw.net].get_or_insert_with(|| {
            Decider::from_config(&config(seed, NETWORKS[draw.net])).expect("valid config")
        });
        outcome.attempted += 1;
        match decider.decide_bucket_at(draw.bucket, constraint_ps(decider, draw)) {
            Ok(again) if again == *decision => {}
            Ok(again) => outcome.fail(format!(
                "re-decided {draw:?} differently: {again:?} vs {decision:?}"
            )),
            Err(e) => outcome.fail(format!("re-decide: {e}")),
        }
    }
}

/// The traced decomposition of one draw: the public calls
/// `decide_bucket_at` makes, each in its own span under a `decide`
/// root — characterize, STA loads, the grid scan (plan-cache lookup,
/// feasible scan, plan selection) and method selection.
pub fn traced_decision(
    decider: &Decider,
    model: &agequant_nn::Model,
    draw: &Draw,
    op: u64,
    tracer: &mut Tracer,
) {
    let flow = decider.flow();
    let engine = flow.engine();
    let shift = decider.bucket_shift(draw.bucket);
    let constraint = constraint_ps(decider, draw);
    let root = tracer.enter("decide", op);
    let (characterize, loads) = if draw.fresh_bucket {
        ("cells.characterize", "sta.loads")
    } else {
        ("cells.characterize_hit", "sta.loads_hit")
    };
    tracer.span(characterize, op, || {
        std::hint::black_box(engine.library(flow.model_key(), flow.derating(), shift));
    });
    tracer.span(loads, op, || {
        std::hint::black_box(engine.sta_loads(
            flow.model_key(),
            flow.derating(),
            flow.mac().netlist(),
            shift,
        ));
    });
    let plan = tracer.span("sta.grid_scan", op, || {
        flow.compression_for_constraint(shift, constraint)
    });
    if let Ok(plan) = plan {
        tracer.span("quant.select_method", op, || {
            std::hint::black_box(flow.select_method(model, plan).ok())
        });
    }
    tracer.exit(root);
}

/// The stage spans under each `decide` root.
pub const STAGES: [&str; 6] = [
    "cells.characterize",
    "cells.characterize_hit",
    "sta.loads",
    "sta.loads_hit",
    "sta.grid_scan",
    "quant.select_method",
];

/// Sum of the stages' self times over the untraced `decide_bucket_at`
/// wall time of the same draws — near 1 when the stages account for
/// the whole decision.
#[must_use]
pub fn stage_sum_ratio(tracer: &Tracer, untraced_ms: f64) -> f64 {
    STAGES
        .iter()
        .map(|name| tracer.self_total_ms(name))
        .sum::<f64>()
        / untraced_ms.max(1e-9)
}

/// Runs the workload.
#[must_use]
pub fn run(params: &Params) -> Outcome {
    let mut outcome = Outcome::default();
    let draws = draws(params.seed, params.stage, DRAWS);
    // Every `par_iter` spawns its worker threads afresh; keeping the
    // CPUs from halting keeps those wake-ups from waiting on the host.
    let _awake = affinity::Awake::on(&affinity::allowed_cpus());
    if params.trace {
        return run_traced(params, &draws, outcome);
    }
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut deciders = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        deciders = setup(params.seed, params.stage, &mut Tracer::new(false));
        setups.push(secs(t));
    }
    let done = decide_loop(&deciders, &draws, params.seconds, &mut outcome);
    let loop_s: f64 = done.iter().map(|(_, _, ms)| ms / 1e3).sum();
    let ms = sorted(done.iter().map(|(_, _, ms)| *ms).collect());
    recheck(params.seed, &done, &mut outcome);
    outcome.e2e("setup_s", median(&setups).unwrap_or(f64::NAN), "s");
    outcome.e2e(
        "decide_p50_ms",
        percentile(&ms, 50.0).unwrap_or(f64::NAN),
        "ms",
    );
    outcome.e2e(
        "decide_p90_ms",
        percentile(&ms, 90.0).unwrap_or(f64::NAN),
        "ms",
    );
    #[allow(clippy::cast_precision_loss)]
    outcome.e2e(
        "decisions_per_s",
        done.len() as f64 / loop_s.max(1e-9),
        "1/s",
    );
    outcome.detail("decisions", Value::UInt(done.len() as u64));
    #[allow(clippy::cast_precision_loss)]
    let fresh =
        done.iter().filter(|(d, _, _)| d.fresh_bucket).count() as f64 / done.len().max(1) as f64;
    outcome.detail("fresh_bucket_share", Value::Float(fresh));
    outcome
}

fn run_traced(params: &Params, draws: &[Draw], mut outcome: Outcome) -> Outcome {
    let mut tracer = Tracer::new(true);
    let deciders = setup(params.seed, params.stage, &mut tracer);
    let flow_new_ms: f64 = tracer.durations_ms("core.flow_new").iter().sum();
    let models: Vec<agequant_nn::Model> = NETWORKS
        .iter()
        .map(|&arch| {
            tracer.span("nn.build", 0, || {
                arch.build(config(params.seed, arch).flow.model_seed)
            })
        })
        .collect();
    let build_ms: f64 = tracer.durations_ms("nn.build").iter().sum();

    let traced = setup(params.seed, params.stage, &mut Tracer::new(false));
    let (done, tracer) = paired(
        &deciders,
        &traced,
        &models,
        draws,
        params.seconds,
        &mut outcome,
    );
    let stats = deciders.iter().map(|d| d.flow().engine().stats()).fold(
        (0u64, 0u64, 0u64, 0u64),
        |acc, s| {
            (
                acc.0 + s.library_hits,
                acc.1 + s.library_misses,
                acc.2 + s.plan_hits,
                acc.3 + s.plan_misses,
            )
        },
    );
    let untraced_ms: f64 = done.iter().map(|(_, _, ms)| ms).sum();
    let traced_ms: f64 = tracer.durations_ms("decide").iter().sum();
    let p =
        |name: &str, q: f64| percentile(&sorted(tracer.durations_ms(name)), q).unwrap_or(f64::NAN);
    #[allow(clippy::cast_precision_loss)]
    let share = |n: usize| n as f64 / done.len().max(1) as f64;
    let ratio = |hits: u64, misses: u64| {
        #[allow(clippy::cast_precision_loss)]
        let r = hits as f64 / (hits + misses).max(1) as f64;
        r
    };
    outcome.layer("core.flow_new_ms", flow_new_ms, "ms");
    outcome.layer("nn.build_ms", build_ms, "ms");
    outcome.layer(
        "cells.characterize_us",
        p("cells.characterize", 50.0) * 1e3,
        "us",
    );
    outcome.layer("sta.loads_us", p("sta.loads", 50.0) * 1e3, "us");
    outcome.layer("sta.grid_scan_ms_p50", p("sta.grid_scan", 50.0), "ms");
    outcome.layer(
        "quant.select_method_ms_p50",
        p("quant.select_method", 50.0),
        "ms",
    );
    outcome.layer(
        "quant.select_method_ms_p90",
        p("quant.select_method", 90.0),
        "ms",
    );
    outcome.layer("engine.library_hit_ratio", ratio(stats.0, stats.1), "ratio");
    outcome.layer("engine.plan_hit_ratio", ratio(stats.2, stats.3), "ratio");
    let degrades = done
        .iter()
        .filter(|(_, d, _)| matches!(d, Decision::Degrade { .. }))
        .count();
    outcome.layer("decide.degrade_share", share(degrades), "ratio");
    let fresh = done.iter().filter(|(d, _, _)| d.fresh_bucket).count();
    outcome.detail("fresh_bucket_share", Value::Float(share(fresh)));
    outcome.layer(
        "decide.stage_sum_ratio",
        stage_sum_ratio(&tracer, untraced_ms),
        "ratio",
    );
    outcome.layer(
        "decide.trace_overhead_pct",
        (traced_ms / untraced_ms.max(1e-9) - 1.0) * 100.0,
        "%",
    );
    recheck(params.seed, &done, &mut outcome);
    outcome.detail("decisions", Value::UInt(done.len() as u64));
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic_per_seed() {
        for (_, stage) in Stage::ALL {
            assert_eq!(draws(5, stage, 300), draws(5, stage, 300));
            assert_ne!(draws(5, stage, 300), draws(6, stage, 300));
        }
        assert_ne!(draws(5, Stage::Early, 300), draws(5, Stage::Late, 300));
    }

    #[test]
    fn no_key_repeats_and_half_the_draws_open_a_bucket() {
        for (_, stage) in Stage::ALL {
            no_key_repeats_in(stage);
        }
    }

    fn no_key_repeats_in(stage: Stage) {
        let (first, last) = buckets(stage);
        let d = draws(9, stage, 120);
        let mut keys: Vec<(usize, u64, u64)> = d
            .iter()
            .map(|d| (d.net, d.bucket, d.factor.to_bits()))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(
            keys.len(),
            d.len(),
            "every (network, bucket, constraint) key is new"
        );
        assert_eq!(d.iter().filter(|d| d.fresh_bucket).count(), 60);
        for (net, _) in NETWORKS.iter().enumerate() {
            let mut fresh: Vec<u64> = d
                .iter()
                .filter(|d| d.net == net && d.fresh_bucket)
                .map(|d| d.bucket)
                .collect();
            let n = fresh.len();
            fresh.sort_unstable();
            fresh.dedup();
            assert_eq!(fresh.len(), n, "a fresh bucket is never drawn twice");
            assert!(
                !fresh.contains(&first),
                "the first bucket belongs to the warm-up"
            );
            assert!(fresh.iter().all(|b| (first..=last).contains(b)));
        }
    }
}
