//! Traced stage self times must account for the untraced wall time of
//! the same work, within 10%: on uncached decisions and on the
//! checkpoint cycle.

use agequant_fleet::FleetSim;
use agequant_perfbench::report::Outcome;
use agequant_perfbench::stats::median;
use agequant_perfbench::trace::Tracer;
use agequant_perfbench::workloads::{cold_decide, fleet_lifetime, Stage};

/// The two tests time CPU-bound work; run concurrently, each would
/// slow one half of the other's comparison.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn decision_stages_sum_to_the_untraced_decision_time() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let draws = cold_decide::draws(3, Stage::Late, 12);
    let untraced = cold_decide::setup(3, Stage::Late, &mut Tracer::new(false));
    let traced = cold_decide::setup(3, Stage::Late, &mut Tracer::new(false));
    let models: Vec<_> = cold_decide::NETWORKS
        .iter()
        .zip(&traced)
        .map(|(arch, decider)| arch.build(decider.config().flow.model_seed))
        .collect();
    let mut outcome = Outcome::default();
    let (done, tracer) = cold_decide::paired(
        &untraced,
        &traced,
        &models,
        &draws,
        f64::INFINITY,
        &mut outcome,
    );
    assert_eq!((done.len(), outcome.failed), (12, 0));
    let untraced_ms: f64 = done.iter().map(|(_, _, ms)| ms).sum();
    let ratio = cold_decide::stage_sum_ratio(&tracer, untraced_ms);
    assert!(
        (0.9..=1.1).contains(&ratio),
        "decision stages cover {ratio:.3} of the wall time"
    );
}

#[test]
fn checkpoint_stages_sum_to_the_untraced_cycle_time() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let dir = std::env::temp_dir().join(format!("perfbench-stage-sums-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("fleet.agq");
    let mut sim = FleetSim::new_sharded(fleet_lifetime::config(5, Stage::Late, 50_000), 2)
        .expect("fleet builds");
    sim.run(4).expect("fleet steps");
    let cycle_ms = |tracer: &mut Tracer| -> f64 {
        let (cycle, _) = fleet_lifetime::checkpoint_cycle(&sim, &path, 0, tracer).expect("cycle");
        (cycle.save() + cycle.load()) * 1e3
    };
    let untraced: Vec<f64> = (0..5).map(|_| cycle_ms(&mut Tracer::new(false))).collect();
    let traced: Vec<f64> = (0..5)
        .map(|_| {
            let mut tracer = Tracer::new(true);
            cycle_ms(&mut tracer);
            fleet_lifetime::checkpoint_stage_sum_ratio(&tracer, 1.0)
        })
        .collect();
    let ratio = median(&traced).expect("five cycles") / median(&untraced).expect("five cycles");
    std::fs::remove_dir_all(&dir).expect("clean up");
    assert!(
        (0.9..=1.1).contains(&ratio),
        "checkpoint stages cover {ratio:.3} of the wall time"
    );
}
