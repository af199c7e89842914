//! Speed floors of the evaluation engine at the end-of-life aging
//! level, where the `(α, β)` grid scan is most expensive.
//!
//! Both floors are ratios against the uncached serial reference scan
//! measured in the same process, so they hold on any machine:
//!
//! - a warm `compression_for` (Algorithm 1 lines 2–5 as the flow
//!   invokes them, answered from the plan cache) is at least 3× faster
//!   than `compression_for_constraint_serial`;
//! - the same warm query stays at least 100× under one uncached scan.
//!   The engine's caches sit behind `agequant_check::sync` locks, which
//!   in a normal build re-export `std::sync`; if instrumented
//!   primitives ever leaked into that build, the warm path would slow
//!   by orders of magnitude.
//!
//! This file holds a single test, so no sibling test competes for the
//! cores while it times.

use std::hint::black_box;
use std::time::{Duration, Instant};

use agequant_aging::VthShift;
use agequant_core::{AgingAwareQuantizer, FlowConfig};

const EOL_MV: f64 = 50.0;

#[test]
fn warm_queries_clear_the_speedup_floors_over_the_serial_scan() {
    let eol = VthShift::from_millivolts(EOL_MV);
    let flow = AgingAwareQuantizer::new(FlowConfig::edge_tpu_like()).expect("valid config");

    // One uncached serial reference scan: the mean of 3 calls.
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

    // The warm query: one call fills the caches, then the mean of
    // 100,000 cache hits.
    black_box(flow.compression_for(eol).expect("feasible"));
    let warm_iters = 100_000u32;
    let start = Instant::now();
    for _ in 0..warm_iters {
        black_box(flow.compression_for(eol).expect("feasible"));
    }
    let warm = (start.elapsed() / warm_iters).max(Duration::from_nanos(1));

    let ratio = serial.as_secs_f64() / warm.as_secs_f64();
    assert!(
        ratio >= 3.0,
        "engine speedup {ratio:.2}× (serial {serial:?}, warm {warm:?}) below the 3× floor"
    );
    assert!(
        ratio >= 100.0,
        "warm facade-wrapped query ({warm:?}/call) is only {ratio:.0}× under an uncached \
         scan ({serial:?}); the std-mode facade is supposed to be zero-overhead"
    );
}
