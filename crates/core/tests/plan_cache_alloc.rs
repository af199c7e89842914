//! A plan-cache hit must not allocate: the fleet's closed-loop epoch
//! serves hundreds of thousands of them per lifetime on its serial
//! decision spine. A counting global allocator counts the allocations
//! made on this test's thread while it reads warm entries.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use agequant_aging::VthShift;
use agequant_cells::ProcessLibrary;
use agequant_core::{CompressionPlan, EvalEngine};
use agequant_sta::{Compression, Padding};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call forwards to `System` unchanged; the only addition
// is a const-initialized thread-local counter, which neither allocates
// nor panics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn plan(shift: VthShift, constraint_ps: f64) -> CompressionPlan {
    CompressionPlan {
        shift,
        compression: Compression::new(3, 2),
        padding: Padding::Msb,
        compressed_delay_ps: constraint_ps * 0.9,
        constraint_ps,
        feasible_points: 5,
    }
}

#[test]
fn plan_cache_hits_allocate_nothing() {
    let engine = EvalEngine::new(ProcessLibrary::finfet14nm());
    let levels: Vec<(VthShift, f64)> = (0..8)
        .map(|k| {
            (
                VthShift::from_millivolts(f64::from(k) * 10.0),
                400.0 + f64::from(k),
            )
        })
        .collect();
    for model in ["nbti", "hci"] {
        for &(shift, constraint) in &levels {
            engine.store_plan(model, shift, constraint, plan(shift, constraint));
        }
    }

    // A model's counters may be created on its first lookup.
    for model in ["nbti", "hci"] {
        assert!(engine
            .cached_plan(model, levels[0].0, levels[0].1)
            .is_some());
    }

    COUNTING.with(|c| c.set(true));
    let mut served = 0;
    for _ in 0..100 {
        for model in ["nbti", "hci"] {
            for &(shift, constraint) in &levels {
                let hit = engine.cached_plan(model, shift, constraint);
                served += usize::from(hit == Some(plan(shift, constraint)));
            }
        }
    }
    COUNTING.with(|c| c.set(false));

    assert_eq!(served, 1600, "every lookup hits its own entry");
    assert_eq!(ALLOCATIONS.with(Cell::get), 0, "plan-cache hits allocated");
    // A miss still misses, per model and per key.
    assert_eq!(
        engine.cached_plan("hci", VthShift::from_millivolts(90.0), 400.0),
        None
    );
    assert_eq!(
        engine.cached_plan("surrogate", levels[0].0, levels[0].1),
        None
    );
    let stats = engine.stats_by_model();
    assert_eq!(stats["nbti"].plan_hits, 801);
    assert_eq!(stats["hci"].plan_misses, 1);
}
