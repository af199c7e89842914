//! A binary checkpoint whose counts lie must fail as a typed error
//! without first reserving memory for the records it claims. A
//! counting global allocator records the largest single request made
//! while the decoder runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use agequant_fleet::{crc32, FleetConfig, FleetError, FleetSim};

struct LargestRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the only addition
// is a relaxed atomic update, which neither allocates nor panics.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

/// Frame header: magic + version + payload length.
const HEADER_LEN: usize = 8 + 4 + 8;

#[test]
fn a_lying_chip_count_is_a_typed_error_without_a_huge_reservation() {
    let mut config = FleetConfig::new(12, 31);
    config.epoch_years = 2.0;
    let mut sim = FleetSim::new(config).expect("valid config");
    sim.run(3).expect("simulates");
    let mut frame = sim.to_state().to_binary().expect("encodes");
    assert_eq!(
        u32::from_le_bytes(frame[8..12].try_into().unwrap()),
        2,
        "a plain fleet saves format-2 frames"
    );

    // The chip count follows the config JSON, the epoch and the four
    // RNG state words; overwrite it with 2^40 and re-seal the CRC.
    let config_len =
        u32::from_le_bytes(frame[HEADER_LEN..HEADER_LEN + 4].try_into().unwrap()) as usize;
    let count_at = HEADER_LEN + 4 + config_len + 8 + 32;
    frame[count_at..count_at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    let crc_at = frame.len() - 4;
    let crc = crc32(&frame[HEADER_LEN..crc_at]);
    frame[crc_at..].copy_from_slice(&crc.to_le_bytes());

    LARGEST.store(0, Ordering::Relaxed);
    let result = agequant_fleet::FleetState::from_binary(&frame);
    let largest = LARGEST.load(Ordering::Relaxed);

    assert!(
        matches!(result, Err(FleetError::Malformed(_))),
        "expected a typed Malformed error, got {result:?}"
    );
    assert!(
        largest < 1 << 20,
        "decoding a {}-byte frame requested a {largest}-byte allocation",
        frame.len()
    );
}
