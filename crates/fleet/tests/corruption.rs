//! What a damaged `AGQFLEET` frame decodes to.
//!
//! Two guarantees, over real frames:
//!
//! - Bit rot anywhere in the payload or the stored checksum is caught
//!   by the CRC, whichever lane of the kernel's 16-byte blocks (or its
//!   bytewise tail) the damaged byte falls in.
//! - Past the checksum, the parser turns any byte sequence into either
//!   a typed [`FleetError`] or a state that re-encodes to exactly the
//!   bytes it was decoded from. Payload mutations re-stamp the CRC so
//!   they reach the parser instead of stopping at the checksum.

use std::sync::OnceLock;

use agequant_autopilot::AutopilotConfig;
use agequant_fleet::{crc32, CorruptKind, FleetConfig, FleetError, FleetSim, FleetState};
use proptest::prelude::*;

/// Frame header: magic + version + payload length.
const HEADER_LEN: usize = 8 + 4 + 8;

/// A small format-4 frame: an autopilot fleet a few epochs in, so the
/// budget ledger and every per-chip pilot record are present.
fn format_4_frame() -> &'static [u8] {
    static FRAME: OnceLock<Vec<u8>> = OnceLock::new();
    FRAME.get_or_init(|| {
        let mut config = FleetConfig::new(4, 31);
        config.epoch_years = 2.0;
        config.autopilot = Some(AutopilotConfig::demo());
        let mut sim = FleetSim::new(config).expect("valid config");
        sim.run(5).expect("simulates");
        let frame = sim.checkpoint_binary().expect("encodes");
        assert_eq!(u32::from_le_bytes(frame[8..12].try_into().unwrap()), 4);
        frame
    })
}

/// The committed format-2 frame from before the memory axis existed.
const PRE_MEM_FRAME: &[u8] = include_bytes!("fixtures/pre-mem-state.bin");

/// Recomputes the stored CRC over the payload, as an honest writer of
/// the mutated payload would have.
fn restamp(frame: &mut [u8]) {
    let crc_at = frame.len() - 4;
    let crc = crc32(&frame[HEADER_LEN..crc_at]);
    frame[crc_at..].copy_from_slice(&crc.to_le_bytes());
}

/// The decoder's contract on arbitrary bytes: a typed error, or a
/// state whose encoding is exactly the input.
fn decodes_to_error_or_itself(bytes: &[u8]) {
    match FleetState::from_binary(bytes) {
        Err(_) => {}
        Ok(state) => {
            let again = state.to_binary().expect("a decoded state re-encodes");
            let first_difference = again.iter().zip(bytes).position(|(a, b)| a != b);
            assert!(
                again == bytes,
                "a {}-byte frame decoded to a state that re-encodes to {} bytes, \
                 first differing at byte {first_difference:?}",
                bytes.len(),
                again.len()
            );
        }
    }
}

#[test]
fn every_flipped_payload_or_checksum_bit_is_a_checksum_mismatch() {
    let frame = format_4_frame();
    FleetState::from_binary(frame).expect("intact frame decodes");
    let payload = HEADER_LEN..frame.len() - 4;
    // Every payload byte, so every lane of every 16-byte block and
    // every byte of the remainder tail, with the flipped bit rotating
    // through all eight positions; then each byte of the stored CRC.
    for (k, at) in payload.chain(frame.len() - 4..frame.len()).enumerate() {
        let mut rotten = frame.to_vec();
        rotten[at] ^= 1 << (k % 8);
        assert!(
            matches!(
                FleetState::from_binary(&rotten),
                Err(FleetError::Corrupt(CorruptKind::ChecksumMismatch { .. }))
            ),
            "a bit flip at byte {at} of {} was not caught by the CRC",
            frame.len()
        );
    }
}

#[test]
fn intact_frames_satisfy_the_decoder_contract() {
    decodes_to_error_or_itself(format_4_frame());
    decodes_to_error_or_itself(PRE_MEM_FRAME);
    FleetState::from_binary(PRE_MEM_FRAME).expect("the committed fixture decodes");
}

/// One random damage to a frame.
#[derive(Debug, Clone, Copy)]
enum Damage {
    /// Overwrite payload bytes, then re-stamp the CRC.
    Payload { count: usize },
    /// Overwrite bytes anywhere (header, payload or CRC), no re-stamp.
    Anywhere { count: usize },
    /// Keep only a prefix of the frame.
    Truncate,
}

fn damage() -> impl Strategy<Value = Damage> {
    prop::sample::select(vec![
        Damage::Payload { count: 1 },
        Damage::Payload { count: 1 },
        Damage::Payload { count: 1 },
        Damage::Payload { count: 3 },
        Damage::Anywhere { count: 1 },
        Damage::Truncate,
    ])
}

/// Applies `damage` to `frame` at the drawn positions (reduced modulo
/// the span they address) with the drawn byte values.
fn apply(frame: &[u8], damage: Damage, positions: &[usize], values: &[u8]) -> Vec<u8> {
    let mut out = frame.to_vec();
    let picks = positions.iter().zip(values);
    match damage {
        Damage::Payload { count } => {
            let payload_len = frame.len() - HEADER_LEN - 4;
            for (at, &value) in picks.take(count) {
                out[HEADER_LEN + at % payload_len] = value;
            }
            restamp(&mut out);
        }
        Damage::Anywhere { count } => {
            for (at, &value) in picks.take(count) {
                out[at % frame.len()] = value;
            }
        }
        Damage::Truncate => out.truncate(positions[0] % frame.len()),
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn a_mutated_format_4_frame_is_an_error_or_itself(
        damage in damage(),
        positions in prop::collection::vec(0usize..1 << 20, 3..4),
        values in prop::collection::vec(any::<u8>(), 3..4),
    ) {
        decodes_to_error_or_itself(&apply(format_4_frame(), damage, &positions, &values));
    }

    #[test]
    fn a_mutated_pre_memory_fixture_is_an_error_or_itself(
        damage in damage(),
        positions in prop::collection::vec(0usize..1 << 20, 3..4),
        values in prop::collection::vec(any::<u8>(), 3..4),
    ) {
        decodes_to_error_or_itself(&apply(PRE_MEM_FRAME, damage, &positions, &values));
    }
}
