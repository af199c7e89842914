//! The slice-by-16 CRC-32 against the bytewise reference it replaced.
//!
//! The reference below is the textbook one-lookup-per-byte loop over
//! the reflected IEEE polynomial `0xEDB8_8320`. The library kernel
//! folds 16-byte blocks through 16 tables and finishes the sub-block
//! tail bytewise, so every length modulo 16, every alignment of the
//! input, and every split of a streaming update must agree with it.

use agequant_fleet::{crc32, Crc32};
use proptest::prelude::*;

/// The bytewise CRC-32 (IEEE): the reference the kernel must match.
fn reference_crc32(bytes: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, entry) in (0u32..).zip(table.iter_mut()) {
        let mut c = i;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *entry = c;
    }
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// A deterministic, non-repeating test buffer.
fn buffer(len: usize) -> Vec<u8> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x.to_le_bytes()[3]
        })
        .collect()
}

#[test]
fn matches_the_ieee_check_value() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(reference_crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
}

#[test]
fn matches_the_bytewise_reference_at_every_length_and_offset() {
    let buf = buffer(16 + 257);
    for offset in 0..16 {
        for len in 0..=257 {
            let bytes = &buf[offset..offset + len];
            assert_eq!(
                crc32(bytes),
                reference_crc32(bytes),
                "offset {offset}, length {len}"
            );
        }
    }
}

#[test]
fn a_streaming_update_split_anywhere_equals_the_one_shot_crc() {
    let buf = buffer(300);
    let whole = crc32(&buf);
    for split in 0..=buf.len() {
        let mut crc = Crc32::new();
        crc.update(&buf[..split]);
        crc.update(&buf[split..]);
        assert_eq!(crc.finish(), whole, "split at {split}");
    }
    // Byte-at-a-time feeding never reaches the block path at all.
    let mut crc = Crc32::default();
    for byte in buf.chunks(1) {
        crc.update(byte);
    }
    assert_eq!(crc.finish(), whole);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_buffers_match_the_reference(
        bytes in prop::collection::vec(any::<u8>(), 0..2048),
        split in 0usize..2048,
    ) {
        prop_assert_eq!(crc32(&bytes), reference_crc32(&bytes));
        let split = split.min(bytes.len());
        let mut crc = Crc32::new();
        crc.update(&bytes[..split]);
        crc.update(&bytes[split..]);
        prop_assert_eq!(crc.finish(), reference_crc32(&bytes));
    }
}
