//! The fleet's checkpointable random-number generator.
//!
//! Checkpoint/restore must reproduce a run bit for bit, which requires
//! serializing the generator state — something the workspace's `rand`
//! shim deliberately keeps private. [`FleetRng`] is therefore a
//! self-contained xoshiro256** (the same algorithm family) whose four
//! state words are checkpointed with the rest of [`FleetState`].
//!
//! [`FleetState`]: crate::FleetState

use serde::Deserialize;

/// A checkpointable xoshiro256** generator seeded through SplitMix64.
///
/// Identical seeding and stepping to the vendored `rand` shim's
/// `StdRng`, but with the state exposed ([`FleetRng::state_words`],
/// and `Deserialize` for legacy JSON checkpoints) so a restored
/// checkpoint continues the exact sequence the original run would
/// have produced.
#[derive(Debug, Clone, PartialEq, Eq, Deserialize)]
pub struct FleetRng {
    s: [u64; 4],
}

/// SplitMix64 step: expands a 64-bit seed into well-distributed words.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FleetRng {
    /// Builds the generator from a 64-bit seed.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = splitmix64(&mut sm);
        }
        if s == [0; 4] {
            // All-zero state is a fixed point of xoshiro; SplitMix64
            // cannot produce it, but guard anyway.
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        FleetRng { s }
    }

    /// Whether the state is the degenerate all-zero fixed point (a
    /// corrupted checkpoint; a healthy generator can never reach it).
    #[must_use]
    pub fn is_degenerate(&self) -> bool {
        self.s == [0; 4]
    }

    /// The four raw state words, for binary checkpoint encoding.
    #[must_use]
    pub fn state_words(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds the generator from raw state words (the inverse of
    /// [`FleetRng::state_words`]); used by binary checkpoint decoding.
    #[must_use]
    pub fn from_state_words(s: [u64; 4]) -> Self {
        FleetRng { s }
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform draw from `[lo, hi)` with 53-bit precision.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + (hi - lo) * u
    }

    /// A uniform index in `[0, n)` by unbiased rejection sampling.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty index range");
        let bound = n as u64;
        if bound.is_power_of_two() {
            return (self.next_u64() & (bound - 1)) as usize;
        }
        let zone = u64::MAX - (u64::MAX - bound + 1) % bound;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return (v % bound) as usize;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = FleetRng::seed_from_u64(42);
        let mut b = FleetRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(
            FleetRng::seed_from_u64(1).next_u64(),
            FleetRng::seed_from_u64(2).next_u64()
        );
    }

    #[test]
    fn legacy_json_state_continues_the_stream() {
        let mut rng = FleetRng::seed_from_u64(7);
        for _ in 0..10 {
            rng.next_u64();
        }
        let json = format!("{{\"s\":{:?}}}", rng.state_words());
        let mut restored: FleetRng = serde_json::from_str(&json).expect("deserializes");
        for _ in 0..100 {
            assert_eq!(rng.next_u64(), restored.next_u64());
        }
    }

    #[test]
    fn draws_respect_bounds() {
        let mut rng = FleetRng::seed_from_u64(3);
        for _ in 0..1000 {
            let f = rng.uniform(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&f));
            let i = rng.index(7);
            assert!(i < 7);
        }
    }

    #[test]
    fn fresh_state_is_not_degenerate() {
        assert!(!FleetRng::seed_from_u64(0).is_degenerate());
    }

    #[test]
    fn state_words_round_trip_continues_the_stream() {
        let mut rng = FleetRng::seed_from_u64(99);
        for _ in 0..17 {
            rng.next_u64();
        }
        let mut restored = FleetRng::from_state_words(rng.state_words());
        for _ in 0..100 {
            assert_eq!(rng.next_u64(), restored.next_u64());
        }
    }
}
