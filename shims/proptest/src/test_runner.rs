//! Test configuration, deterministic RNG, and case errors.

use std::fmt;

/// Per-`proptest!` block configuration.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Runs `cases` generated inputs per test.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Upstream defaults to 256; 64 keeps the lossy end-to-end
        // properties (which spin real threads per case) inside a
        // reasonable tier-1 budget while still exploring the space.
        Self { cases: 64 }
    }
}

/// Why a single generated case failed.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// The property did not hold.
    Fail(String),
    /// The input was rejected (unused here, kept for API parity).
    Reject(String),
}

impl TestCaseError {
    /// A property violation with the given message.
    #[must_use]
    pub fn fail(reason: impl Into<String>) -> Self {
        Self::Fail(reason.into())
    }

    /// An input rejection with the given message.
    #[must_use]
    pub fn reject(reason: impl Into<String>) -> Self {
        Self::Reject(reason.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Fail(m) => write!(f, "{m}"),
            Self::Reject(m) => write!(f, "input rejected: {m}"),
        }
    }
}

impl std::error::Error for TestCaseError {}

/// Shorthand used by generated test bodies.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Deterministic generator: xoshiro256++ seeded from the test's name, so
/// every run of a given test explores the same inputs (reproducible
/// failures without a regression-persistence file).
#[derive(Clone, Debug)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Seeds from an arbitrary string (the macro passes
    /// `module_path!() :: test_name`).
    #[must_use]
    pub fn deterministic(name: &str) -> Self {
        // FNV-1a folds the name into a 64-bit seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Self::from_seed(h)
    }

    /// Seeds directly from a 64-bit value via SplitMix64 expansion.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = TestRng::deterministic("x::y");
        let mut b = TestRng::deterministic("x::y");
        let mut c = TestRng::deterministic("x::z");
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn range_strategies_stay_in_bounds() {
        let mut rng = TestRng::from_seed(1);
        for _ in 0..1000 {
            let v = (10u32..20).generate(&mut rng);
            assert!((10..20).contains(&v));
            let w = (1u8..=255).generate(&mut rng);
            assert!(w >= 1);
        }
    }

    #[test]
    fn regex_subset_generates_in_class() {
        let mut rng = TestRng::from_seed(2);
        for _ in 0..200 {
            let s = "[A-Za-z0-9@._-]{1,24}".generate(&mut rng);
            assert!(!s.is_empty() && s.len() <= 24);
            assert!(s
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "@._-".contains(c)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro pipeline itself: args, ranges, vec, tuples, asserts.
        #[test]
        fn macro_smoke(a in 0u64..100, v in crate::collection::vec(any::<u8>(), 0..8),
                       t in (0u32..4, any::<bool>())) {
            prop_assert!(a < 100);
            prop_assert!(v.len() < 8);
            prop_assert_eq!(t.0 < 4, true);
            prop_assert_ne!(a, 100);
        }
    }
}
