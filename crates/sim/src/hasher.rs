//! Deterministic, allocation-free hashing for the hot path.
//!
//! `std::collections::HashMap`'s default `RandomState` is seeded per process,
//! which is fine for correctness but (a) costs a SipHash round per lookup on
//! a path that does millions of membership probes per simulated second and
//! (b) makes iteration order differ between runs.  The simulator never relies
//! on map iteration order for results, but a fixed multiplicative hasher
//! makes replay traces byte-identical and measurably faster.
//!
//! This lives in `fss-sim` — below every other workspace crate — so that the
//! whole stack (trace parsing included) can use the same deterministic
//! collections; `fss_gossip::hasher` re-exports it for the historical path.
//! The root `clippy.toml` lists `HashMap` and `HashSet` as
//! `disallowed-types` (rule FSS001), so workspace code reaches for these
//! aliases; their two definitions are the only waived uses.

use std::hash::{BuildHasherDefault, Hasher};

/// Fibonacci-multiply hasher for small integer keys (FxHash-style).
#[derive(Debug, Default, Clone)]
pub struct FxHasher64 {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher64 {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u32(&mut self, value: u32) {
        self.write_u64(value as u64);
    }

    fn write_u64(&mut self, value: u64) {
        self.state = (self.state.rotate_left(5) ^ value).wrapping_mul(SEED);
    }

    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }
}

/// `BuildHasher` producing [`FxHasher64`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher64>;

/// A `HashMap` keyed with the deterministic hasher.
#[expect(
    clippy::disallowed_types,
    reason = "the one sanctioned `HashMap`: its hasher is the fixed `FxBuildHasher`"
)]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the deterministic hasher.
#[expect(
    clippy::disallowed_types,
    reason = "the one sanctioned `HashSet`: its hasher is the fixed `FxBuildHasher`"
)]
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FxHashMap::default();
        let mut b = FxHashMap::default();
        for i in 0..1000u64 {
            a.insert(i, i * 3);
            b.insert(i, i * 3);
        }
        assert_eq!(a.len(), 1000);
        // Iteration order is a function of the keys alone (fixed hasher).
        let ka: Vec<u64> = a.keys().copied().collect();
        let kb: Vec<u64> = b.keys().copied().collect();
        assert_eq!(ka, kb);
        assert_eq!(a.get(&999), Some(&2997));
    }

    #[test]
    fn set_alias_shares_the_hasher() {
        let mut a = FxHashSet::default();
        for i in 0..1000u64 {
            a.insert(i);
        }
        // Iteration order is a function of the keys alone (fixed hasher).
        let ka: Vec<u64> = a.iter().copied().collect();
        let kb: Vec<u64> = FxHashSet::from_iter(0..1000u64).iter().copied().collect();
        assert_eq!(ka, kb);
        assert!(a.contains(&999) && !a.contains(&1000));
    }
}
