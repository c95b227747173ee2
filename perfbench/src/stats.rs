//! Small statistics helpers: quantiles and report digests.

use std::fmt::{self, Debug, Write as _};

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (0 for an empty sample).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over the bytes written to it.
struct Fnv(u64);

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for byte in s.bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// A 64-bit digest of `value`'s `Debug` rendering, as 16 hex digits.  Two
/// runs print the same digest exactly when their reports render alike.
pub fn digest(value: &impl Debug) -> String {
    let mut hasher = Fnv(0xcbf2_9ce4_8422_2325);
    write!(hasher, "{value:?}").expect("hashing cannot fail");
    format!("{:016x}", hasher.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn digest_tracks_the_rendering() {
        assert_eq!(digest(&(1, "a")), digest(&(1, "a")));
        assert_ne!(digest(&(1, "a")), digest(&(2, "a")));
        assert_eq!(digest(&()).len(), 16);
    }
}
