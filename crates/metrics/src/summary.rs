//! Descriptive statistics over a sample of `f64` values: the exact-vector
//! reference the streaming aggregates are tested against.
//!
//! Compiled for tests only.  Production code streams samples into a
//! [`QuantileSketch`](crate::sketch::QuantileSketch); the sketch, zap and
//! admission tests check those against [`Summary::of`] and
//! [`Summary::quantile`] over the same sample.

/// Summary statistics of a (possibly empty) sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean (0 for an empty sample).
    pub mean: f64,
    /// Smallest value (0 for an empty sample).
    pub min: f64,
    /// Largest value (0 for an empty sample).
    pub max: f64,
    /// Population standard deviation (0 for an empty sample).
    pub stddev: f64,
}

impl Summary {
    /// Computes the summary of `values`, ignoring non-finite entries.
    ///
    /// Two passes (moments, then central moments) in sample order: the
    /// accumulation order the streaming aggregates reproduce bit for bit.
    pub fn of(values: &[f64]) -> Summary {
        let mut count = 0usize;
        let mut sum = 0.0f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &v in values {
            if v.is_finite() {
                count += 1;
                sum += v;
                min = min.min(v);
                max = max.max(v);
            }
        }
        if count == 0 {
            return Summary {
                count: 0,
                mean: 0.0,
                min: 0.0,
                max: 0.0,
                stddev: 0.0,
            };
        }
        let mean = sum / count as f64;
        let mut squared = 0.0f64;
        for &v in values {
            if v.is_finite() {
                squared += (v - mean).powi(2);
            }
        }
        let variance = squared / count as f64;
        Summary {
            count,
            mean,
            min,
            max,
            stddev: variance.sqrt(),
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1, clamped) of the finite entries of
    /// `values` by nearest rank; 0 for an empty sample.  Sorts a copy of
    /// the sample per call.
    pub fn quantile(values: &[f64], q: f64) -> f64 {
        let mut finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        if finite.is_empty() {
            return 0.0;
        }
        finite.sort_by(f64::total_cmp);
        let rank = ((finite.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
        finite[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarises_a_simple_sample() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.stddev - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_nonfinite_samples() {
        let empty = Summary::of(&[]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.mean, 0.0);

        let s = Summary::of(&[f64::NAN, 3.0, f64::INFINITY]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 3.0);
    }

    #[test]
    fn quantiles() {
        let values: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(Summary::quantile(&values, 0.0), 1.0);
        assert_eq!(Summary::quantile(&values, 1.0), 100.0);
        let median = Summary::quantile(&values, 0.5);
        assert!((median - 50.5).abs() <= 0.5, "median {median}");
        assert_eq!(Summary::quantile(&[], 0.5), 0.0);
        // Out-of-range quantiles clamp.
        assert_eq!(Summary::quantile(&values, 2.0), 100.0);
        assert_eq!(Summary::quantile(&values, -1.0), 1.0);
    }

    proptest::proptest! {
        /// The mean always lies between min and max, and stddev is
        /// non-negative.
        #[test]
        fn prop_mean_within_bounds(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let s = Summary::of(&values);
            proptest::prop_assert!(s.min <= s.mean + 1e-9);
            proptest::prop_assert!(s.mean <= s.max + 1e-9);
            proptest::prop_assert!(s.stddev >= 0.0);
            proptest::prop_assert_eq!(s.count, values.len());
        }
    }
}
