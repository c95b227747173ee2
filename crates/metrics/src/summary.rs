//! Descriptive statistics over a sample of `f64` values.

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
    /// Two streaming passes (moments, then central moments) — no
    /// intermediate sample copy, zero heap allocation.  The accumulation
    /// order matches the historical collect-then-fold implementation
    /// operation for operation, so results are bitwise identical.
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

    /// The `q`-quantile (0 ≤ q ≤ 1) of `values` using nearest-rank on the
    /// sorted finite sample; 0 for an empty sample.
    ///
    /// Sorts a copy of the sample per call; callers that need more than one
    /// quantile of the same sample should build a [`SortedSample`] once (or
    /// stream into a [`QuantileSketch`](crate::sketch::QuantileSketch)) —
    /// both answer repeated quantile queries without allocating.
    pub fn quantile(values: &[f64], q: f64) -> f64 {
        SortedSample::from_values(values).quantile(q)
    }
}

/// A sample sorted **once** at construction; every subsequent
/// [`quantile`](SortedSample::quantile) call is an O(1) lookup with zero
/// heap allocation (the fix for the clone-and-sort-per-call percentile
/// path, asserted by the counting-allocator regression test in
/// `fss-bench`).
#[derive(Debug, Clone, PartialEq)]
pub struct SortedSample {
    values: Vec<f64>,
}

impl SortedSample {
    /// Filters the finite entries of `values` and sorts them ascending —
    /// the only allocation and the only sort this sample will ever do.
    pub fn from_values(values: &[f64]) -> SortedSample {
        let mut finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        finite.sort_by(f64::total_cmp);
        SortedSample { values: finite }
    }

    /// Number of (finite) samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1, clamped) by nearest rank; 0 for an
    /// empty sample.  Never allocates.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((self.values.len() as f64 - 1.0) * q).round() as usize;
        self.values[rank]
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

    #[test]
    fn sorted_sample_answers_repeated_quantiles() {
        let values: Vec<f64> = (1..=100).rev().map(|v| v as f64).collect();
        let sorted = SortedSample::from_values(&values);
        assert_eq!(sorted.len(), 100);
        assert!(!sorted.is_empty());
        for q in [0.0, 0.25, 0.5, 0.95, 1.0] {
            assert_eq!(sorted.quantile(q), Summary::quantile(&values, q));
        }
        let empty = SortedSample::from_values(&[f64::NAN]);
        assert!(empty.is_empty());
        assert_eq!(empty.quantile(0.5), 0.0);
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
