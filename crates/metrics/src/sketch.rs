//! Mergeable fixed-size quantile sketches for streaming metric aggregation.
//!
//! Per-event metric vectors (`Vec<f64>` of zap latencies, admission delays,
//! …) grow O(events) and force report-time sorts; at the ROADMAP's
//! million-peer scale they dominate report memory.  A [`QuantileSketch`] is
//! the O(1)-memory replacement: a fixed array of counting buckets that every
//! producer (a channel, a shard) folds its observations into locally, plus a
//! deterministic merge so partial sketches combine at report time in any
//! grouping.
//!
//! # Determinism and exactness
//!
//! The sketch state is *only* `(unit, bucket counts, count, min, max)` — no
//! running floating-point sum.  Mean, sum and quantiles are derived from the
//! buckets in a fixed ascending walk at query time, so
//! [`merge_from`](QuantileSketch::merge_from) is an elementwise `u64` add
//! plus `f64::min`/`f64::max` — exactly associative and commutative.  Fold
//! left, fold right or tree-merge: the merged sketch is bitwise identical
//! (asserted by the property tests below).
//!
//! Samples that land on the sketch's *tick grid* (integer multiples of
//! `unit`, up to [`LINEAR_BUCKETS`] ticks) are represented **exactly**: the
//! derived mean, min, max and every nearest-rank quantile equal the values a
//! sort-the-whole-sample path would produce, bit for bit.  The
//! period-synchronous simulator emits exactly such values (every latency and
//! delay is `k · τ`), which is what lets the pinned golden-report digests
//! survive the switch from vectors to sketches.  Off-grid samples in the
//! linear range are quantized to the nearest tick (absolute error ≤
//! `unit / 2`); samples beyond the linear range fall into geometric overflow
//! buckets with relative error ≤ 2^(1/8) − 1 ≈ 9 % (mean/quantile
//! contributions; `min`/`max` stay exact always).

/// Number of linear buckets: tick `k` (0 ≤ k < `LINEAR_BUCKETS`) represents
/// the value `k · unit` exactly.
pub const LINEAR_BUCKETS: usize = 1024;

/// Number of geometric overflow buckets past the linear range; bucket `b`
/// covers `[LINEAR_BUCKETS · unit · 2^(b/4), … · 2^((b+1)/4))` — 64 buckets
/// span a further 2^16× dynamic range.
pub const OVERFLOW_BUCKETS: usize = 64;

/// Overflow buckets per octave (ratio 2^(1/4) per bucket).
const BUCKETS_PER_OCTAVE: f64 = 4.0;

/// A fixed-size, order-independently mergeable quantile sketch.
///
/// See the [module docs](self) for the exactness and determinism contract.
#[derive(Clone, PartialEq)]
pub struct QuantileSketch {
    unit: f64,
    count: u64,
    min: f64,
    max: f64,
    linear: Box<[u64]>,
    overflow: Box<[u64]>,
}

impl QuantileSketch {
    /// Creates an empty sketch whose tick grid is integer multiples of
    /// `unit` (for the simulator: the period length `τ`, since every
    /// recorded duration is a whole number of periods).
    ///
    /// # Panics
    /// Panics unless `unit` is finite and positive.
    pub fn new(unit: f64) -> QuantileSketch {
        assert!(
            unit.is_finite() && unit > 0.0,
            "sketch unit {unit} must be finite and positive"
        );
        QuantileSketch {
            unit,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            linear: vec![0; LINEAR_BUCKETS].into_boxed_slice(),
            overflow: vec![0; OVERFLOW_BUCKETS].into_boxed_slice(),
        }
    }

    /// The tick-grid unit.
    pub fn unit(&self) -> f64 {
        self.unit
    }

    /// Number of recorded (finite) samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample (exact; 0 when empty, matching the
    /// test-only exact `Summary::of` on an empty sample).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (exact; 0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Records one sample.  Non-finite samples are ignored, mirroring the
    /// filtering of the test-only exact `Summary::of`.  Never allocates.
    #[inline]
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let ticks = value / self.unit;
        // Nearest-tick index; `.round()` is exact for on-grid samples even
        // when `value / unit` itself rounds (e.g. 0.3 / 0.1).
        let idx = ticks.round();
        if idx < LINEAR_BUCKETS as f64 {
            // Negative samples clamp into tick 0; `min` keeps the true value.
            self.linear[idx.max(0.0) as usize] += 1;
        } else {
            let octaves = (ticks / LINEAR_BUCKETS as f64).log2();
            let b = (octaves * BUCKETS_PER_OCTAVE).floor();
            let b = (b.max(0.0) as usize).min(OVERFLOW_BUCKETS - 1);
            self.overflow[b] += 1;
        }
    }

    /// Folds `other` into `self`.  Elementwise count addition plus
    /// `min`/`max` — exactly associative and commutative, so any merge
    /// order yields a bitwise-identical sketch.  Never allocates.
    ///
    /// # Panics
    /// Panics if the sketches were built with different units.
    pub fn merge_from(&mut self, other: &QuantileSketch) {
        assert!(
            self.unit == other.unit,
            "cannot merge sketches with units {} and {}",
            self.unit,
            other.unit
        );
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.linear.iter_mut().zip(other.linear.iter()) {
            *a += *b;
        }
        for (a, b) in self.overflow.iter_mut().zip(other.overflow.iter()) {
            *a += *b;
        }
    }

    /// Resets the sketch to empty without releasing its buckets.
    pub fn clear(&mut self) {
        self.count = 0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
        self.linear.fill(0);
        self.overflow.fill(0);
    }

    /// The representative value of overflow bucket `b` (geometric midpoint).
    fn overflow_representative(&self, b: usize) -> f64 {
        let octaves = (b as f64 + 0.5) / BUCKETS_PER_OCTAVE;
        LINEAR_BUCKETS as f64 * self.unit * octaves.exp2()
    }

    /// Sum of the recorded samples as represented by the buckets, derived in
    /// one fixed ascending walk (exact for on-grid samples in the linear
    /// range).  Never allocates.
    pub fn sum(&self) -> f64 {
        let mut sum = 0.0;
        for (k, &n) in self.linear.iter().enumerate() {
            if n != 0 {
                sum += n as f64 * (k as f64 * self.unit);
            }
        }
        for (b, &n) in self.overflow.iter().enumerate() {
            if n != 0 {
                sum += n as f64 * self.overflow_representative(b);
            }
        }
        sum
    }

    /// Mean of the recorded samples (0 when empty).  Never allocates.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum() / self.count as f64
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1, clamped) by nearest rank — the
    /// `rank = round((n − 1) · q)` rule of the test-only exact
    /// `Summary::quantile` — walked over the cumulative bucket counts.  0
    /// when empty.  Never allocates.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((self.count - 1) as f64 * q).round() as u64;
        // The extreme ranks are tracked exactly — answer them exactly.
        if rank == 0 {
            return self.min;
        }
        if rank == self.count - 1 {
            return self.max;
        }
        let mut cum = 0u64;
        for (k, &n) in self.linear.iter().enumerate() {
            cum += n;
            if cum > rank {
                return (k as f64 * self.unit).clamp(self.min, self.max);
            }
        }
        for (b, &n) in self.overflow.iter().enumerate() {
            cum += n;
            if cum > rank {
                return self.overflow_representative(b).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

impl std::fmt::Debug for QuantileSketch {
    /// Compact: the 1088 raw buckets are elided; the derived surface is
    /// what reports (and the golden digests over them) care about.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuantileSketch")
            .field("unit", &self.unit)
            .field("count", &self.count)
            .field("min", &self.min())
            .field("max", &self.max())
            .field("mean", &self.mean())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::Summary;

    fn sketch_of(values: &[f64], unit: f64) -> QuantileSketch {
        let mut s = QuantileSketch::new(unit);
        for &v in values {
            s.record(v);
        }
        s
    }

    #[test]
    fn empty_sketch_matches_empty_summary_semantics() {
        let s = QuantileSketch::new(1.0);
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.quantile(0.95), 0.0);
    }

    #[test]
    fn on_grid_samples_are_exact_bit_for_bit() {
        let values: Vec<f64> = [7u64, 3, 3, 12, 0, 55, 102, 7, 998]
            .iter()
            .map(|&k| k as f64)
            .collect();
        let s = sketch_of(&values, 1.0);
        let legacy = Summary::of(&values);
        assert_eq!(s.count() as usize, legacy.count);
        assert_eq!(s.mean(), legacy.mean, "mean must match bitwise");
        assert_eq!(s.min(), legacy.min);
        assert_eq!(s.max(), legacy.max);
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 1.0] {
            assert_eq!(
                s.quantile(q),
                Summary::quantile(&values, q),
                "quantile {q} must match bitwise"
            );
        }
    }

    #[test]
    fn fractional_unit_grid_is_exact() {
        // τ = 0.5: every sample is k · 0.5 — still dyadic, still exact.
        let values: Vec<f64> = (0..200).map(|k| k as f64 * 0.5).collect();
        let s = sketch_of(&values, 0.5);
        let legacy = Summary::of(&values);
        assert_eq!(s.mean(), legacy.mean);
        assert_eq!(s.quantile(0.95), Summary::quantile(&values, 0.95));
        assert_eq!(s.max(), legacy.max);
    }

    #[test]
    fn nonfinite_samples_are_ignored() {
        let s = sketch_of(&[f64::NAN, 3.0, f64::INFINITY, f64::NEG_INFINITY], 1.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.max(), 3.0);
    }

    #[test]
    fn off_grid_samples_quantize_within_half_a_unit() {
        let s = sketch_of(&[1.3, 2.7, 4.1], 1.0);
        assert_eq!(s.count(), 3);
        assert!((s.quantile(0.5) - 2.7).abs() <= 0.5 + 1e-12);
        assert!((s.mean() - (1.3 + 2.7 + 4.1) / 3.0).abs() <= 0.5 + 1e-12);
        // min/max stay exact regardless of quantization.
        assert_eq!(s.min(), 1.3);
        assert_eq!(s.max(), 4.1);
    }

    #[test]
    fn overflow_range_keeps_bounded_relative_error() {
        // Values far past the linear range (1024 ticks).
        let values = [5_000.0, 20_000.0, 1_000_000.0];
        let s = sketch_of(&values, 1.0);
        assert_eq!(s.max(), 1_000_000.0, "max is exact even in overflow");
        assert_eq!(s.min(), 5_000.0);
        let median = s.quantile(0.5);
        assert!(
            (median - 20_000.0).abs() / 20_000.0 <= 0.10,
            "overflow relative error bound: got {median}"
        );
    }

    #[test]
    fn negative_samples_clamp_into_the_first_bucket_with_exact_min() {
        let s = sketch_of(&[-3.0, 1.0, 2.0], 1.0);
        assert_eq!(s.min(), -3.0);
        assert_eq!(s.quantile(0.0), -3.0, "quantiles clamp to the true min");
    }

    #[test]
    fn merge_is_fold_order_independent() {
        let parts: Vec<QuantileSketch> = (0..8)
            .map(|i| {
                let values: Vec<f64> = (0..50).map(|k| ((k * 7 + i * 13) % 300) as f64).collect();
                sketch_of(&values, 1.0)
            })
            .collect();

        // Fold left.
        let mut left = QuantileSketch::new(1.0);
        for p in &parts {
            left.merge_from(p);
        }
        // Fold right.
        let mut right = QuantileSketch::new(1.0);
        for p in parts.iter().rev() {
            right.merge_from(p);
        }
        // Tree merge.
        let mut layer = parts.clone();
        while layer.len() > 1 {
            let mut next = Vec::new();
            for pair in layer.chunks(2) {
                let mut merged = pair[0].clone();
                if let Some(second) = pair.get(1) {
                    merged.merge_from(second);
                }
                next.push(merged);
            }
            layer = next;
        }
        let tree = layer.pop().unwrap();

        assert!(left == right, "fold-left and fold-right must be identical");
        assert!(left == tree, "fold-left and tree-merge must be identical");
        assert_eq!(left.mean(), tree.mean());
        assert_eq!(left.quantile(0.95), tree.quantile(0.95));
    }

    #[test]
    fn merged_sketch_equals_single_sketch_over_the_union() {
        let a: Vec<f64> = (0..100).map(|k| (k % 37) as f64).collect();
        let b: Vec<f64> = (0..80).map(|k| (k % 53) as f64).collect();
        let mut merged = sketch_of(&a, 1.0);
        merged.merge_from(&sketch_of(&b, 1.0));
        let mut union = a.clone();
        union.extend_from_slice(&b);
        let whole = sketch_of(&union, 1.0);
        assert!(merged == whole);
    }

    #[test]
    #[should_panic(expected = "cannot merge")]
    fn merging_mismatched_units_panics() {
        let mut a = QuantileSketch::new(1.0);
        a.merge_from(&QuantileSketch::new(0.5));
    }

    #[test]
    fn clear_resets_without_reallocating() {
        let mut s = sketch_of(&[1.0, 2.0, 3.0], 1.0);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), 0.0);
        s.record(7.0);
        assert_eq!(s.mean(), 7.0);
    }

    #[test]
    fn heap_bytes_are_fixed() {
        let a = QuantileSketch::new(1.0);
        let mut b = QuantileSketch::new(1.0);
        for k in 0..10_000 {
            b.record((k % 700) as f64);
        }
        let lens = |s: &QuantileSketch| (s.linear.len(), s.overflow.len());
        assert_eq!(lens(&a), lens(&b), "size is sample-independent");
        assert_eq!(lens(&a), (LINEAR_BUCKETS, OVERFLOW_BUCKETS));
    }

    proptest::proptest! {
        /// Any partition of any on-grid sample merged in any grouping equals
        /// the sketch of the whole sample, and matches the sort-based path.
        #[test]
        fn prop_merge_matches_whole_and_legacy(
            ticks in proptest::collection::vec(0u64..1024, 1..300),
            split in 1usize..10,
        ) {
            let values: Vec<f64> = ticks.iter().map(|&k| k as f64).collect();
            let whole = sketch_of(&values, 1.0);

            let mut merged = QuantileSketch::new(1.0);
            for chunk in values.chunks(split) {
                merged.merge_from(&sketch_of(chunk, 1.0));
            }
            proptest::prop_assert!(merged == whole);

            let legacy = Summary::of(&values);
            proptest::prop_assert_eq!(whole.mean(), legacy.mean);
            proptest::prop_assert_eq!(whole.max(), legacy.max);
            proptest::prop_assert_eq!(whole.quantile(0.95), Summary::quantile(&values, 0.95));
        }
    }
}
