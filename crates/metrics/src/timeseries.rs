//! The ratio tracks of Figures 5 and 9.

use fss_gossip::RatioSample;

/// A cleaned-up ratio track: one row per second since the switch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RatioTrack {
    rows: Vec<RatioSample>,
}

impl RatioTrack {
    /// Builds a track from raw samples, sorted by time.
    pub fn from_samples(samples: &[RatioSample]) -> RatioTrack {
        let mut rows = samples.to_vec();
        rows.sort_by(|a, b| a.secs.total_cmp(&b.secs));
        RatioTrack { rows }
    }

    /// The rows, ordered by time.
    pub fn rows(&self) -> &[RatioSample] {
        &self.rows
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the track holds no samples.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Linear interpolation of the undelivered-`S1` ratio at `secs`.
    pub fn undelivered_s1_at(&self, secs: f64) -> f64 {
        self.interpolate(secs, |r| r.undelivered_ratio_s1)
    }

    /// Linear interpolation of the delivered-`S2` ratio at `secs`.
    pub fn delivered_s2_at(&self, secs: f64) -> f64 {
        self.interpolate(secs, |r| r.delivered_ratio_s2)
    }

    fn interpolate(&self, secs: f64, value: impl Fn(&RatioSample) -> f64) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        if secs <= self.rows[0].secs {
            return value(&self.rows[0]);
        }
        if secs >= self.rows[self.rows.len() - 1].secs {
            return value(&self.rows[self.rows.len() - 1]);
        }
        let after = match self.rows.iter().position(|r| r.secs >= secs) {
            Some(i) => i,
            // Unreachable given the bound check above; clamping to the last
            // row keeps the interpolation total anyway.
            None => return value(&self.rows[self.rows.len() - 1]),
        };
        let (a, b) = (&self.rows[after - 1], &self.rows[after]);
        let span = b.secs - a.secs;
        if span <= 0.0 {
            return value(b);
        }
        let w = (secs - a.secs) / span;
        value(a) * (1.0 - w) + value(b) * w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(secs: f64, undelivered: f64, delivered: f64) -> RatioSample {
        RatioSample {
            secs,
            undelivered_ratio_s1: undelivered,
            delivered_ratio_s2: delivered,
        }
    }

    fn track() -> RatioTrack {
        RatioTrack::from_samples(&[
            sample(3.0, 0.4, 0.6),
            sample(1.0, 0.8, 0.2),
            sample(2.0, 0.6, 0.4),
            sample(4.0, 0.0, 1.0),
        ])
    }

    #[test]
    fn rows_are_sorted_by_time() {
        let t = track();
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        let times: Vec<f64> = t.rows().iter().map(|r| r.secs).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn interpolation_between_and_outside_samples() {
        let t = track();
        assert!((t.undelivered_s1_at(1.5) - 0.7).abs() < 1e-12);
        assert!((t.delivered_s2_at(2.5) - 0.5).abs() < 1e-12);
        // Clamped at the ends.
        assert_eq!(t.undelivered_s1_at(0.0), 0.8);
        assert_eq!(t.delivered_s2_at(100.0), 1.0);
        // Exactly on a sample.
        assert_eq!(t.delivered_s2_at(3.0), 0.6);
    }

    #[test]
    fn empty_track() {
        let t = RatioTrack::from_samples(&[]);
        assert!(t.is_empty());
        assert_eq!(t.undelivered_s1_at(1.0), 0.0);
    }
}
