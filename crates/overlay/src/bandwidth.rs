//! Per-peer bandwidth assignment.
//!
//! §5.1 of the paper: "We randomly arrange inbound rate (from 300 Kbps to
//! 1 Mbps) to each node and let the average inbound rate be 450 Kbps, i.e.
//! I ∈ [10, 33] and I = 15 in average.  The arrangement of outbound rate is
//! alike.  An exception is that the source node has zero inbound rate and much
//! larger outbound rate."
//!
//! Rates are expressed in **segments per second** (one segment = 30 Kb, so
//! 300 Kbps = 10 segments/s).  Because the required mean (15) sits well below
//! the mid-point of the range `[10, 33]`, a plain uniform draw cannot satisfy
//! the specification; we use a two-piece ("skewed") uniform distribution that
//! hits the mean exactly in expectation while keeping full support over the
//! range.

use crate::error::OverlayError;
use rand::Rng;

/// Inbound/outbound segment rates assigned to one peer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeerBandwidth {
    /// Inbound rate in segments per second.
    pub inbound: f64,
    /// Outbound rate in segments per second.
    pub outbound: f64,
}

/// Configuration of the bandwidth distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthConfig {
    /// Minimum peer rate (segments/s).  Paper default: 10 (300 Kbps).
    pub min_rate: f64,
    /// Maximum peer rate (segments/s).  Paper default: 33 (~1 Mbps).
    pub max_rate: f64,
    /// Target mean peer rate (segments/s).  Paper default: 15 (450 Kbps).
    pub mean_rate: f64,
    /// Outbound rate of a source node (segments/s).  "Much larger" than a
    /// regular peer; default 100 (~3 Mbps), enough to feed several neighbours
    /// at full stream rate.
    pub source_outbound: f64,
}

impl Default for BandwidthConfig {
    fn default() -> Self {
        BandwidthConfig {
            min_rate: 10.0,
            max_rate: 33.0,
            mean_rate: 15.0,
            source_outbound: 100.0,
        }
    }
}

impl BandwidthConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), OverlayError> {
        if !self.min_rate.is_finite() || self.min_rate <= 0.0 {
            return Err(OverlayError::InvalidBandwidth {
                message: format!("min_rate {} must be positive and finite", self.min_rate),
            });
        }
        if self.max_rate <= self.min_rate {
            return Err(OverlayError::InvalidBandwidth {
                message: format!(
                    "max_rate {} must exceed min_rate {}",
                    self.max_rate, self.min_rate
                ),
            });
        }
        if self.mean_rate <= self.min_rate || self.mean_rate >= self.max_rate {
            return Err(OverlayError::InvalidBandwidth {
                message: format!(
                    "mean_rate {} must lie strictly inside ({}, {})",
                    self.mean_rate, self.min_rate, self.max_rate
                ),
            });
        }
        if self.source_outbound <= 0.0 {
            return Err(OverlayError::InvalidBandwidth {
                message: format!("source_outbound {} must be positive", self.source_outbound),
            });
        }
        Ok(())
    }

    /// Probability of drawing from the lower piece `[min, mean]` such that the
    /// overall expectation equals `mean_rate`.
    ///
    /// With piece means `(min+mean)/2` and `(mean+max)/2`, solving
    /// `q·(min+mean)/2 + (1−q)·(mean+max)/2 = mean` for `q` gives
    /// `q = (max − mean) / (max − min)`... adjusted for the piece centres:
    /// `q = (max − mean) / ((max − mean) + (mean − min))`.
    fn lower_piece_probability(&self) -> f64 {
        let lower_span = self.mean_rate - self.min_rate;
        let upper_span = self.max_rate - self.mean_rate;
        upper_span / (upper_span + lower_span)
    }

    /// Draws one peer rate from the skewed distribution.
    pub fn sample_rate<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let q = self.lower_piece_probability();
        if rng.gen::<f64>() < q {
            rng.gen_range(self.min_rate..=self.mean_rate)
        } else {
            rng.gen_range(self.mean_rate..=self.max_rate)
        }
    }

    /// Draws a full inbound/outbound assignment for a regular peer.
    pub fn sample_peer<R: Rng + ?Sized>(&self, rng: &mut R) -> PeerBandwidth {
        PeerBandwidth {
            inbound: self.sample_rate(rng),
            outbound: self.sample_rate(rng),
        }
    }

    /// The fixed assignment of a source node: zero inbound, large outbound.
    pub fn source_peer(&self) -> PeerBandwidth {
        PeerBandwidth {
            inbound: 0.0,
            outbound: self.source_outbound,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn default_matches_paper_parameters() {
        let c = BandwidthConfig::default();
        assert_eq!(c.min_rate, 10.0);
        assert_eq!(c.max_rate, 33.0);
        assert_eq!(c.mean_rate, 15.0);
        c.validate().unwrap();
    }

    #[test]
    fn validation_rejects_inconsistent_configs() {
        let bad = |f: fn(&mut BandwidthConfig)| {
            let mut c = BandwidthConfig::default();
            f(&mut c);
            c.validate().unwrap_err()
        };
        bad(|c| c.min_rate = 0.0);
        bad(|c| c.min_rate = f64::NAN);
        bad(|c| c.max_rate = 5.0);
        bad(|c| c.mean_rate = 9.0);
        bad(|c| c.mean_rate = 40.0);
        bad(|c| c.source_outbound = 0.0);
    }

    #[test]
    fn samples_stay_in_range() {
        let c = BandwidthConfig::default();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let r = c.sample_rate(&mut rng);
            assert!(r >= c.min_rate && r <= c.max_rate, "rate {r} out of range");
        }
    }

    #[test]
    fn sample_mean_matches_paper_mean() {
        let c = BandwidthConfig::default();
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| c.sample_rate(&mut rng)).sum::<f64>() / n as f64;
        assert!(
            (mean - 15.0).abs() < 0.15,
            "empirical mean {mean} deviates from 15"
        );
    }

    #[test]
    fn source_assignment_has_zero_inbound_and_large_outbound() {
        let c = BandwidthConfig::default();
        let s = c.source_peer();
        assert_eq!(s.inbound, 0.0);
        assert!(s.outbound > c.max_rate);
    }

    #[test]
    fn peer_sampling_draws_independent_directions() {
        let c = BandwidthConfig::default();
        let mut rng = SmallRng::seed_from_u64(3);
        let peers: Vec<PeerBandwidth> = (0..1_000).map(|_| c.sample_peer(&mut rng)).collect();
        // Not all identical in/out (i.e. they are separate draws).
        assert!(peers.iter().any(|p| (p.inbound - p.outbound).abs() > 1.0));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// For any valid (min, mean, max) the sampler stays in range and the
        /// lower-piece probability is a valid probability.
        #[test]
        fn prop_sampler_respects_bounds(
            min in 1.0f64..20.0,
            mean_frac in 0.05f64..0.95,
            span in 5.0f64..50.0,
            seed in 0u64..1_000,
        ) {
            let max = min + span;
            let mean = min + mean_frac * span;
            let c = BandwidthConfig { min_rate: min, max_rate: max, mean_rate: mean, source_outbound: 100.0 };
            proptest::prop_assert!(c.validate().is_ok());
            let q = c.lower_piece_probability();
            proptest::prop_assert!((0.0..=1.0).contains(&q));
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..100 {
                let r = c.sample_rate(&mut rng);
                proptest::prop_assert!(r >= min && r <= max);
            }
        }
    }
}
