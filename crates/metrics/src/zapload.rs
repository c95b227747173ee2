//! Arrival-skew metrics for multi-channel zap workloads.
//!
//! A popularity-skewed workload (Zipf target channels, flash-crowd storms)
//! is only as real as its observable effect: how unevenly zap arrivals
//! land across channels.  [`ZapLoadSummary`] condenses the per-channel
//! arrival counts into the three numbers experiments sweep against — the
//! busiest channel's share, and the Gini coefficient of the whole arrival
//! distribution (0 = perfectly even, → 1 = all arrivals on one channel).

/// How zap arrivals are distributed over channels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZapLoadSummary {
    /// Total zap arrivals across all channels.
    pub total_arrivals: usize,
    /// Channel receiving the most arrivals (lowest index on ties; 0 when no
    /// arrivals were observed).
    pub busiest_channel: usize,
    /// The busiest channel's share of all arrivals (0 when none).
    pub busiest_share: f64,
    /// Gini coefficient of the arrival counts: 0 for a perfectly even
    /// spread, approaching 1 as one channel absorbs everything.
    pub gini: f64,
}

impl ZapLoadSummary {
    /// Builds the summary from per-channel arrival counts (index =
    /// channel).
    pub fn from_arrivals(arrivals: &[usize]) -> ZapLoadSummary {
        let total: usize = arrivals.iter().sum();
        if total == 0 || arrivals.is_empty() {
            return ZapLoadSummary {
                total_arrivals: 0,
                busiest_channel: 0,
                busiest_share: 0.0,
                gini: 0.0,
            };
        }
        let busiest_channel = arrivals
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            // `arrivals` is non-empty here (guarded above); 0 is the
            // convention already used for the empty summary.
            .map_or(0, |(i, _)| i);
        // Gini via the sorted-rank formula:
        //   G = (2 Σ_i i·x_i) / (n Σ x) − (n + 1) / n,   x sorted ascending,
        // with i ranging 1..=n.
        let mut sorted: Vec<usize> = arrivals.to_vec();
        sorted.sort_unstable();
        let n = sorted.len() as f64;
        let weighted: f64 = sorted
            .iter()
            .enumerate()
            .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
            .sum();
        let gini = (2.0 * weighted / (n * total as f64) - (n + 1.0) / n).max(0.0);
        ZapLoadSummary {
            total_arrivals: total,
            busiest_channel,
            busiest_share: arrivals[busiest_channel] as f64 / total as f64,
            gini,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_spread_has_zero_gini() {
        let s = ZapLoadSummary::from_arrivals(&[25, 25, 25, 25]);
        assert_eq!(s.total_arrivals, 100);
        assert_eq!(s.busiest_channel, 0, "ties resolve to the lowest index");
        assert!((s.busiest_share - 0.25).abs() < 1e-12);
        assert!(s.gini.abs() < 1e-12);
    }

    #[test]
    fn concentration_drives_gini_towards_one() {
        let s = ZapLoadSummary::from_arrivals(&[0, 0, 0, 100]);
        assert_eq!(s.busiest_channel, 3);
        assert_eq!(s.busiest_share, 1.0);
        assert!((s.gini - 0.75).abs() < 1e-12, "gini {}", s.gini);

        let skewed = ZapLoadSummary::from_arrivals(&[60, 20, 10, 10]);
        let even = ZapLoadSummary::from_arrivals(&[25, 25, 25, 25]);
        assert!(skewed.gini > even.gini);
    }

    #[test]
    fn empty_and_zero_arrivals() {
        for summary in [
            ZapLoadSummary::from_arrivals(&[]),
            ZapLoadSummary::from_arrivals(&[0, 0, 0]),
        ] {
            assert_eq!(summary.total_arrivals, 0);
            assert_eq!(summary.busiest_share, 0.0);
            assert_eq!(summary.gini, 0.0);
        }
    }

    #[test]
    fn zipf_like_counts_rank_sensibly() {
        // Counts shaped like Zipf(1): shares 1/1, 1/2, 1/3, 1/4, 1/5.
        let s = ZapLoadSummary::from_arrivals(&[60, 30, 20, 15, 12]);
        assert_eq!(s.busiest_channel, 0);
        assert!(s.busiest_share > 0.4);
        assert!(s.gini > 0.3 && s.gini < 0.6, "gini {}", s.gini);
    }
}
