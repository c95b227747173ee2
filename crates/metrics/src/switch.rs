//! Channel-switch (zap) startup delays of the multi-channel runtime.
//!
//! The paper's source-switch metrics (§5.2) are aggregated by `fss-gossip`
//! itself, in `SystemReport::switch` (`SwitchStats`).

use crate::sketch::QuantileSketch;
#[cfg(test)]
use crate::summary::Summary;

/// Aggregated channel-zap startup delays.
///
/// In a multi-channel deployment a *zap* is a viewer leaving one channel and
/// joining another; its **zap latency** is the time from joining the target
/// channel's overlay to the start of playback there (the `Q`
/// consecutive-segment startup rule — the viewer-facing analogue of the
/// paper's source-switch preparing time, measured per viewer instead of per
/// source switch).  Zaps whose playback never started within the measured
/// horizon count as *pending* and are excluded from the latency moments but
/// reported in the completion rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZapSummary {
    /// Zap arrivals whose playback started within the horizon.
    pub completed: usize,
    /// Zap arrivals still waiting for playback at the end of the horizon.
    pub pending: usize,
    /// Mean startup delay of completed zaps, seconds.
    pub avg_startup_secs: f64,
    /// Worst completed startup delay, seconds.
    pub max_startup_secs: f64,
    /// 95th-percentile completed startup delay, seconds.
    pub p95_startup_secs: f64,
}

impl ZapSummary {
    /// Builds the summary from the completed zaps' startup delays plus the
    /// count of zaps still pending at the end of the horizon: the
    /// exact-vector oracle of [`from_sketch`](Self::from_sketch).
    #[cfg(test)]
    pub fn from_latencies(latencies: &[f64], pending: usize) -> ZapSummary {
        let s = Summary::of(latencies);
        ZapSummary {
            completed: s.count,
            pending,
            avg_startup_secs: s.mean,
            max_startup_secs: s.max,
            p95_startup_secs: Summary::quantile(latencies, 0.95),
        }
    }

    /// Builds the summary from a streaming latency sketch instead of a
    /// per-event vector.  Because simulated startup delays are whole
    /// multiples of the sketch unit (the period length `τ`), every field is
    /// bitwise identical to the exact-vector oracle in this module's tests
    /// over the equivalent sample.  Never allocates.
    pub fn from_sketch(latencies: &QuantileSketch, pending: usize) -> ZapSummary {
        ZapSummary {
            completed: latencies.count() as usize,
            pending,
            avg_startup_secs: latencies.mean(),
            max_startup_secs: latencies.max(),
            p95_startup_secs: latencies.quantile(0.95),
        }
    }

    /// Total zap arrivals observed (completed + pending).
    pub fn zaps(&self) -> usize {
        self.completed + self.pending
    }

    /// Fraction of observed zaps that reached playback within the horizon
    /// (0 when no zap was observed).
    pub fn completion_rate(&self) -> f64 {
        if self.zaps() == 0 {
            0.0
        } else {
            self.completed as f64 / self.zaps() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zap_summary_aggregates_latencies_and_pending() {
        let latencies = [2.0, 4.0, 6.0, 8.0];
        let z = ZapSummary::from_latencies(&latencies, 2);
        assert_eq!(z.completed, 4);
        assert_eq!(z.pending, 2);
        assert_eq!(z.zaps(), 6);
        assert!((z.avg_startup_secs - 5.0).abs() < 1e-12);
        assert_eq!(z.max_startup_secs, 8.0);
        assert!(z.p95_startup_secs <= z.max_startup_secs + 1e-12);
        assert!((z.completion_rate() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn zap_summary_empty() {
        let z = ZapSummary::from_latencies(&[], 0);
        assert_eq!(z.zaps(), 0);
        assert_eq!(z.completion_rate(), 0.0);
        assert_eq!(z.avg_startup_secs, 0.0);
        let pending_only = ZapSummary::from_latencies(&[], 3);
        assert_eq!(pending_only.completion_rate(), 0.0);
        assert_eq!(pending_only.zaps(), 3);
    }

    #[test]
    fn zap_summary_from_sketch_matches_from_latencies_bitwise() {
        let latencies: Vec<f64> = [2u64, 4, 4, 6, 8, 31, 2, 900]
            .iter()
            .map(|&k| k as f64)
            .collect();
        let mut sketch = QuantileSketch::new(1.0);
        for &l in &latencies {
            sketch.record(l);
        }
        assert_eq!(
            ZapSummary::from_sketch(&sketch, 2),
            ZapSummary::from_latencies(&latencies, 2)
        );
        assert_eq!(
            ZapSummary::from_sketch(&QuantileSketch::new(1.0), 3),
            ZapSummary::from_latencies(&[], 3)
        );
    }
}
