//! Admission-control metrics of the membership directory.
//!
//! When the session manager's rate-limited admission queue is enabled
//! (`max_admits_per_period`), a flash crowd no longer joins its target
//! channel in one period boundary — arrivals queue and admit over several
//! boundaries, which is how deployed systems behave under switch storms.
//! This module aggregates what that costs: how many arrivals waited, how
//! long and how deep the queues ran.

use crate::sketch::QuantileSketch;

/// Aggregated admission-pipeline metrics of one multi-channel run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionSummary {
    /// True when a `max_admits_per_period` rate limit was active (the
    /// delay/queue fields are structurally zero otherwise).
    pub rate_limited: bool,
    /// Arrivals admitted into their target channel within the horizon.
    pub admitted: usize,
    /// Admitted arrivals that waited at least one period boundary in the
    /// admission queue.
    pub deferred: usize,
    /// Arrivals still queued (not yet members) at the end of the horizon.
    pub still_queued: usize,
    /// Deepest any channel's admission queue ran.
    pub max_queue_depth: usize,
    /// Mean admission delay (request boundary → admission boundary) of the
    /// admitted arrivals, seconds.  Zero-delay admissions count.
    pub avg_delay_secs: f64,
    /// 95th-percentile admission delay, seconds.
    pub p95_delay_secs: f64,
    /// Worst admission delay, seconds.
    pub max_delay_secs: f64,
}

impl AdmissionSummary {
    /// Builds the summary from a streaming delay sketch instead of a
    /// per-arrival vector.  `deferred` (admissions that waited ≥ 1 period)
    /// is carried as an explicit counter because the sketch's bucket 0
    /// deliberately conflates "zero delay" with "sub-tick delay".  For the
    /// simulator's whole-period delays every field matches the
    /// exact-vector oracle in this module's tests bitwise.
    pub fn from_sketch(
        rate_limited: bool,
        delays: &QuantileSketch,
        deferred: usize,
        still_queued: usize,
        max_queue_depth: usize,
    ) -> AdmissionSummary {
        AdmissionSummary {
            rate_limited,
            admitted: delays.count() as usize,
            deferred,
            still_queued,
            max_queue_depth,
            avg_delay_secs: delays.mean(),
            p95_delay_secs: delays.quantile(0.95),
            max_delay_secs: delays.max(),
        }
    }

    /// An empty summary for a run without admission control: every arrival
    /// was admitted at its request boundary, outside the pipeline's queue.
    pub fn pass_through(admitted: usize) -> AdmissionSummary {
        AdmissionSummary {
            rate_limited: false,
            admitted,
            deferred: 0,
            still_queued: 0,
            max_queue_depth: 0,
            avg_delay_secs: 0.0,
            p95_delay_secs: 0.0,
            max_delay_secs: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::Summary;

    /// The exact-vector oracle of [`AdmissionSummary::from_sketch`]: the
    /// summary built from the per-arrival admission delays (seconds, one
    /// entry per admitted arrival — zero for arrivals admitted at their
    /// request boundary) and the queue tail state.
    fn from_parts(
        rate_limited: bool,
        delays_secs: &[f64],
        still_queued: usize,
        max_queue_depth: usize,
    ) -> AdmissionSummary {
        let s = Summary::of(delays_secs);
        AdmissionSummary {
            rate_limited,
            admitted: delays_secs.len(),
            deferred: delays_secs.iter().filter(|&&d| d > 0.0).count(),
            still_queued,
            max_queue_depth,
            avg_delay_secs: s.mean,
            p95_delay_secs: Summary::quantile(delays_secs, 0.95),
            max_delay_secs: s.max,
        }
    }

    #[test]
    fn aggregates_delays_and_queue_state() {
        let delays = [0.0, 0.0, 1.0, 2.0, 4.0];
        let s = from_parts(true, &delays, 3, 17);
        assert!(s.rate_limited);
        assert_eq!(s.admitted, 5);
        assert_eq!(s.deferred, 3);
        assert_eq!(s.still_queued, 3);
        assert_eq!(s.max_queue_depth, 17);
        assert_eq!(s.admitted + s.still_queued, 8);
        assert!((s.avg_delay_secs - 1.4).abs() < 1e-12);
        assert_eq!(s.max_delay_secs, 4.0);
        assert!(s.p95_delay_secs <= s.max_delay_secs + 1e-12);
    }

    #[test]
    fn pass_through_reports_no_queueing() {
        let s = AdmissionSummary::pass_through(42);
        assert!(!s.rate_limited);
        assert_eq!(s.admitted, 42);
        assert_eq!(s.deferred, 0);
        assert_eq!(s.still_queued, 0);
        assert_eq!(s.admitted + s.still_queued, 42);
        assert_eq!(s.avg_delay_secs, 0.0);
    }

    #[test]
    fn sketch_path_matches_vector_path_bitwise() {
        let delays = [0.0, 0.0, 1.0, 2.0, 4.0];
        let mut sketch = QuantileSketch::new(1.0);
        for &d in &delays {
            sketch.record(d);
        }
        let deferred = delays.iter().filter(|&&d| d > 0.0).count();
        assert_eq!(
            AdmissionSummary::from_sketch(true, &sketch, deferred, 3, 17),
            from_parts(true, &delays, 3, 17)
        );
    }

    #[test]
    fn empty_pipeline() {
        let s = from_parts(true, &[], 0, 0);
        assert_eq!(s.admitted + s.still_queued, 0);
        assert_eq!(s.avg_delay_secs, 0.0);
    }
}
