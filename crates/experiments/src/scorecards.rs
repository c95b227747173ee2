//! Diffable scenario scorecards: run a baseline and a set of variants on
//! the same pool, keep each run's [`Scorecard`], and report every variant
//! as a metric-by-metric [`ScorecardDelta`] against the baseline.
//!
//! This is the "did my knob help?" workflow the streaming-QoE telemetry
//! layer exists for: a scorecard is a few hundred bytes of exact text
//! (`Scorecard::to_text` round-trips bit-for-bit), so baselines can be
//! stored next to a scenario and diffed against any later run — across
//! commits, stepping modes or pool sizes, all of which are proven
//! byte-deterministic by the `fss-runtime` test-suite.

use crate::zapping::{run_channel_zapping, ZappingScenario};
use fss_metrics::{Scorecard, ScorecardDelta};
use fss_runtime::WorkerPool;
use std::sync::Arc;

/// One labelled variant's outcome in a scorecard comparison.
#[derive(Debug, Clone)]
pub struct ScorecardPoint {
    /// Human-readable variant label (e.g. `"admits=8"`).
    pub label: String,
    /// The variant run's scorecard.
    pub scorecard: Scorecard,
    /// Baseline → variant comparison.
    pub delta: ScorecardDelta,
}

/// Runs one scenario and returns its QoE scorecard.
pub fn scenario_scorecard(scenario: &ZappingScenario, pool: &Arc<WorkerPool>) -> Scorecard {
    run_channel_zapping(scenario, pool).scorecard
}

/// Runs `baseline` once, then every labelled variant, and returns each
/// variant's scorecard diffed against the baseline.  Runs execute one
/// after another; each is internally parallel across its channels.
pub fn diff_scenarios(
    baseline: &ZappingScenario,
    variants: &[(String, ZappingScenario)],
    pool: &Arc<WorkerPool>,
) -> Vec<ScorecardPoint> {
    let base = scenario_scorecard(baseline, pool);
    variants
        .iter()
        .map(|(label, scenario)| {
            let scorecard = scenario_scorecard(scenario, pool);
            ScorecardPoint {
                label: label.clone(),
                scorecard,
                delta: base.diff(&scorecard),
            }
        })
        .collect()
}

/// Renders a comparison as text: the baseline scorecard followed by one
/// delta table per variant.
pub fn render_comparison(baseline: &Scorecard, points: &[ScorecardPoint]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    // Writes into a String are infallible.
    let _ = writeln!(out, "baseline:\n{baseline}");
    for point in points {
        let _ = writeln!(out, "variant {}:\n{}", point.label, point.delta);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fss_runtime::{AdmissionControl, SessionConfig, ZapWorkload};

    fn tiny(admission: AdmissionControl) -> ZappingScenario {
        ZappingScenario {
            session: SessionConfig {
                admission,
                ..SessionConfig::paper_default(2, 20)
            },
            workload: ZapWorkload::Zipf { alpha: 1.2 },
            warmup_periods: 12,
            measure_periods: 12,
            ..ZappingScenario::quick(2, 20)
        }
    }

    #[test]
    fn scorecards_diff_and_round_trip_across_scenarios() {
        let pool = Arc::new(WorkerPool::new(2));
        let baseline = tiny(AdmissionControl::unlimited());
        let variant = tiny(AdmissionControl::rate_limited(2));
        let points = diff_scenarios(&baseline, &[("admits=2".to_string(), variant)], &pool);
        assert_eq!(points.len(), 1);
        let point = &points[0];
        // The run produced real telemetry...
        assert!(point.scorecard.periods > 0);
        assert!(point.scorecard.startups > 0);
        // ...the stored-text form round-trips exactly...
        let text = point.scorecard.to_text();
        assert_eq!(Scorecard::from_text(&text).unwrap(), point.scorecard);
        // ...and the delta pairs the two runs as given.
        assert_eq!(point.delta.after, point.scorecard);
        assert_eq!(
            Scorecard::from_text(&point.delta.before.to_text()).unwrap(),
            point.delta.before
        );
        let rendered = render_comparison(&point.delta.before, &points);
        assert!(rendered.contains("admits=2"));
        assert!(rendered.contains("continuity_mean"));
    }

    #[test]
    fn identical_scenarios_produce_identical_scorecards() {
        let pool = Arc::new(WorkerPool::new(2));
        let scenario = tiny(AdmissionControl::unlimited());
        let a = scenario_scorecard(&scenario, &pool);
        let b = scenario_scorecard(&scenario, &pool);
        assert_eq!(a, b);
    }
}
