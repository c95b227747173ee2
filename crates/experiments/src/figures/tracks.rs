//! Figures 5 and 9: the per-second ratio tracks.
//!
//! "We first track the undelivered ratio of S1 and delivered ratio of S2 of
//! our fast switch algorithm and the normal switch algorithm in a
//! (static|dynamic) network environment with 1000 nodes."

use crate::runner::ComparisonResult;
use crate::scenario::Environment;
use fss_gossip::RatioSample;
use fss_metrics::Table;

/// Builds the Figure 5 (static) or Figure 9 (dynamic) series: one row per
/// second since the switch, four series (undelivered-S1 and delivered-S2 for
/// the normal and fast algorithms).
pub fn ratio_track_table(environment: Environment, comparison: &ComparisonResult) -> Table {
    let figure = match environment {
        Environment::Static => "Figure 5",
        Environment::Dynamic => "Figure 9",
    };
    let mut table = Table::new(
        format!(
            "{figure}: ratio tracks in a {} network with {} nodes",
            environment.name(),
            comparison.fast.nodes
        ),
        &[
            "secs",
            "undelivered_s1_normal",
            "undelivered_s1_fast",
            "delivered_s2_normal",
            "delivered_s2_fast",
        ],
    );

    let (fast, normal) = (
        &comparison.fast.report.ratio_samples,
        &comparison.normal.report.ratio_samples,
    );
    let last_secs = |samples: &[RatioSample]| samples.last().map_or(0.0, |r| r.secs);
    let horizon = last_secs(fast).max(last_secs(normal)).ceil() as u64;

    let undelivered_s1 = |r: &RatioSample| r.undelivered_ratio_s1;
    let delivered_s2 = |r: &RatioSample| r.delivered_ratio_s2;
    for secs in 0..=horizon {
        let t = secs as f64;
        table.push_row(vec![
            format!("{secs}"),
            format!("{:.3}", interpolate(normal, t, undelivered_s1)),
            format!("{:.3}", interpolate(fast, t, undelivered_s1)),
            format!("{:.3}", interpolate(normal, t, delivered_s2)),
            format!("{:.3}", interpolate(fast, t, delivered_s2)),
        ]);
    }
    table
}

/// Linear interpolation of one ratio at `secs` over `samples`, clamped to
/// the first and last sample (0 for an empty track).  The samples must be
/// in ascending time order, as `SystemReport::ratio_samples` records them.
fn interpolate(samples: &[RatioSample], secs: f64, value: impl Fn(&RatioSample) -> f64) -> f64 {
    let (Some(first), Some(last)) = (samples.first(), samples.last()) else {
        return 0.0;
    };
    if secs <= first.secs {
        return value(first);
    }
    if secs >= last.secs {
        return value(last);
    }
    // The bound checks above put `after` in 1..samples.len().
    let after = samples.partition_point(|r| r.secs < secs);
    let (a, b) = (&samples[after - 1], &samples[after]);
    let span = b.secs - a.secs;
    if span <= 0.0 {
        return value(b);
    }
    let w = (secs - a.secs) / span;
    value(a) * (1.0 - w) + value(b) * w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_comparison;
    use crate::scenario::{Algorithm, ScenarioConfig};

    fn sample(secs: f64, undelivered: f64, delivered: f64) -> RatioSample {
        RatioSample {
            secs,
            undelivered_ratio_s1: undelivered,
            delivered_ratio_s2: delivered,
        }
    }

    #[test]
    fn interpolation_between_and_outside_samples() {
        let track = [
            sample(1.0, 0.8, 0.2),
            sample(2.0, 0.6, 0.4),
            sample(3.0, 0.4, 0.6),
            sample(4.0, 0.0, 1.0),
        ];
        let undelivered_s1 = |r: &RatioSample| r.undelivered_ratio_s1;
        let delivered_s2 = |r: &RatioSample| r.delivered_ratio_s2;
        assert!((interpolate(&track, 1.5, undelivered_s1) - 0.7).abs() < 1e-12);
        assert!((interpolate(&track, 2.5, delivered_s2) - 0.5).abs() < 1e-12);
        // Clamped at the ends.
        assert_eq!(interpolate(&track, 0.0, undelivered_s1), 0.8);
        assert_eq!(interpolate(&track, 100.0, delivered_s2), 1.0);
        // Exactly on a sample.
        assert_eq!(interpolate(&track, 3.0, delivered_s2), 0.6);
    }

    #[test]
    fn empty_track() {
        assert_eq!(interpolate(&[], 1.0, |r| r.undelivered_ratio_s1), 0.0);
    }

    #[test]
    fn track_table_has_one_row_per_second_and_monotone_series() {
        let base = ScenarioConfig::quick(70, Algorithm::Fast, Environment::Static);
        let cmp = run_comparison(&base);
        let table = ratio_track_table(Environment::Static, &cmp);
        assert!(table.title().contains("Figure 5"));
        assert!(table.len() > 3, "expected several seconds of track");

        let csv = table.to_csv();
        let rows: Vec<Vec<f64>> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(|c| c.parse().unwrap()).collect())
            .collect();
        // Column 2 (undelivered S1, fast) never increases; column 4
        // (delivered S2, fast) never decreases; both end at their limits.
        for pair in rows.windows(2) {
            assert!(pair[1][2] <= pair[0][2] + 1e-9);
            assert!(pair[1][4] >= pair[0][4] - 1e-9);
        }
        let last = rows.last().unwrap();
        assert!(last[2] < 0.05, "undelivered S1 should drain to ~0");
        assert!(last[4] > 0.95, "delivered S2 should reach ~1");
    }

    #[test]
    fn dynamic_title_names_figure_9() {
        let base = ScenarioConfig::quick(70, Algorithm::Fast, Environment::Dynamic);
        let cmp = run_comparison(&base);
        let table = ratio_track_table(Environment::Dynamic, &cmp);
        assert!(table.title().contains("Figure 9"));
        assert!(table.title().contains("dynamic"));
    }
}
