//! Figures 5 and 9: the per-second ratio tracks.
//!
//! "We first track the undelivered ratio of S1 and delivered ratio of S2 of
//! our fast switch algorithm and the normal switch algorithm in a
//! (static|dynamic) network environment with 1000 nodes."

use crate::runner::ComparisonResult;
use crate::scenario::Environment;
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

    let horizon = comparison
        .fast
        .ratio_track
        .rows()
        .last()
        .map(|r| r.secs)
        .unwrap_or(0.0)
        .max(
            comparison
                .normal
                .ratio_track
                .rows()
                .last()
                .map(|r| r.secs)
                .unwrap_or(0.0),
        )
        .ceil() as u64;

    for secs in 0..=horizon {
        let t = secs as f64;
        table.push_row(vec![
            format!("{secs}"),
            format!("{:.3}", comparison.normal.ratio_track.undelivered_s1_at(t)),
            format!("{:.3}", comparison.fast.ratio_track.undelivered_s1_at(t)),
            format!("{:.3}", comparison.normal.ratio_track.delivered_s2_at(t)),
            format!("{:.3}", comparison.fast.ratio_track.delivered_s2_at(t)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_comparison;
    use crate::scenario::{Algorithm, ScenarioConfig};

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
