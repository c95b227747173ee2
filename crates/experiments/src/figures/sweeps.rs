//! Figures 6–8 (static) and 10–12 (dynamic): per-size tables.

use crate::scenario::Environment;
use crate::sweep::SweepPoint;
use fss_metrics::Table;

fn figure_number(environment: Environment, static_no: u8, dynamic_no: u8) -> u8 {
    match environment {
        Environment::Static => static_no,
        Environment::Dynamic => dynamic_no,
    }
}

/// Figure 6 / 10: average finishing time of `S1` and preparing time of `S2`,
/// four bars per network size (normal-finish, fast-finish, fast-prepare,
/// normal-prepare, in the paper's bar order).
pub fn finishing_preparing_table(environment: Environment, points: &[SweepPoint]) -> Table {
    let fig = figure_number(environment, 6, 10);
    let mut table = Table::new(
        format!(
            "Figure {fig}: avg finishing time of S1 and preparing time of S2 ({} environments)",
            environment.name()
        ),
        &[
            "nodes",
            "finish_s1_normal",
            "finish_s1_fast",
            "prepare_s2_fast",
            "prepare_s2_normal",
        ],
    );
    for p in points {
        let (fast, normal) = (
            &p.comparison.fast.report.switch,
            &p.comparison.normal.report.switch,
        );
        table.push_row(vec![
            p.nodes.to_string(),
            format!("{:.2}", normal.finish_old_secs.mean()),
            format!("{:.2}", fast.finish_old_secs.mean()),
            format!("{:.2}", fast.prepare_new_secs.mean()),
            format!("{:.2}", normal.prepare_new_secs.mean()),
        ]);
    }
    table
}

/// Figure 7 / 11: average switch time for both algorithms and the reduction
/// ratio.
pub fn switch_time_table(environment: Environment, points: &[SweepPoint]) -> Table {
    let fig = figure_number(environment, 7, 11);
    let mut table = Table::new(
        format!(
            "Figure {fig}: avg switch time and its reduction ratio ({} environments)",
            environment.name()
        ),
        &["nodes", "switch_normal", "switch_fast", "reduction_ratio"],
    );
    for p in points {
        let (fast, normal) = (
            &p.comparison.fast.report.switch,
            &p.comparison.normal.report.switch,
        );
        table.push_row(vec![
            p.nodes.to_string(),
            format!("{:.2}", normal.prepare_new_secs.mean()),
            format!("{:.2}", fast.prepare_new_secs.mean()),
            format!("{:.3}", p.comparison.reduction_ratio()),
        ]);
    }
    table
}

/// Figure 8 / 12: communication overhead of both algorithms.
pub fn overhead_table(environment: Environment, points: &[SweepPoint]) -> Table {
    let fig = figure_number(environment, 8, 12);
    let mut table = Table::new(
        format!(
            "Figure {fig}: communication overhead ({} environments)",
            environment.name()
        ),
        &["nodes", "overhead_fast", "overhead_normal"],
    );
    for p in points {
        let (fast, normal) = (&p.comparison.fast.report, &p.comparison.normal.report);
        table.push_row(vec![
            p.nodes.to_string(),
            format!("{:.4}", fast.traffic_switch_window.overhead()),
            format!("{:.4}", normal.traffic_switch_window.overhead()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Algorithm, ScenarioConfig};
    use crate::sweep::sweep_sizes;

    fn points() -> Vec<SweepPoint> {
        let base = ScenarioConfig::quick(60, Algorithm::Fast, Environment::Static);
        sweep_sizes(&[60, 100], &base)
    }

    #[test]
    fn tables_have_one_row_per_size_and_expected_titles() {
        let pts = points();
        let t6 = finishing_preparing_table(Environment::Static, &pts);
        let t7 = switch_time_table(Environment::Static, &pts);
        let t8 = overhead_table(Environment::Static, &pts);
        assert_eq!(t6.len(), 2);
        assert_eq!(t7.len(), 2);
        assert_eq!(t8.len(), 2);
        assert!(t6.title().contains("Figure 6"));
        assert!(t7.title().contains("Figure 7"));
        assert!(t8.title().contains("Figure 8"));

        let t10 = finishing_preparing_table(Environment::Dynamic, &pts);
        let t11 = switch_time_table(Environment::Dynamic, &pts);
        let t12 = overhead_table(Environment::Dynamic, &pts);
        assert!(t10.title().contains("Figure 10"));
        assert!(t11.title().contains("Figure 11"));
        assert!(t12.title().contains("Figure 12"));
    }

    #[test]
    fn figure6_shape_matches_the_paper() {
        // The paper's qualitative reading of Figure 6: the fast algorithm
        // finishes S1 no earlier than the normal algorithm but prepares S2 no
        // later — it "splits the difference".
        for p in points() {
            let normal = &p.comparison.normal.report.switch;
            let fast = &p.comparison.fast.report.switch;
            // Small tolerances: at these tiny sizes the backlog at switch
            // time is only a couple of hops' worth of segments.
            assert!(fast.finish_old_secs.mean() + 0.5 >= normal.finish_old_secs.mean());
            assert!(fast.prepare_new_secs.mean() <= normal.prepare_new_secs.mean() + 0.5);
        }
    }

    #[test]
    fn figure8_overhead_is_about_a_percent_and_fast_is_not_worse() {
        for p in points() {
            let fast = p.comparison.fast.report.traffic_switch_window.overhead();
            let normal = p.comparison.normal.report.traffic_switch_window.overhead();
            assert!(fast > 0.002 && fast < 0.08, "fast overhead {fast}");
            assert!(normal > 0.002 && normal < 0.08, "normal overhead {normal}");
            assert!(fast <= normal * 1.05);
        }
    }
}
