//! Runs one scenario end to end.

use crate::scenario::{Algorithm, Environment, ScenarioConfig};
use fss_gossip::{StreamingSystem, SystemReport};
use fss_overlay::{ChurnModel, OverlayBuilder, OverlayConfig, PeerId};
use fss_trace::{GeneratorConfig, TraceGenerator};

/// The outcome of one simulation run: the system's own report plus the
/// scenario it ran.
///
/// The report carries every metric the paper reports per run:
/// `report.switch` the average finishing and preparing (= switch) times,
/// `report.traffic_switch_window.overhead()` the communication overhead,
/// `report.ratio_samples` the ratio tracks of Figures 5 and 9, and
/// `report.switch_completed_secs` whether every countable node completed
/// the switch within the period budget.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Number of overlay nodes at the start of the run.
    pub nodes: usize,
    /// The algorithm that produced the run.
    pub algorithm: Algorithm,
    /// Static or dynamic environment.
    pub environment: Environment,
    /// Periods simulated after the switch.
    pub periods_after_switch: u64,
    /// The system's report at the end of the run.
    pub report: SystemReport,
}

/// The fast and normal algorithms run on the identical workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonResult {
    /// The fast-switch run.
    pub fast: RunResult,
    /// The normal-switch run.
    pub normal: RunResult,
}

impl ComparisonResult {
    /// Metric 2: the reduction ratio of the average switch time achieved by
    /// the fast algorithm relative to the normal one, `1 − fast / normal`
    /// (0 when the normal run has no switch time).
    pub fn reduction_ratio(&self) -> f64 {
        let fast = self.fast.report.switch.prepare_new_secs.mean();
        let normal = self.normal.report.switch.prepare_new_secs.mean();
        if normal <= 0.0 {
            0.0
        } else {
            1.0 - fast / normal
        }
    }
}

/// Runs a single scenario.
///
/// # Panics
/// Panics if the scenario fails validation.
pub fn run_scenario(config: &ScenarioConfig) -> RunResult {
    config.validate().expect("valid scenario");

    // 1. Workload: synthetic crawl trace + augmented overlay.
    let trace = TraceGenerator::new(GeneratorConfig::sized(config.nodes, config.trace_seed))
        .generate(format!("scenario-{}", config.nodes));
    let overlay_config = OverlayConfig {
        min_degree: config.min_degree,
        seed: config.run_seed,
        ..OverlayConfig::default()
    };
    let overlay = OverlayBuilder::new(overlay_config)
        .expect("valid overlay config")
        .build(&trace)
        .expect("overlay construction");

    // 2. Pick the old source: the first active peer (the paper's current
    //    speaker).
    let peers: Vec<PeerId> = overlay.active_peers().collect();
    let s1 = peers[0];

    // 3. Assemble the system.
    let mut system = StreamingSystem::new(overlay, config.gossip, config.algorithm.scheduler());
    if let Some(network) = config.network {
        system.set_network(network);
    }
    if config.environment == Environment::Dynamic {
        system.set_churn(ChurnModel::new(
            config.churn_fraction,
            config.churn_fraction,
            config.min_degree,
            config.run_seed ^ 0xC4E7_11AA,
        ));
    }

    // 4. Warm up with S1 streaming, then switch to S2 at time "0".  The new
    //    source is an ordinary member picked from the middle of the *current*
    //    active population (under churn the originally planned peer may have
    //    left), keeping it topologically far from S1.
    system.start_initial_source(s1);
    system.run_periods(config.warmup_periods);
    let active: Vec<PeerId> = system
        .overlay()
        .active_peers()
        .filter(|&p| p != s1)
        .collect();
    let s2 = active[active.len() / 2];
    system.switch_source(s2);
    let periods_after_switch = system.run_until_switched(config.max_switch_periods);

    RunResult {
        nodes: config.nodes,
        algorithm: config.algorithm,
        environment: config.environment,
        periods_after_switch,
        report: system.report(),
    }
}

/// Runs the fast and the normal algorithm on the identical workload
/// (same trace, same overlay seed, same churn seed).
pub fn run_comparison(base: &ScenarioConfig) -> ComparisonResult {
    ComparisonResult {
        fast: run_scenario(&base.with_algorithm(Algorithm::Fast)),
        normal: run_scenario(&base.with_algorithm(Algorithm::Normal)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Algorithm, Environment, ScenarioConfig};
    use fss_gossip::{MemUsage, QoeTotals, SwitchStats, TrafficCounters};
    use fss_overlay::NetworkConfig;

    /// The paper's average switch time of a run: its average preparing
    /// time of the new source.
    fn switch_secs(result: &RunResult) -> f64 {
        result.report.switch.prepare_new_secs.mean()
    }

    fn completed(result: &RunResult) -> bool {
        result.report.switch_completed_secs.is_some()
    }

    #[test]
    fn small_static_run_completes_and_reports() {
        let config = ScenarioConfig::quick(80, Algorithm::Fast, Environment::Static);
        let result = run_scenario(&config);
        assert!(completed(&result), "switch did not complete");
        assert_eq!(result.nodes, 80);
        let switch = &result.report.switch;
        assert!(switch.countable_nodes > 70);
        assert_eq!(switch.completion_rate(), 1.0);
        assert!(switch_secs(&result) > 0.0);
        assert!(switch.finish_old_secs.mean() > 0.0);
        let overhead = result.report.traffic_switch_window.overhead();
        assert!(overhead > 0.0 && overhead < 0.1);
        // The delivered ratio of S2 ends at 1.
        let last = result.report.ratio_samples.last().unwrap();
        assert!((last.delivered_ratio_s2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn comparison_runs_share_the_workload_and_fast_wins() {
        let base = ScenarioConfig::quick(120, Algorithm::Fast, Environment::Static);
        let cmp = run_comparison(&base);
        assert_eq!(cmp.fast.nodes, 120);
        assert!(completed(&cmp.fast) && completed(&cmp.normal));
        // Identical workload: the backlog at switch time matches.
        let (fast, normal) = (&cmp.fast.report, &cmp.normal.report);
        assert!((fast.switch.q0.mean() - normal.switch.q0.mean()).abs() < 1e-9);
        // The headline claim.  At this small scale the old-source backlog is
        // only a couple of hops' worth of segments, so we allow a small
        // tolerance.  At paper scale the `figures` binary prints reduction
        // ratios of 0.003–0.043 (static, Figure 7) and 0.012–0.054
        // (dynamic, Figure 11) over 100–8,000 nodes.
        assert!(
            switch_secs(&cmp.fast) <= switch_secs(&cmp.normal) + 0.5,
            "fast {} vs normal {}",
            switch_secs(&cmp.fast),
            switch_secs(&cmp.normal)
        );
        assert!(cmp.reduction_ratio() >= -0.1);
        // And it does not cost extra communication overhead.
        assert!(
            fast.traffic_switch_window.overhead() <= normal.traffic_switch_window.overhead() * 1.05
        );
    }

    #[test]
    fn dynamic_environment_run_completes() {
        let config = ScenarioConfig::quick(100, Algorithm::Normal, Environment::Dynamic);
        let result = run_scenario(&config);
        assert!(completed(&result), "dynamic switch did not complete");
        assert!(result.report.switch.completion_rate() > 0.99);
        assert!(
            result.report.switch.countable_nodes < 100,
            "some nodes departed"
        );
    }

    /// The switch scenario at each `(loss, latency scale)` point of the
    /// event-driven network, in input order; every point shares one
    /// fault-stream seed.
    fn run_faulted(points: &[(f64, f64)]) -> Vec<RunResult> {
        points
            .iter()
            .map(|&(loss_rate, latency_scale)| {
                run_scenario(&ScenarioConfig {
                    network: Some(NetworkConfig {
                        loss_rate,
                        latency_scale,
                        ..NetworkConfig::ideal().with_seed(0xFA17)
                    }),
                    ..ScenarioConfig::quick(120, Algorithm::Fast, Environment::Static)
                })
            })
            .collect()
    }

    #[test]
    fn continuity_and_switch_latency_degrade_monotonically_with_loss() {
        let losses = [0.0, 0.1, 0.25];
        let points = run_faulted(&losses.map(|loss| (loss, 0.0)));
        assert_eq!(points.len(), 3);
        assert!(completed(&points[0]), "the lossless run must complete");
        for (i, pair) in points.windows(2).enumerate() {
            let (a, b) = (&pair[0], &pair[1]);
            assert!(
                switch_secs(b) >= switch_secs(a),
                "switch latency must not improve under loss: {} -> {} at loss {}",
                switch_secs(a),
                switch_secs(b),
                losses[i + 1]
            );
            let (ca, cb) = (
                a.report.qoe.continuity().unwrap(),
                b.report.qoe.continuity().unwrap(),
            );
            assert!(
                cb <= ca + 1e-9,
                "continuity must not improve under loss: {ca} -> {cb} at loss {}",
                losses[i + 1]
            );
        }
        assert!(
            switch_secs(&points[2]) > switch_secs(&points[0]),
            "25% loss must measurably slow the switch"
        );
        assert!(
            points[2].report.qoe.continuity().unwrap() < points[0].report.qoe.continuity().unwrap()
        );
    }

    #[test]
    fn switch_latency_degrades_monotonically_with_latency_scale() {
        // Trace RTTs sit well under τ = 1 s, so meaningful degradation
        // needs scales that push transfers across period boundaries.
        // Past ~10x the run stops completing within its period budget and
        // the switch average becomes a partial (misleadingly low) figure,
        // so the points stop at 8x.
        let scales = [0.0, 3.0, 8.0];
        let points = run_faulted(&scales.map(|scale| (0.0, scale)));
        assert!(completed(&points[0]) && completed(&points[1]));
        for (i, pair) in points.windows(2).enumerate() {
            assert!(
                switch_secs(&pair[1]) >= switch_secs(&pair[0]),
                "switch latency must not improve with slower links: {} -> {} at scale {}",
                switch_secs(&pair[0]),
                switch_secs(&pair[1]),
                scales[i + 1]
            );
        }
        assert!(
            switch_secs(&points[2]) > switch_secs(&points[0]),
            "8x latency must measurably slow the switch"
        );
    }

    /// A run whose only content is an average switch time of `secs`.
    fn run_with_switch_secs(secs: f64) -> RunResult {
        let mut switch = SwitchStats::default();
        switch.prepare_new_secs.record(secs);
        RunResult {
            nodes: 1,
            algorithm: Algorithm::Fast,
            environment: Environment::Static,
            periods_after_switch: 0,
            report: SystemReport {
                scheduler: "",
                switch,
                ratio_samples: Vec::new(),
                traffic_total: TrafficCounters::default(),
                traffic_switch_window: TrafficCounters::default(),
                periods: 0,
                switch_completed_secs: None,
                mem: MemUsage::default(),
                qoe: QoeTotals::default(),
            },
        }
    }

    #[test]
    fn reduction_ratio_matches_the_paper_definition() {
        let ratio = |fast: f64, normal: f64| {
            ComparisonResult {
                fast: run_with_switch_secs(fast),
                normal: run_with_switch_secs(normal),
            }
            .reduction_ratio()
        };
        assert!((ratio(16.0, 20.0) - 0.2).abs() < 1e-12);
        assert!((ratio(14.0, 20.0) - 0.3).abs() < 1e-12);
        assert_eq!(ratio(10.0, 0.0), 0.0);
        // A slower "fast" algorithm produces a negative reduction.
        assert!(ratio(25.0, 20.0) < 0.0);
    }

    #[test]
    #[should_panic(expected = "valid scenario")]
    fn invalid_scenario_panics() {
        let mut config = ScenarioConfig::quick(80, Algorithm::Fast, Environment::Static);
        config.warmup_periods = 0;
        let _ = run_scenario(&config);
    }
}
