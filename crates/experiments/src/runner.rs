//! Runs one scenario end to end.

use crate::scenario::{Algorithm, Environment, ScenarioConfig};
use fss_gossip::StreamingSystem;
use fss_metrics::{reduction_ratio, OverheadSummary, RatioTrack, SwitchSummary};
use fss_overlay::{ChurnModel, OverlayBuilder, OverlayConfig, PeerId};
use fss_trace::{GeneratorConfig, TraceGenerator};

/// The aggregated outcome of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Number of overlay nodes at the start of the run.
    pub nodes: usize,
    /// The algorithm that produced the run.
    pub algorithm: Algorithm,
    /// Static or dynamic environment.
    pub environment: Environment,
    /// Switch-time metrics.
    pub switch: SwitchSummary,
    /// Communication overhead measured over the switch window.
    pub overhead: OverheadSummary,
    /// The per-second ratio tracks (Figures 5 and 9).
    pub ratio_track: RatioTrack,
    /// Whether every countable node completed the switch within the period
    /// budget.
    pub completed: bool,
    /// Periods simulated after the switch.
    pub periods_after_switch: u64,
    /// Cumulative QoE event counters (startups, stalls, continuity) of the
    /// whole run — playback quality under the network model's faults.
    pub qoe: fss_gossip::QoeTotals,
}

impl RunResult {
    /// The paper's average switch time for this run.
    pub fn avg_switch_time_secs(&self) -> f64 {
        self.switch.avg_switch_time_secs()
    }
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
    /// Metric 2: reduction ratio of the average switch time.
    pub fn reduction_ratio(&self) -> f64 {
        reduction_ratio(
            self.fast.avg_switch_time_secs(),
            self.normal.avg_switch_time_secs(),
        )
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

    // 5. Aggregate.
    let report = system.report();
    RunResult {
        nodes: config.nodes,
        algorithm: config.algorithm,
        environment: config.environment,
        switch: SwitchSummary::from_stats(&report.switch),
        overhead: OverheadSummary::from_traffic(&report.traffic_switch_window),
        ratio_track: RatioTrack::from_samples(&report.ratio_samples),
        completed: report.switch_completed_secs.is_some(),
        periods_after_switch,
        qoe: report.qoe,
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
    use fss_overlay::NetworkConfig;

    #[test]
    fn small_static_run_completes_and_reports() {
        let config = ScenarioConfig::quick(80, Algorithm::Fast, Environment::Static);
        let result = run_scenario(&config);
        assert!(result.completed, "switch did not complete");
        assert_eq!(result.nodes, 80);
        assert!(result.switch.countable_nodes > 70);
        assert_eq!(result.switch.completion_rate(), 1.0);
        assert!(result.avg_switch_time_secs() > 0.0);
        assert!(result.switch.avg_finish_old_secs > 0.0);
        assert!(result.overhead.overhead > 0.0 && result.overhead.overhead < 0.1);
        assert!(!result.ratio_track.is_empty());
        // The delivered ratio of S2 ends at 1.
        let last = result.ratio_track.rows().last().unwrap();
        assert!((last.delivered_ratio_s2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn comparison_runs_share_the_workload_and_fast_wins() {
        let base = ScenarioConfig::quick(120, Algorithm::Fast, Environment::Static);
        let cmp = run_comparison(&base);
        assert_eq!(cmp.fast.nodes, 120);
        assert!(cmp.fast.completed && cmp.normal.completed);
        // Identical workload: the backlog at switch time matches.
        assert!((cmp.fast.switch.avg_q0 - cmp.normal.switch.avg_q0).abs() < 1e-9);
        // The headline claim.  At this small scale the old-source backlog is
        // only a couple of hops' worth of segments, so we allow a small
        // tolerance.  At paper scale the `figures` binary prints reduction
        // ratios of 0.003–0.043 (static, Figure 7) and 0.012–0.054
        // (dynamic, Figure 11) over 100–8,000 nodes.
        assert!(
            cmp.fast.avg_switch_time_secs() <= cmp.normal.avg_switch_time_secs() + 0.5,
            "fast {} vs normal {}",
            cmp.fast.avg_switch_time_secs(),
            cmp.normal.avg_switch_time_secs()
        );
        assert!(cmp.reduction_ratio() >= -0.1);
        // And it does not cost extra communication overhead.
        assert!(cmp.fast.overhead.overhead <= cmp.normal.overhead.overhead * 1.05);
    }

    #[test]
    fn dynamic_environment_run_completes() {
        let config = ScenarioConfig::quick(100, Algorithm::Normal, Environment::Dynamic);
        let result = run_scenario(&config);
        assert!(result.completed, "dynamic switch did not complete");
        assert!(result.switch.completion_rate() > 0.99);
        assert!(result.switch.countable_nodes < 100, "some nodes departed");
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
        assert!(points[0].completed, "the lossless run must complete");
        for (i, pair) in points.windows(2).enumerate() {
            let (a, b) = (&pair[0], &pair[1]);
            assert!(
                b.avg_switch_time_secs() >= a.avg_switch_time_secs(),
                "switch latency must not improve under loss: {} -> {} at loss {}",
                a.avg_switch_time_secs(),
                b.avg_switch_time_secs(),
                losses[i + 1]
            );
            let (ca, cb) = (a.qoe.continuity().unwrap(), b.qoe.continuity().unwrap());
            assert!(
                cb <= ca + 1e-9,
                "continuity must not improve under loss: {ca} -> {cb} at loss {}",
                losses[i + 1]
            );
        }
        assert!(
            points[2].avg_switch_time_secs() > points[0].avg_switch_time_secs(),
            "25% loss must measurably slow the switch"
        );
        assert!(points[2].qoe.continuity().unwrap() < points[0].qoe.continuity().unwrap());
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
        assert!(points[0].completed && points[1].completed);
        for (i, pair) in points.windows(2).enumerate() {
            assert!(
                pair[1].avg_switch_time_secs() >= pair[0].avg_switch_time_secs(),
                "switch latency must not improve with slower links: {} -> {} at scale {}",
                pair[0].avg_switch_time_secs(),
                pair[1].avg_switch_time_secs(),
                scales[i + 1]
            );
        }
        assert!(
            points[2].avg_switch_time_secs() > points[0].avg_switch_time_secs(),
            "8x latency must measurably slow the switch"
        );
    }

    #[test]
    #[should_panic(expected = "valid scenario")]
    fn invalid_scenario_panics() {
        let mut config = ScenarioConfig::quick(80, Algorithm::Fast, Environment::Static);
        config.warmup_periods = 0;
        let _ = run_scenario(&config);
    }
}
