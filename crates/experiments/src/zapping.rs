//! The channel-zapping workload: many concurrent channels, viewers hopping
//! between them.
//!
//! The paper evaluates a *source switch inside one stream*; multi-channel
//! systems (CliqueStream's clustered per-channel overlays, the live-
//! entertainment setting of PAPERS.md) face the dual problem — a *viewer
//! switching between streams* — which makes per-zap startup delay a
//! first-class metric.  This module runs that workload on the
//! `fss-runtime` [`SessionManager`] and sweeps it along three axes:
//!
//! * [`sweep_channel_counts`] — how does zap latency behave as viewership
//!   spreads over more, smaller channels at constant total population?
//! * [`sweep_zipf_alphas`] — how does channel-popularity skew (Zipf α)
//!   shift the zap load and the latency distribution?
//! * [`sweep_storm_sizes`] — how does a flash crowd of growing size stress
//!   the target channel's join path?
//! * [`sweep_admission_rates`] — a fixed-size flash crowd against a
//!   sweep of `max_admits_per_period` rate limits: the zap-latency versus
//!   admission-delay tradeoff of the membership directory's join queue.
//!
//! All runs use the session's pipeline (channels synchronise pairwise at
//! zap batches only) with its default run-ahead bound; reports are
//! byte-identical for every bound — the `fss-runtime` test-suite checks
//! them against a lockstep oracle.

use crate::scenario::Algorithm;
use fss_runtime::{
    AdmissionControl, RuntimeReport, SessionConfig, SessionManager, WorkerPool, ZapWorkload,
};
use std::sync::Arc;

/// Configuration of one channel-zapping experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZappingScenario {
    /// The multi-channel session layout (channels, viewers, zap rate).
    pub session: SessionConfig,
    /// The zap workload shape (uniform / Zipf / flash crowd).
    pub workload: ZapWorkload,
    /// The scheduling policy every channel runs.
    pub algorithm: Algorithm,
    /// Zap-free periods to reach steady playback before measuring.
    pub warmup_periods: u64,
    /// Measured periods with the zapping workload active.
    pub measure_periods: u64,
}

impl ZappingScenario {
    /// Paper-flavoured defaults at a given channel count and per-channel
    /// audience, with the uniform workload.
    pub fn paper(channels: usize, viewers_per_channel: usize) -> Self {
        ZappingScenario {
            session: SessionConfig::paper_default(channels, viewers_per_channel),
            workload: ZapWorkload::Uniform,
            algorithm: Algorithm::Fast,
            warmup_periods: 40,
            measure_periods: 120,
        }
    }

    /// A reduced configuration for quick tests.
    pub fn quick(channels: usize, viewers_per_channel: usize) -> Self {
        ZappingScenario {
            warmup_periods: 25,
            measure_periods: 45,
            ..Self::paper(channels, viewers_per_channel)
        }
    }

    /// The same scenario with a different workload shape.
    pub fn with_workload(self, workload: ZapWorkload) -> Self {
        ZappingScenario { workload, ..self }
    }
}

/// Runs one channel-zapping scenario on `pool` — pipelined stepping,
/// deterministic for any pool size — and returns the runtime report.
pub fn run_channel_zapping(scenario: &ZappingScenario, pool: &Arc<WorkerPool>) -> RuntimeReport {
    let mut manager = SessionManager::new(scenario.session, Arc::clone(pool), || {
        scenario.algorithm.scheduler()
    });
    manager.set_workload(scenario.workload);
    manager.warmup(scenario.warmup_periods);
    manager.run_periods(scenario.measure_periods);
    manager.report()
}

/// One point of the channel-count sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ZappingSweepPoint {
    /// Number of concurrent channels.
    pub channels: usize,
    /// The aggregated runtime report at that channel count.
    pub report: RuntimeReport,
}

/// Sweeps the scenario over `channel_counts`, holding the *total* viewer
/// population constant (viewers spread over more, smaller channels) so the
/// points differ only in channel count.
///
/// Scenarios run one after another; each is internally parallel across its
/// channels on `pool`.
///
/// # Panics
/// Panics if a channel count does not divide the base scenario's total
/// population — channels are uniformly sized, so a non-divisor count would
/// silently drop the remainder and make the points non-comparable.
pub fn sweep_channel_counts(
    channel_counts: &[usize],
    base: &ZappingScenario,
    pool: &Arc<WorkerPool>,
) -> Vec<ZappingSweepPoint> {
    let total_viewers = base.session.channels * base.session.viewers_per_channel;
    channel_counts
        .iter()
        .map(|&channels| {
            assert!(
                channels > 0 && total_viewers.is_multiple_of(channels),
                "channel count {channels} does not divide the {total_viewers}-viewer population"
            );
            let scenario = ZappingScenario {
                session: SessionConfig {
                    channels,
                    viewers_per_channel: total_viewers / channels,
                    ..base.session
                },
                ..*base
            };
            ZappingSweepPoint {
                channels,
                report: run_channel_zapping(&scenario, pool),
            }
        })
        .collect()
}

/// One point of the popularity-skew sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct AlphaSweepPoint {
    /// The Zipf exponent of the workload (0 = uniform popularity).
    pub alpha: f64,
    /// The aggregated runtime report under that skew.
    pub report: RuntimeReport,
}

/// Sweeps the Zipf exponent of the channel-popularity distribution over
/// `alphas`, holding the session layout fixed: how does concentrating the
/// audience on a few popular channels move the zap load and latency?
pub fn sweep_zipf_alphas(
    alphas: &[f64],
    base: &ZappingScenario,
    pool: &Arc<WorkerPool>,
) -> Vec<AlphaSweepPoint> {
    alphas
        .iter()
        .map(|&alpha| AlphaSweepPoint {
            alpha,
            report: run_channel_zapping(&base.with_workload(ZapWorkload::Zipf { alpha }), pool),
        })
        .collect()
}

/// One point of the flash-crowd sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct StormSweepPoint {
    /// Viewers converging on the target channel in the storm period.
    pub storm_size: usize,
    /// The aggregated runtime report for that storm.
    pub report: RuntimeReport,
}

/// Sweeps the size of a flash crowd converging on channel 0 halfway through
/// the measured window, on top of the base scenario's background uniform
/// zap rate: how does a switch storm of growing size stress the join path?
pub fn sweep_storm_sizes(
    sizes: &[usize],
    base: &ZappingScenario,
    pool: &Arc<WorkerPool>,
) -> Vec<StormSweepPoint> {
    let at = base.warmup_periods + base.measure_periods / 2;
    sizes
        .iter()
        .map(|&size| StormSweepPoint {
            storm_size: size,
            report: run_channel_zapping(
                &base.with_workload(ZapWorkload::FlashCrowd {
                    target: 0,
                    at,
                    size,
                }),
                pool,
            ),
        })
        .collect()
}

/// One point of the admission-rate sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionSweepPoint {
    /// The per-channel per-boundary admission cap (`None` = unlimited, the
    /// legacy admit-everything-at-the-boundary behaviour).
    pub max_admits_per_period: Option<usize>,
    /// The aggregated runtime report under that cap.
    pub report: RuntimeReport,
}

/// Sweeps the membership directory's admission rate limit against a fixed
/// flash crowd: `storm_size` viewers converge on channel 0 halfway through
/// the measured window while each channel admits at most
/// `max_admits_per_period` arrivals per boundary.
///
/// The sweep exposes the deployment tradeoff the ROADMAP's storm-time
/// admission-control item asks about: an unlimited channel absorbs the
/// whole crowd in one boundary (fast zaps, a join stampede on the overlay),
/// while a tight limit spreads the crowd over many boundaries (bounded join
/// churn per period, but queued viewers wait — their zap latency includes
/// the admission delay, reported separately in
/// [`fss_metrics::AdmissionSummary`]).
pub fn sweep_admission_rates(
    rates: &[Option<usize>],
    storm_size: usize,
    base: &ZappingScenario,
    pool: &Arc<WorkerPool>,
) -> Vec<AdmissionSweepPoint> {
    let at = base.warmup_periods + base.measure_periods / 2;
    rates
        .iter()
        .map(|&max_admits_per_period| {
            let scenario = ZappingScenario {
                session: SessionConfig {
                    admission: AdmissionControl {
                        max_admits_per_period,
                    },
                    ..base.session
                },
                ..*base
            }
            .with_workload(ZapWorkload::FlashCrowd {
                target: 0,
                at,
                size: storm_size,
            });
            AdmissionSweepPoint {
                max_admits_per_period,
                report: run_channel_zapping(&scenario, pool),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_zapping_scenario_completes_and_measures() {
        let scenario = ZappingScenario::quick(4, 40);
        let pool = Arc::new(WorkerPool::new(2));
        let report = run_channel_zapping(&scenario, &pool);
        assert_eq!(report.channels.len(), 4);
        assert_eq!(report.workload, "uniform");
        assert_eq!(
            report.periods,
            scenario.warmup_periods + scenario.measure_periods
        );
        assert!(report.total_zaps() > 0);
        assert!(report.cross_channel_zaps.completed > 0);
        assert!(report.cross_channel_zaps.completion_rate() > 0.5);
        // Startup after a zap takes at least one period, on average more.
        assert!(report.cross_channel_zaps.avg_startup_secs >= 1.0);
    }

    #[test]
    fn channel_sweep_conserves_total_population() {
        let base = ZappingScenario {
            measure_periods: 30,
            warmup_periods: 20,
            ..ZappingScenario::quick(2, 60)
        };
        let pool = Arc::new(WorkerPool::new(2));
        let points = sweep_channel_counts(&[2, 4], &base, &pool);
        assert_eq!(points.len(), 2);
        for point in &points {
            let viewers: usize = point.report.channels.iter().map(|c| c.viewers).sum();
            // Zapping conserves population exactly; construction splits the
            // 120 viewers evenly.
            assert_eq!(viewers, 120, "channels = {}", point.channels);
            assert!(point.report.total_zaps() > 0);
        }
    }

    #[test]
    fn alpha_sweep_increases_arrival_skew() {
        let base = ZappingScenario {
            measure_periods: 40,
            warmup_periods: 20,
            ..ZappingScenario::quick(4, 40)
        };
        let pool = Arc::new(WorkerPool::new(2));
        let points = sweep_zipf_alphas(&[0.0, 1.5], &base, &pool);
        assert_eq!(points.len(), 2);
        for point in &points {
            assert!(point.report.total_zaps() > 0, "alpha = {}", point.alpha);
            assert_eq!(point.report.workload, format!("zipf({})", point.alpha));
        }
        // A strong skew concentrates arrivals harder than no skew.
        assert!(
            points[1].report.zap_load.gini > points[0].report.zap_load.gini,
            "gini did not grow with alpha: {:?} vs {:?}",
            points[0].report.zap_load,
            points[1].report.zap_load
        );
    }

    #[test]
    fn storm_sweep_scales_the_burst() {
        let base = ZappingScenario {
            measure_periods: 30,
            warmup_periods: 20,
            ..ZappingScenario::quick(3, 40)
        };
        let pool = Arc::new(WorkerPool::new(2));
        let points = sweep_storm_sizes(&[0, 40], &base, &pool);
        assert_eq!(points.len(), 2);
        // The storm lands on channel 0 and dominates the arrival counts.
        let calm = &points[0].report;
        let stormy = &points[1].report;
        assert!(stormy.channels[0].zaps_in >= calm.channels[0].zaps_in + 30);
        assert_eq!(stormy.zap_load.busiest_channel, 0);
        assert!(stormy.zap_load.busiest_share > calm.zap_load.busiest_share);
    }

    /// The admission-rate sweep exposes the latency/delay tradeoff: tighter
    /// caps defer more of the storm and push the admission delay up, while
    /// the unlimited point never queues anything.
    #[test]
    fn admission_sweep_trades_zap_latency_for_admission_delay() {
        let base = ZappingScenario {
            measure_periods: 40,
            warmup_periods: 20,
            ..ZappingScenario::quick(3, 40)
        };
        let pool = Arc::new(WorkerPool::new(2));
        let points = sweep_admission_rates(&[None, Some(16), Some(4)], 50, &base, &pool);
        assert_eq!(points.len(), 3);

        let unlimited = &points[0].report;
        assert!(!unlimited.admission.rate_limited);
        assert_eq!(unlimited.admission.deferred, 0);
        assert!(unlimited.total_zaps() > 0);

        let loose = &points[1].report;
        let tight = &points[2].report;
        for limited in [loose, tight] {
            assert!(limited.admission.rate_limited);
            assert!(limited.admission.deferred > 0, "{:?}", limited.admission);
        }
        // A tighter cap defers for longer: the storm drains at 4/boundary
        // instead of 16/boundary on the target channel.
        assert!(
            tight.admission.avg_delay_secs > loose.admission.avg_delay_secs,
            "tight {:?} vs loose {:?}",
            tight.admission,
            loose.admission
        );
        assert!(tight.admission.max_delay_secs >= loose.admission.max_delay_secs);
        // All three points observe the same planned workload.
        assert_eq!(unlimited.total_zaps(), loose.total_zaps());
        assert_eq!(unlimited.total_zaps(), tight.total_zaps());
    }

    #[test]
    #[should_panic(expected = "does not divide")]
    fn non_divisor_channel_count_panics() {
        let base = ZappingScenario::quick(2, 60); // 120 viewers total
        let pool = Arc::new(WorkerPool::new(1));
        let _ = sweep_channel_counts(&[7], &base, &pool);
    }
}
