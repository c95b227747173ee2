//! The channel-zapping workload: many concurrent channels, viewers hopping
//! between them.
//!
//! The paper evaluates a *source switch inside one stream*; multi-channel
//! systems (CliqueStream's clustered per-channel overlays, the live-
//! entertainment setting of PAPERS.md) face the dual problem — a *viewer
//! switching between streams* — which makes per-zap startup delay a
//! first-class metric.  This module runs that workload on the
//! `fss-runtime` [`SessionManager`]: [`run_channel_zapping`] warms a
//! [`ZappingScenario`] up and runs its measured window
//! (`examples/channel_zapping.rs` prints the report).
//!
//! Runs use the session's pipeline (channels synchronise pairwise at zap
//! batches only) with its default run-ahead bound; reports are
//! byte-identical for every bound — the `fss-runtime` test-suite checks
//! them against a lockstep oracle.

use crate::scenario::Algorithm;
use fss_runtime::{RuntimeReport, SessionConfig, SessionManager, WorkerPool, ZapWorkload};
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
}
