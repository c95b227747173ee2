//! Memory-footprint experiments: bytes/peer at steady state, and the
//! large-population scenario the compact per-peer layout buys headroom for.
//!
//! The ROADMAP's million-user north star is gated on per-viewer state: the
//! compact layout (2-byte ring tags, u16 epoch sequence numbers — see
//! `fss_gossip::buffer`) keeps a steady-state viewer under 4 KiB, so a
//! million viewers fit in a few GB.  This module measures it:
//!
//! * [`sweep_memory`] — steady-state [`MemSummary`] (bytes/peer and its
//!   component breakdown) across population sizes; the
//!   numbers land in `BENCH_period.json` and `docs/performance.md`, and the
//!   1k-node point is guarded by `crates/bench/tests/mem_budget.rs`;
//! * [`run_large_population`] — a single channel at
//!   [`LARGE_POPULATION_NODES`] (50 000) peers streamed to steady playback:
//!   an order of magnitude beyond the paper's evaluation sizes, feasible on
//!   one machine precisely because per-peer state is small and the period
//!   loop allocates nothing.
//!
//! The million-viewer capstone (4 channels × 250 000 viewers on sharded
//! peer stores in one process) is the `--ignored` test
//! `million_viewer_full_scale` in this module's tests, with a 3 × 2 000
//! viewer stand-in, `million_scenario_smoke`, in the default suite.

#![expect(
    clippy::expect_used,
    reason = "fail-fast experiment drivers behind the CLI: aborting with the expect message on a malformed scenario is the intended operator experience"
)]

use crate::scenario::Algorithm;
use fss_gossip::{GossipConfig, StreamingSystem};
use fss_metrics::MemSummary;
use fss_overlay::{OverlayBuilder, OverlayConfig, PeerId};
use fss_trace::{GeneratorConfig, TraceGenerator};

/// Population of the large-population scenario: 50× the paper's common
/// 1 000-node configuration, single channel.
pub const LARGE_POPULATION_NODES: usize = 50_000;

/// Configuration of one steady-state memory measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryScenario {
    /// Number of overlay nodes.
    pub nodes: usize,
    /// The scheduling policy (memory is policy-independent, but the run
    /// must use one).
    pub algorithm: Algorithm,
    /// Seed of the synthetic trace / overlay.
    pub seed: u64,
    /// Periods streamed before measuring, enough for every buffer to reach
    /// its steady-state high-water capacities (evictions running).
    pub warmup_periods: u64,
}

impl MemoryScenario {
    /// Defaults: fast-switch policy, 80 warm-up periods (buffers of
    /// `B = 600` fill within ~60 periods at `p·τ = 10`).
    pub fn sized(nodes: usize) -> Self {
        MemoryScenario {
            nodes,
            algorithm: Algorithm::Fast,
            seed: 0x3E3A_0001 ^ nodes as u64,
            warmup_periods: 80,
        }
    }
}

/// One point of the memory sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryPoint {
    /// Number of overlay nodes.
    pub nodes: usize,
    /// The steady-state footprint summary at that size.
    pub mem: MemSummary,
}

/// Builds and streams the scenario's system to steady state.
fn steady_system(scenario: &MemoryScenario) -> StreamingSystem {
    let trace = TraceGenerator::new(GeneratorConfig::sized(scenario.nodes, scenario.seed))
        .generate(format!("memory-{}", scenario.nodes));
    let overlay_config = OverlayConfig {
        seed: scenario.seed ^ 0x00C4_A11E,
        ..OverlayConfig::default()
    };
    let overlay = OverlayBuilder::new(overlay_config)
        .expect("valid overlay config")
        .build(&trace)
        .expect("overlay construction");
    let source = overlay.active_peers().next().expect("non-empty overlay");
    let mut system = StreamingSystem::new(
        overlay,
        GossipConfig::paper_default(),
        scenario.algorithm.scheduler(),
    );
    system.start_initial_source(source);
    system.run_periods(scenario.warmup_periods);
    system
}

/// Sweeps the steady-state footprint over population sizes: bytes/peer
/// should stay essentially flat (per-peer state does not grow with the
/// system), which is exactly what makes large populations affordable.
pub fn sweep_memory(sizes: &[usize]) -> Vec<MemoryPoint> {
    sizes
        .iter()
        .map(|&nodes| MemoryPoint {
            nodes,
            mem: MemSummary::from_usage(
                steady_system(&MemoryScenario::sized(nodes)).memory_usage(),
            ),
        })
        .collect()
}

/// Outcome of the large-population run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LargePopulationReport {
    /// Number of overlay nodes simulated.
    pub nodes: usize,
    /// Periods executed.
    pub periods: u64,
    /// Fraction of non-source nodes whose playback started.
    pub playback_started: f64,
    /// The steady-state footprint summary.
    pub mem: MemSummary,
}

/// Runs one single-channel large-population scenario (defaults to
/// [`LARGE_POPULATION_NODES`] via [`MemoryScenario::sized`]) and reports
/// playback health next to the footprint: the point is that tens of
/// thousands of viewers stream fine in one process on the compact layout.
pub fn run_large_population(scenario: &MemoryScenario) -> LargePopulationReport {
    let system = steady_system(scenario);
    let source = system
        .directory()
        .sessions()
        .first()
        .expect("initial source started")
        .source_peer;
    let viewers: Vec<PeerId> = system
        .overlay()
        .active_peers()
        .filter(|&p| p != source)
        .collect();
    let started = viewers
        .iter()
        .filter(|&&p| system.peer(p).playback().has_started())
        .count();
    LargePopulationReport {
        nodes: scenario.nodes,
        periods: system.periods(),
        playback_started: if viewers.is_empty() {
            0.0
        } else {
            started as f64 / viewers.len() as f64
        },
        mem: MemSummary::from_usage(system.memory_usage()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fss_runtime::{RuntimeReport, SessionConfig, SessionManager, WorkerPool};
    use std::sync::Arc;

    /// The million-viewer capstone's session: `channels` channels of
    /// `viewers_per_channel` on `shards`-shard peer stores, stepped on one
    /// pool of `workers`; `warmup_periods` with zapping off, then 5
    /// measured periods of the uniform workload at `zap_fraction`.
    fn run_sharded_channels(
        channels: usize,
        viewers_per_channel: usize,
        shards: usize,
        workers: usize,
        warmup_periods: u64,
        zap_fraction: f64,
    ) -> RuntimeReport {
        let config = SessionConfig {
            zap_fraction,
            seed: 0x03E3_A1E6,
            ..SessionConfig::paper_default(channels, viewers_per_channel)
        };
        let pool = Arc::new(WorkerPool::new(workers));
        let mut session = SessionManager::new(config, pool, || Algorithm::Fast.scheduler());
        session.set_shards(shards);
        session.warmup(warmup_periods);
        session.run_periods(5);
        session.report()
    }

    /// The per-peer budget `crates/bench/tests/mem_budget.rs` gates.
    const BYTES_PER_PEER_BUDGET: f64 = 4.0 * 1024.0;

    fn total_viewers(report: &RuntimeReport) -> usize {
        report.channels.iter().map(|c| c.viewers).sum()
    }

    #[test]
    fn sweep_reports_flat_bytes_per_peer() {
        let points = sweep_memory(&[150, 300]);
        assert_eq!(points.len(), 2);
        for point in &points {
            assert_eq!(point.mem.active_peers, point.nodes);
            assert!(point.mem.avg_bytes_per_peer > 0.0);
            assert!(
                point.mem.avg_bytes_per_peer <= BYTES_PER_PEER_BUDGET,
                "{:.0} B/peer at {} nodes exceeds the {BYTES_PER_PEER_BUDGET:.0} B budget",
                point.mem.avg_bytes_per_peer,
                point.nodes
            );
        }
        // Per-peer state must not grow with the population (allow a small
        // tolerance for window-span variance between workloads).
        let (small, large) = (&points[0].mem, &points[1].mem);
        assert!(
            large.avg_bytes_per_peer < small.avg_bytes_per_peer * 1.25,
            "bytes/peer grew with population: {} -> {}",
            small.avg_bytes_per_peer,
            large.avg_bytes_per_peer
        );
    }

    /// A scaled-down stand-in keeps the scenario's code path covered in the
    /// default test suite; the full 50k-node run is `--ignored` (it needs a
    /// few seconds and ~250 MB).
    #[test]
    fn large_population_scenario_smoke() {
        let scenario = MemoryScenario {
            warmup_periods: 60,
            ..MemoryScenario::sized(2_000)
        };
        let report = run_large_population(&scenario);
        assert_eq!(report.nodes, 2_000);
        assert_eq!(report.periods, 60);
        assert!(
            report.playback_started > 0.9,
            "only {:.0}% of viewers started playback",
            100.0 * report.playback_started
        );
        assert!(report.mem.avg_bytes_per_peer > 0.0);
    }

    #[test]
    #[ignore = "full-scale run: ~50k peers, a few seconds, ~250 MB"]
    fn large_population_full_scale() {
        let report = run_large_population(&MemoryScenario::sized(LARGE_POPULATION_NODES));
        assert_eq!(report.nodes, LARGE_POPULATION_NODES);
        assert!(report.playback_started > 0.9);
        assert!(report.mem.avg_bytes_per_peer <= BYTES_PER_PEER_BUDGET);
        // The headroom claim: 50k viewers of buffer state fit comfortably
        // under a gigabyte.
        assert!(report.mem.peer_state_bytes < 1 << 30);
    }

    /// The capstone's code path in miniature: several sharded channels on
    /// one pool, zapping viewers, streaming-sketch summaries, bounded
    /// footprint.
    #[test]
    fn million_scenario_smoke() {
        let report = run_sharded_channels(3, 2_000, 4, 2, 40, 0.002);
        assert_eq!(total_viewers(&report), 6_000);
        assert_eq!(report.periods, 45);
        assert!(report.total_zaps() > 0, "the zap workload must run");
        let zap_completion = report.cross_channel_zaps.completion_rate();
        assert!(
            zap_completion > 0.5,
            "most zaps reach playback: {zap_completion:.2}"
        );
        assert_eq!(report.channels.len(), 3);
        for channel in &report.channels {
            assert!(channel.traffic.data_bits > 0);
        }
        assert!(report.mem.peer_state_bytes > 0);
        assert!(report.mem.avg_bytes_per_peer <= BYTES_PER_PEER_BUDGET);
    }

    /// The capstone itself: one million viewers across 4 channels in one
    /// process.  `--ignored` because it needs minutes of wall clock and a
    /// few GB of RAM; the acceptance bound is ≤ 5.0 GB of peer state.
    #[test]
    #[ignore = "full-scale run: 1M viewers, minutes of wall clock, ~5 GB"]
    fn million_viewer_full_scale() {
        // 4 channels × 250 000 viewers, 16 shards per channel, one worker;
        // 0.1 % of 250 000 viewers is still 250 cross-channel moves per
        // channel per period.
        let report = run_sharded_channels(4, 250_000, 16, 1, 70, 0.001);
        assert_eq!(total_viewers(&report), 1_000_000);
        assert!(report.total_zaps() > 0);
        let peer_state_bytes = report.mem.peer_state_bytes;
        assert!(
            peer_state_bytes as f64 <= 5.0 * 1e9,
            "peer state {peer_state_bytes} B exceeds the 5 GB acceptance bound"
        );
        assert!(report.mem.avg_bytes_per_peer <= BYTES_PER_PEER_BUDGET);
    }
}
