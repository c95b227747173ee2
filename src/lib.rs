//! Fast Source Switching for Gossip-based Peer-to-Peer Streaming.
//!
//! This crate is the facade of a full reproduction of Li, Cao, Chen and Liu,
//! *"Fast Source Switching for Gossip-based Peer-to-Peer Streaming"*
//! (ICPP 2008).  It re-exports the workspace crates:
//!
//! * [`trace`] — synthetic Gnutella-2001-style crawl traces (the paper's
//!   `dss.clip2.com` topologies),
//! * [`overlay`] — overlay construction (`M = 5` neighbour augmentation,
//!   bandwidth assignment, churn),
//! * [`sim`] — the deterministic simulation substrate,
//! * [`gossip`] — the pull-based gossip streaming system (buffers, buffer
//!   maps, playback, transfers),
//! * [`core`] — the paper's contribution: the switch-process model, segment
//!   priorities, the greedy supplier assignment, and the Fast/Normal switch
//!   schedulers,
//! * [`metrics`] — aggregation across runs, channels and events (zap
//!   latencies, admission delays, memory, QoE timelines, report tables;
//!   a run's own switch times, overhead and ratio tracks are in the
//!   gossip system's report),
//! * [`runtime`] — the persistent deterministic worker pool and the
//!   multi-channel session manager: pairwise-pipelined stepping with
//!   pluggable zap workloads (uniform / Zipf-skewed / flash-crowd), and
//! * [`experiments`] — the scenario runner and the per-figure harness.
//!
//! # Quick start
//!
//! ```
//! use fast_source_switching::prelude::*;
//!
//! // Compare the fast and normal switch algorithms on a small static overlay.
//! let config = ScenarioConfig::quick(80, Algorithm::Fast, Environment::Static);
//! let comparison = run_comparison(&config);
//! let (fast, normal) = (&comparison.fast.report, &comparison.normal.report);
//! assert!(fast.switch_completed_secs.is_some() && normal.switch_completed_secs.is_some());
//! println!(
//!     "switch time: fast {:.1}s vs normal {:.1}s (reduction {:.0}%)",
//!     fast.switch.prepare_new_secs.mean(),
//!     normal.switch.prepare_new_secs.mean(),
//!     comparison.reduction_ratio() * 100.0
//! );
//! ```

#![warn(missing_docs)]

pub use fss_core as core;
pub use fss_experiments as experiments;
pub use fss_gossip as gossip;
pub use fss_metrics as metrics;
pub use fss_overlay as overlay;
pub use fss_runtime as runtime;
pub use fss_sim as sim;
pub use fss_trace as trace;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use fss_core::{FastSwitchScheduler, NormalSwitchScheduler, SwitchModel};
    pub use fss_experiments::{
        run_comparison, run_large_population, run_scenario, sweep_memory, Algorithm,
        ComparisonResult, Environment, LargePopulationReport, MemoryScenario, RunResult,
        ScenarioConfig, LARGE_POPULATION_NODES,
    };
    pub use fss_gossip::{
        GossipConfig, MemUsage, SchedulingContext, SegmentId, SegmentScheduler, StreamingSystem,
    };
    pub use fss_metrics::{MemSummary, Table, ZapSummary};
    pub use fss_overlay::{ChurnModel, Overlay, OverlayBuilder, OverlayConfig, PeerId};
    pub use fss_runtime::{RuntimeReport, SessionConfig, SessionManager, SteppingMode, WorkerPool};
    pub use fss_trace::{GeneratorConfig, TraceGenerator};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile_and_link() {
        let model = crate::core::SwitchModel::new(100.0, 50.0, 10.0, 10.0, 15.0);
        let split = model.optimal_split();
        assert!(split.r1 > 0.0 && split.r2 > 0.0);
        let trace = crate::trace::TraceGenerator::new(crate::trace::GeneratorConfig::sized(30, 1))
            .generate("facade");
        assert_eq!(trace.node_count(), 30);
    }
}
