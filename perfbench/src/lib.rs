//! The repository benchmark: two workloads, each run in its own process,
//! timed end to end with tracing off and layer by layer with tracing on.
//!
//! * [`workloads::steady`] — `steady_100k`: one 100,000-peer channel on a
//!   16-shard store, lockstep period mode, `advance()` timed per period,
//!   then one source switch.
//! * [`workloads::zap`] — `zap_event`: 8 channels × 1,000 viewers with
//!   Zipf zapping, storms, rate-limited admission and a lossy event-mode
//!   network, stepped pipelined in blocks of `run_ahead` periods.
//!
//! Every workload runs on one `WorkerPool::new(2)` and does a fixed amount
//! of work derived from `--seconds` (calibrated so that the measured phase
//! lasts about that long on a 2-vCPU Xeon), so two runs with the same seed
//! and length do identical work and print identical report digests.  The
//! per-layer numbers come from timing decorators at the library's public
//! seams ([`seams`]), installed only in the traced run.
//!
//! # What each layer metric should move
//!
//! * `trace.generate_ms`, `overlay.build_ms`, `gossip.warmup_ms` — `setup_s`
//!   on `steady_100k` and `zap_event`.
//! * `gossip.period_ms`, `gossip.serial_ms` (the period minus its
//!   pool-dispatched wall time: churn, emission, transfer resolution, the
//!   fused apply/playback walk, accounting), `core.*` —
//!   `period_ms.p50` on `steady_100k`.  `gossip.switch_*` and
//!   `core.switch_share` come from the source switch after the measured
//!   periods of `steady_100k`, which no end-to-end metric includes.
//! * `runtime.*` — `period_ms.p50` on `steady_100k` and `zap_event`.
//! * `net.*` — `period_ms.p50` on `zap_event` only; `directory.*` —
//!   `period_ms.p90` on `zap_event`, whose tail the storm boundaries set.
//! * `metrics.*` — time `report()` and `memory_usage()`, which no measured
//!   unit includes.
//!
//! Bounds on later claims, from a 100k period split of about 60–70 %
//! gather+schedule, 12–16 % transfer resolution and 18–24 % fused walk: a
//! 2× faster `core.self_ms` can save at most about 15–17 % of
//! `period_ms.p50` on `steady_100k` and nothing on `net.*`; a faster
//! resolver or fused walk shows in `gossip.serial_ms` on `steady_100k` and
//! should not move `zap_event`, whose event path does not use the fused
//! walk; directory or admission work shows on `zap_event` only.

pub mod host;
pub mod metrics;
pub mod seams;
pub mod stats;
pub mod workloads;

/// The problem size a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's workloads as defined.
    Full,
    /// Tiny populations and a handful of periods, for the smoke tests: every
    /// metric prints, nothing is meaningful as a measurement.
    Toy,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed every input of the workload is derived from.
    pub seed: u64,
    /// Length of the measured phase on the reference host, in seconds; it
    /// sets the amount of work.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Problem size.
    pub scale: Scale,
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One 100k-peer channel in steady state.
    Steady100k,
    /// Multi-channel zapping over the event-mode network.
    ZapEvent,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Steady100k, Workload::ZapEvent];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady100k => "steady_100k",
            Workload::ZapEvent => "zap_event",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs the workload.
    pub fn run(self, config: &RunConfig) -> metrics::Outcome {
        match self {
            Workload::Steady100k => workloads::steady::run(config),
            Workload::ZapEvent => workloads::zap::run(config),
        }
    }
}
