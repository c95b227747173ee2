//! Experiment harness reproducing the paper's evaluation (Section 5).
//!
//! * [`scenario`] — configuration of one simulation run (network size,
//!   algorithm, static/dynamic environment, warm-up length),
//! * [`runner`] — runs one scenario end to end and aggregates its metrics;
//!   [`runner::run_comparison`] runs the fast and normal algorithms on the
//!   *same* workload,
//! * [`sweep`] — parallel sweeps over network sizes (chunks on the
//!   persistent `fss-runtime` worker pool, one simulation per chunk),
//! * [`memory`] — steady-state bytes/peer measurements and the 50k-peer
//!   large-population scenario the compact per-peer layout enables,
//! * [`zapping`] — the multi-channel channel-zapping workload (viewers
//!   hopping between concurrent streams), run by
//!   `examples/channel_zapping.rs`,
//! * [`figures`] — one module per evaluation figure (5–12) producing the
//!   table/series the paper plots.
//!
//! The `figures` binary (`cargo run -p fss-experiments --bin figures`)
//! regenerates every figure and writes the tables to stdout and/or files.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod figures;
pub mod memory;
pub mod runner;
pub mod scenario;
pub mod sweep;
pub mod zapping;

pub use memory::{
    run_large_population, sweep_memory, LargePopulationReport, MemoryPoint, MemoryScenario,
    LARGE_POPULATION_NODES,
};
pub use runner::{run_comparison, run_scenario, ComparisonResult, RunResult};
pub use scenario::{Algorithm, Environment, ScenarioConfig};
pub use sweep::{sweep_sizes, sweep_sizes_on, SweepPoint};
pub use zapping::{run_channel_zapping, ZappingScenario};
