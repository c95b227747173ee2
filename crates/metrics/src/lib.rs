//! Metric aggregation and reporting.
//!
//! `fss-gossip` aggregates the paper's per-run metrics itself: its
//! `SystemReport` carries the switch-time aggregate (`SwitchStats`), the
//! switch window's traffic (whose `overhead()` is Figures 8 and 12) and the
//! ratio samples of Figures 5 and 9, which the experiment harness reads
//! directly.  This crate aggregates what spans runs, channels or events:
//!
//! * [`sketch::QuantileSketch`] — fixed-size, order-independently
//!   mergeable percentile sketches: the O(1)-memory streaming replacement
//!   for per-event metric vectors at million-peer scale,
//! * [`switch::ZapSummary`] — channel-zap startup delays of the
//!   multi-channel runtime (viewers hopping between concurrent streams),
//! * [`zapload::ZapLoadSummary`] — the arrival skew across channels
//!   realised by a popularity-skewed (Zipf / flash-crowd) zap workload,
//! * [`admission::AdmissionSummary`] — queue depth and admission-delay
//!   distribution of the membership directory's rate-limited admission
//!   pipeline,
//! * [`mem::MemSummary`] — the per-peer memory footprint (bytes/peer,
//!   ring / window / sequence breakdown) aggregated across systems,
//! * [`qoe::Timeline`] — fixed-capacity QoE / queue-depth timelines with
//!   deterministic 2× decimation, and [`qoe::Scorecard`] — the diffable
//!   scalar QoE summary of one run (see `docs/observability.md`), and
//! * [`report::Table`] — fixed-width text tables / CSV printed by the
//!   `figures` binary.
//!
//! Every summary folds streaming aggregates; none keeps a sample vector.
//! The exact-vector statistics they reproduce (`Summary`, in the
//! `summary` module) are compiled for tests only, as their reference.

#![warn(missing_docs)]

pub mod admission;
pub mod mem;
pub mod qoe;
pub mod report;
pub mod sketch;
#[cfg(test)]
mod summary;
pub mod switch;
pub mod zapload;

pub use admission::AdmissionSummary;
pub use mem::MemSummary;
pub use qoe::{DepthWindow, QoeWindow, Scorecard, ScorecardDelta, Timeline, TimelineWindow};
pub use report::Table;
pub use sketch::QuantileSketch;
pub use switch::ZapSummary;
pub use zapload::ZapLoadSummary;
