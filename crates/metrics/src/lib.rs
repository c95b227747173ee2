//! Metric aggregation and reporting.
//!
//! `fss-gossip` records raw observations (per-node switch records, per-period
//! ratio samples, traffic counters); this crate turns them into the metrics
//! the paper reports:
//!
//! * [`summary::Summary`] — generic descriptive statistics (plus
//!   [`summary::SortedSample`], a sort-once quantile lookup),
//! * [`sketch::QuantileSketch`] — fixed-size, order-independently
//!   mergeable percentile sketches: the O(1)-memory streaming replacement
//!   for per-event metric vectors at million-peer scale,
//! * [`switch::SwitchSummary`] — average finishing time of `S1`, average
//!   preparing time of `S2` (= average switch time), completion rate, and the
//!   [`switch::reduction_ratio`] between two algorithms (Figures 6, 7, 10,
//!   11),
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
//!   scalar QoE summary of one run (see `docs/observability.md`),
//! * [`timeseries::RatioTrack`] — the undelivered-`S1` / delivered-`S2`
//!   tracks of Figures 5 and 9,
//! * [`overhead::OverheadSummary`] — the communication overhead of Figures 8
//!   and 12, and
//! * [`report::Table`] — fixed-width text tables / CSV printed by the
//!   `figures` binary.

#![warn(missing_docs)]

pub mod admission;
pub mod mem;
pub mod overhead;
pub mod qoe;
pub mod report;
pub mod sketch;
pub mod summary;
pub mod switch;
pub mod timeseries;
pub mod zapload;

pub use admission::AdmissionSummary;
pub use mem::MemSummary;
pub use overhead::OverheadSummary;
pub use qoe::{DepthWindow, QoeWindow, Scorecard, ScorecardDelta, Timeline, TimelineWindow};
pub use report::Table;
pub use sketch::QuantileSketch;
pub use summary::{SortedSample, Summary};
pub use switch::{reduction_ratio, SwitchSummary, ZapSummary};
pub use timeseries::RatioTrack;
pub use zapload::ZapLoadSummary;
