//! `fss-runtime` — the execution layer above a single [`StreamingSystem`].
//!
//! The reproduction's lower crates simulate *one* stream; the ROADMAP's
//! north star (millions of users, many scenarios, hardware-speed execution)
//! needs a runtime that hosts many sessions and keeps the hardware busy
//! without ever sacrificing determinism.  This crate provides three tightly
//! coupled pieces:
//!
//! * [`WorkerPool`] — a **persistent, deterministic worker pool**.  Long-
//!   lived workers execute [`fss_sim::ScopedJob`]s with dynamically stolen
//!   chunks whose outputs land in chunk-indexed slots, so results are
//!   byte-identical for every pool size.  It replaces the per-period
//!   `std::thread::scope` fan-out of the gossip scheduling sweep
//!   (`StreamingSystem::set_executor`), steps the session manager's
//!   channels, and runs `fss-experiments` scenario sweeps — one pool, three
//!   call sites, zero thread spawns per period.
//!
//! * [`SessionManager`] — a **multi-channel session manager**.  Hosts `N`
//!   concurrent channels (independent streaming systems) on the pool and
//!   drives a viewer *channel-zapping* workload; each arrival's time-to-
//!   playback is its zap latency ([`fss_metrics::ZapSummary`]).  Channels
//!   advance as one **dependency-tracked pipeline** in which a zap batch
//!   synchronises only its two endpoint channels and everyone else runs
//!   ahead, bounded by [`SteppingMode::Pipelined`]'s `run_ahead` (at 1, the
//!   lockstep schedule) — with byte-identical [`RuntimeReport`]s for every
//!   bound and any pool size.
//!
//! * [`zap`] — **pluggable zap workloads** ([`ZapSchedule`]): uniform
//!   targets, Zipf(α) popularity skew ([`zap::ZipfSampler`]) and
//!   flash-crowd storms ([`zap::Storm`]), all generating their batches
//!   from configuration and seed alone so the pipeline can compute every
//!   channel's sync points up front.
//!
//! See `docs/runtime.md` for the determinism model, the pipelining design
//! and the zap-latency definition.
//!
//! [`StreamingSystem`]: fss_gossip::StreamingSystem

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod pool;
pub mod session;
pub mod zap;

pub use pool::WorkerPool;
pub use session::{
    AdmissionControl, ChannelReport, RuntimeReport, SessionConfig, SessionManager, SteppingMode,
};
pub use zap::ZapSchedule;
