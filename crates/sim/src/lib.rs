//! Deterministic simulation substrate.
//!
//! `fss-sim` is the lowest-level substrate of the fast-source-switching
//! reproduction.  It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — a fixed-point virtual clock (millisecond
//!   resolution) so that event ordering is exact and platform independent,
//! * [`RngFactory`] — reproducible per-stream random number generators derived
//!   from a single master seed,
//! * [`hasher`] — the deterministic `FxHashMap`/`FxHashSet` aliases every
//!   workspace crate uses instead of default-`RandomState` collections
//!   (statically enforced by `fss-lint` rule FSS001),
//! * [`PeriodDriver`] — a convenience driver for period-synchronous protocols
//!   (the gossip scheduling period `τ` of the paper), and
//! * [`JobExecutor`] / [`ScopedJob`] — the scoped fan-out contract shared by
//!   the gossip scheduling sweep, the `fss-runtime` worker pool and the
//!   experiment sweeps (per-chunk slots make results executor-independent).
//!
//! The substrate is intentionally free of any networking or streaming
//! concepts; those live in `fss-gossip` (whose event-mode network keeps its
//! in-flight messages in a per-period arrival calendar, `fss_gossip::queue`).

#![warn(missing_docs)]

pub mod exec;
pub mod hasher;
pub mod period;
pub mod rng;
pub mod time;

pub use exec::{DisjointRanges, DisjointSlots, JobExecutor, ScopedJob, SerialExecutor};
pub use period::{PeriodControl, PeriodDriver};
pub use rng::{RngFactory, StreamRng};
pub use time::{SimDuration, SimTime};
