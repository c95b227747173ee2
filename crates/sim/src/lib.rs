//! Deterministic simulation substrate.
//!
//! `fss-sim` is the lowest-level substrate of the fast-source-switching
//! reproduction.  It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — a fixed-point virtual clock (millisecond
//!   resolution) so that event ordering is exact and platform independent,
//! * [`cast`] — checked narrowing conversions ([`cast::narrow`]) for
//!   protocol state, shared by the scheduling contract in `fss-core` and
//!   the gossip substrate,
//! * [`hasher`] — the deterministic `FxHashMap`/`FxHashSet` aliases every
//!   workspace crate uses instead of default-`RandomState` collections
//!   (clippy's `disallowed-types` in the root `clippy.toml` bans the
//!   others), and
//! * [`JobExecutor`] / [`ScopedJob`] — the scoped fan-out contract shared by
//!   the gossip scheduling sweep, the `fss-runtime` worker pool and the
//!   experiment sweeps (per-chunk slots make results executor-independent).
//!
//! The substrate is intentionally free of any networking or streaming
//! concepts; those live in `fss-gossip` (whose event-mode network keeps its
//! in-flight messages in a per-period arrival calendar, `fss_gossip::queue`).

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod cast;
pub mod exec;
pub mod hasher;
pub mod time;

pub use exec::{DisjointRanges, DisjointSlots, JobExecutor, ScopedJob, SerialExecutor};
pub use time::{SimDuration, SimTime};
