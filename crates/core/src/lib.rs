//! The paper's contribution: fast source switching for gossip-based P2P
//! streaming.
//!
//! This crate implements Sections 3 and 4 of the ICPP 2008 paper:
//!
//! * [`scheduler`] — the scheduling contract every policy implements and
//!   the gossip substrate (`fss-gossip`) builds against: segment ids, the
//!   [`SchedulingContext`], [`SegmentRequest`] and [`SegmentScheduler`],
//! * [`model`] — the source-switch optimization problem and its closed-form
//!   optimal solution `I1 = r1`, `I2 = I − r1` (equations (1)–(5)),
//! * [`mod@priority`] — per-segment urgency, rarity and requesting priority
//!   (equations (6)–(9)),
//! * [`assign`] — the greedy earliest-supplier assignment of Algorithm 1
//!   (step 1), which builds the ordered schedulable sets `O1` and `O2`,
//! * [`allocation`] — the four-case clamping of the ideal split to the
//!   available outbound capacities (Section 4),
//! * [`fast`] — the **Fast Switch Algorithm** (Algorithm 1) as a
//!   [`SegmentScheduler`], and
//! * [`normal`] — the **Normal Switch Algorithm** baseline (old source
//!   strictly first).

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

pub mod allocation;
pub mod assign;
pub mod fast;
pub mod model;
pub mod normal;
pub mod priority;
pub mod scheduler;
#[cfg(test)]
mod testing;

pub use allocation::{allocate_rates, RateAllocation};
pub use assign::{
    greedy_assign, greedy_assign_into, AssignedSegment, AssignmentOrder, AssignmentOutcome,
    SchedulerScratch,
};
pub use fast::FastSwitchScheduler;
pub use model::{optimal_split, SwitchModel, SwitchSplit};
pub use normal::NormalSwitchScheduler;
pub use priority::{priority, rarity, urgency, SegmentPriority};
pub use scheduler::{
    replacement_fraction, CandidateSegment, NeighbourInfo, SchedulingContext, SegmentId,
    SegmentRequest, SegmentScheduler, SessionView, SourceId, StreamClass, SupplierFold,
    SupplierInfo, SupplierSpan,
};
