//! The paper's contribution: fast source switching for gossip-based P2P
//! streaming.
//!
//! This crate implements Sections 3 and 4 of the ICPP 2008 paper:
//!
//! * [`model`] — the source-switch optimization problem and its closed-form
//!   optimal solution `I1 = r1`, `I2 = I − r1` (equations (1)–(5)),
//! * [`mod@priority`] — per-segment urgency, rarity and requesting priority
//!   (equations (6)–(9)),
//! * [`assign`] — the greedy earliest-supplier assignment of Algorithm 1
//!   (step 1), which builds the ordered schedulable sets `O1` and `O2`,
//! * [`allocation`] — the four-case clamping of the ideal split to the
//!   available outbound capacities (Section 4),
//! * [`fast`] — the **Fast Switch Algorithm** (Algorithm 1) as a
//!   [`SegmentScheduler`](fss_gossip::SegmentScheduler),
//! * [`normal`] — the **Normal Switch Algorithm** baseline (old source
//!   strictly first),
//! * [`optimal`] — an exact (exponential) supplier-assignment solver for tiny
//!   instances, used to evaluate how close the greedy heuristic gets.

#![warn(missing_docs)]

pub mod allocation;
pub mod assign;
pub mod fast;
pub mod model;
pub mod normal;
pub mod optimal;
pub mod priority;
#[cfg(test)]
mod testing;

pub use allocation::{allocate_rates, RateAllocation};
pub use assign::{
    greedy_assign, greedy_assign_into, AssignScratch, AssignedSegment, AssignmentOrder,
    AssignmentOutcome,
};
pub use fast::FastSwitchScheduler;
pub use model::{optimal_split, SwitchModel, SwitchSplit};
pub use normal::NormalSwitchScheduler;
pub use optimal::{optimal_assign, OptimalAssignment};
pub use priority::{priority, rarity, rarity_of, traditional_rarity, urgency, SegmentPriority};
