//! The Fast Switch Algorithm (Algorithm 1).
//!
//! Each period the scheduler:
//!
//! 1. scores every candidate segment with `priority = max(urgency, rarity)`
//!    and greedily assigns each one to the supplier that can deliver it
//!    earliest within the period, yielding the ordered schedulable sets `O1`
//!    and `O2` ([`greedy_assign`](crate::assign::greedy_assign)),
//! 2. computes the ideal inbound split `r1`/`r2` from the closed-form model
//!    ([`SwitchModel::optimal_split`]),
//! 3. clamps it to the available supply with the four-case rule
//!    ([`allocate_rates`]), and
//! 4. requests the first `I1` segments of `O1` and the first `I2` segments of
//!    `O2`, interleaved by priority.
//!
//! Outside of a switch (only one stream has schedulable segments) it degrades
//! to a plain priority scheduler, which is what the underlying pull-based
//! protocol does anyway.
//!
//! Step 4 is a linear two-way merge: the greedy pass emits both sets in
//! (priority desc, id asc) order, so their prefixes merge without a sort.

use crate::allocation::allocate_rates;
use crate::assign::{greedy_assign_into, AssignedSegment, AssignmentOrder, SchedulerScratch};
use crate::model::SwitchModel;
use crate::scheduler::{SchedulingContext, SegmentRequest, SegmentScheduler};

/// The paper's proposed scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastSwitchScheduler;

impl FastSwitchScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        FastSwitchScheduler
    }
}

/// True when `a` goes before `b`: higher priority first, ties by ascending
/// id.
fn precedes(a: &AssignedSegment, b: &AssignedSegment) -> bool {
    a.priority.priority > b.priority.priority
        || (a.priority.priority == b.priority.priority && a.id < b.id)
}

// fss-lint: hot-path
/// Merges the selected old/new segments into `out` ordered by decreasing
/// priority (ties broken by ascending id), emitting at most `limit` requests.
/// Each input must already be in that order.
fn merge_by_priority_into(
    old: &[AssignedSegment],
    new: &[AssignedSegment],
    out: &mut Vec<SegmentRequest>,
    limit: usize,
) {
    debug_assert!(old.windows(2).all(|w| precedes(&w[0], &w[1])));
    debug_assert!(new.windows(2).all(|w| precedes(&w[0], &w[1])));
    let (mut old, mut new) = (old.iter().peekable(), new.iter().peekable());
    for _ in 0..limit {
        let next = match (old.peek(), new.peek()) {
            (Some(a), Some(b)) if !precedes(a, b) => new.next(),
            (Some(_), _) => old.next(),
            (None, _) => new.next(),
        };
        let Some(a) = next else { break };
        out.push(SegmentRequest {
            segment: a.id,
            supplier: a.supplier,
        });
    }
}
// fss-lint: end

impl SegmentScheduler for FastSwitchScheduler {
    fn name(&self) -> &'static str {
        "fast-switch"
    }

    fn schedule_into(
        &self,
        ctx: &SchedulingContext,
        scratch: &mut SchedulerScratch,
        out: &mut Vec<SegmentRequest>,
    ) {
        out.clear();
        let budget = ctx.inbound_budget();
        if budget == 0 || ctx.candidates.is_empty() {
            return;
        }
        greedy_assign_into(ctx, AssignmentOrder::ByPriority, scratch);
        let outcome = &scratch.outcome;

        // Only one stream has anything schedulable: plain priority retrieval.
        if outcome.old.is_empty() || outcome.new.is_empty() || !ctx.switch_in_progress() {
            merge_by_priority_into(&outcome.old, &outcome.new, out, budget);
            return;
        }

        // Ideal split, clamped by the four-case rule.
        let model = SwitchModel::new(
            ctx.q1.max(1) as f64,
            ctx.q2 as f64,
            ctx.startup_q as f64,
            ctx.play_rate,
            ctx.inbound_rate,
        );
        let split = model.optimal_split();
        let allocation = allocate_rates(
            split,
            outcome.available_old(),
            outcome.available_new(),
            budget,
            ctx.tau_secs,
        );

        merge_by_priority_into(
            &outcome.old[..allocation.old_segments],
            &outcome.new[..allocation.new_segments],
            out,
            usize::MAX,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{SegmentId, StreamClass};
    use crate::testing::{context, push};

    /// A node 60 segments behind the old stream's end, with the whole old
    /// tail and the first new segments available from ample suppliers.
    fn switch_ctx(inbound: f64) -> SchedulingContext {
        let mut ctx = context(140, inbound, true);
        ctx.q1 = 60;
        ctx.q2 = 50;
        // Old source: missing 140..=199 (60 segments).
        for id in 140..200u64 {
            push(&mut ctx, id, &[(1, 20.0, 300), (2, 20.0, 200)]);
        }
        // New source: missing 200..=229 (30 segments available so far).
        for id in 200..230u64 {
            push(&mut ctx, id, &[(3, 20.0, 30), (4, 20.0, 20)]);
        }
        ctx
    }

    #[test]
    fn interleaves_old_and_new_requests() {
        let ctx = switch_ctx(15.0);
        let requests = FastSwitchScheduler::new().schedule(&ctx);
        assert!(!requests.is_empty());
        assert!(requests.len() <= ctx.inbound_budget());
        let old = requests
            .iter()
            .filter(|r| ctx.class_of(r.segment) == StreamClass::Old)
            .count();
        let new = requests.len() - old;
        assert!(old > 0, "some inbound goes to the old source");
        assert!(new > 0, "some inbound goes to the new source");

        // The split follows the model: with Q1 = 60, Q2 = 50, Q = 10, p = 10,
        // I = 15 the ideal r1 ≈ 9.27, so roughly 9 old and 6 new.
        let split = SwitchModel::new(60.0, 50.0, 10.0, 10.0, 15.0).optimal_split();
        assert!(
            (old as f64 - split.r1).abs() <= 1.0,
            "old={old} r1={}",
            split.r1
        );
        assert!(
            (new as f64 - split.r2).abs() <= 1.0,
            "new={new} r2={}",
            split.r2
        );
    }

    #[test]
    fn never_exceeds_the_inbound_budget() {
        for inbound in [1.0, 5.0, 10.0, 15.0, 33.0] {
            let ctx = switch_ctx(inbound);
            let requests = FastSwitchScheduler::new().schedule(&ctx);
            assert!(requests.len() <= ctx.inbound_budget());
        }
    }

    #[test]
    fn no_candidates_or_budget_yields_no_requests() {
        let mut ctx = switch_ctx(15.0);
        ctx.candidates.clear();
        assert!(FastSwitchScheduler::new().schedule(&ctx).is_empty());

        let mut ctx = switch_ctx(15.0);
        ctx.inbound_rate = 0.5;
        assert!(FastSwitchScheduler::new().schedule(&ctx).is_empty());
    }

    #[test]
    fn single_stream_contexts_fall_back_to_priority_order() {
        let mut ctx = switch_ctx(15.0);
        // Remove every new-source candidate: no switch decision to make.
        ctx.candidates.retain(|c| c.id < SegmentId(200));
        ctx.new_session = None;
        ctx.q2 = 0;
        let requests = FastSwitchScheduler::new().schedule(&ctx);
        assert_eq!(requests.len(), ctx.inbound_budget());
        // Most urgent (earliest) segments are requested first.
        assert_eq!(requests[0].segment, SegmentId(140));
    }

    #[test]
    fn requests_are_unique_and_reference_candidate_suppliers() {
        let ctx = switch_ctx(15.0);
        let requests = FastSwitchScheduler::new().schedule(&ctx);
        let mut ids: Vec<_> = requests.iter().map(|r| r.segment).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), requests.len());
        for r in &requests {
            let c = ctx.candidates.iter().find(|c| c.id == r.segment).unwrap();
            assert!(ctx
                .suppliers_of(c)
                .iter()
                .any(|s| ctx.neighbour(s).peer == r.supplier));
        }
    }

    #[test]
    fn scheduler_name_is_stable() {
        assert_eq!(FastSwitchScheduler::new().name(), "fast-switch");
    }
}
