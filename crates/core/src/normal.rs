//! The Normal Switch Algorithm (the paper's baseline).
//!
//! "For a node n when its neighbors can supply data segments of both S1 and
//! S2, node n would retrieve data segments of S1 in priority.  If n still has
//! available inbound rate after retrieving data segments of S1, it would
//! allocate the remaining inbound rate to retrieve data segments of S2."
//!
//! The baseline shares every mechanism with the fast algorithm — the same
//! priorities, the same greedy supplier assignment, the same budget — and
//! differs only in the allocation rule: the old source always gets absolute
//! priority, i.e. `I1 = min(O1, I)` and `I2 = min(O2, I − I1)`.

use crate::assign::{greedy_assign_into, AssignmentOrder, SchedulerScratch};
use crate::scheduler::{SchedulingContext, SegmentRequest, SegmentScheduler};

/// The baseline scheduler the paper compares against.
#[derive(Debug, Clone, Copy, Default)]
pub struct NormalSwitchScheduler;

impl NormalSwitchScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        NormalSwitchScheduler
    }
}

impl SegmentScheduler for NormalSwitchScheduler {
    fn name(&self) -> &'static str {
        "normal-switch"
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
        greedy_assign_into(ctx, AssignmentOrder::OldSourceFirst, scratch);
        let outcome = &scratch.outcome;
        let old_take = outcome.available_old().min(budget);
        let new_take = outcome.available_new().min(budget - old_take);
        out.extend(
            outcome
                .old
                .iter()
                .take(old_take)
                .chain(outcome.new.iter().take(new_take))
                .map(|a| SegmentRequest {
                    segment: a.id,
                    supplier: a.supplier,
                }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast::FastSwitchScheduler;
    use crate::scheduler::StreamClass;
    use crate::testing::{context, push};

    fn switch_ctx(old_missing: u64, new_available: u64, inbound: f64) -> SchedulingContext {
        let mut ctx = context(200 - old_missing, inbound, true);
        ctx.q1 = old_missing as usize;
        ctx.q2 = 50;
        for id in (200 - old_missing)..200u64 {
            push(&mut ctx, id, &[(1, 20.0, 300), (2, 20.0, 250)]);
        }
        for id in 200..(200 + new_available) {
            push(&mut ctx, id, &[(3, 20.0, 30), (4, 20.0, 25)]);
        }
        ctx
    }

    #[test]
    fn old_source_gets_absolute_priority() {
        // Plenty of old segments missing: the whole budget goes to S1.
        let ctx = switch_ctx(60, 30, 15.0);
        let requests = NormalSwitchScheduler::new().schedule(&ctx);
        assert_eq!(requests.len(), ctx.inbound_budget());
        assert!(requests
            .iter()
            .all(|r| ctx.class_of(r.segment) == StreamClass::Old));
    }

    #[test]
    fn leftover_budget_goes_to_the_new_source() {
        // Only 4 old segments missing: 4 go to S1, the rest of the budget to
        // S2.
        let ctx = switch_ctx(4, 30, 15.0);
        let requests = NormalSwitchScheduler::new().schedule(&ctx);
        assert_eq!(requests.len(), ctx.inbound_budget());
        let old = requests
            .iter()
            .filter(|r| ctx.class_of(r.segment) == StreamClass::Old)
            .count();
        assert_eq!(old, 4);
        assert_eq!(requests.len() - old, ctx.inbound_budget() - 4);
        // Old requests come first in the emitted order.
        assert!(requests[..4]
            .iter()
            .all(|r| ctx.class_of(r.segment) == StreamClass::Old));
    }

    #[test]
    fn normal_prepares_the_new_source_slower_than_fast() {
        // With a large old backlog the fast algorithm reserves part of the
        // budget for the new source while the normal algorithm spends it all
        // on the old one — the per-period difference behind Figure 2.
        let ctx = switch_ctx(60, 30, 15.0);
        let fast_new = FastSwitchScheduler::new()
            .schedule(&ctx)
            .iter()
            .filter(|r| ctx.class_of(r.segment) == StreamClass::New)
            .count();
        let normal_new = NormalSwitchScheduler::new()
            .schedule(&ctx)
            .iter()
            .filter(|r| ctx.class_of(r.segment) == StreamClass::New)
            .count();
        assert!(fast_new > normal_new);
        assert_eq!(normal_new, 0);
    }

    #[test]
    fn respects_budget_and_empty_inputs() {
        let ctx = switch_ctx(2, 1, 2.0);
        let requests = NormalSwitchScheduler::new().schedule(&ctx);
        assert!(requests.len() <= 2);

        let mut empty = switch_ctx(5, 5, 15.0);
        empty.candidates.clear();
        assert!(NormalSwitchScheduler::new().schedule(&empty).is_empty());
        assert_eq!(NormalSwitchScheduler::new().name(), "normal-switch");
    }

    #[test]
    fn figure2_request_order_matches_the_paper() {
        // Figure 2: 10 available segments (5 of S1, 5 of S2), room for 7.
        // The normal algorithm requests the 5 old segments then 2 new ones;
        // the fast algorithm interleaves and picks more new segments.
        let ctx = {
            let mut ctx = switch_ctx(5, 5, 7.0);
            ctx.q2 = 5;
            ctx
        };
        let normal = NormalSwitchScheduler::new().schedule(&ctx);
        assert_eq!(normal.len(), 7);
        let normal_old = normal
            .iter()
            .filter(|r| ctx.class_of(r.segment) == StreamClass::Old)
            .count();
        assert_eq!(normal_old, 5);

        let fast = FastSwitchScheduler::new().schedule(&ctx);
        assert_eq!(fast.len(), 7);
        let fast_new = fast
            .iter()
            .filter(|r| ctx.class_of(r.segment) == StreamClass::New)
            .count();
        assert!(
            fast_new >= 2,
            "fast interleaves at least as many new segments"
        );
    }
}
